// Robustness and edge-case coverage: multi-array edges end to end,
// fuzzed inputs for all three text parsers (must diagnose, never
// crash), simulator bounds checking, the solver's flat-objective
// gradient-scale regression, and replay of the pathological-MDG
// regression corpus (tests/fuzz_corpus/).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>

#include "calibrate/paramsio.hpp"
#include "codegen/mpmd.hpp"
#include "core/pipeline.hpp"
#include "core/programs.hpp"
#include "cost/model.hpp"
#include "cost/sanitize.hpp"
#include "frontend/compile.hpp"
#include "mdg/random_mdg.hpp"
#include "mdg/textio.hpp"
#include "sched/psa.hpp"
#include "sim/simulator.hpp"
#include "solver/allocator.hpp"
#include "support/degrade.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/vfs.hpp"
#include "support/wal.hpp"
#include "svc/persist.hpp"
#include "svc/service.hpp"

namespace paradigm {
namespace {

// ---- multi-array edges --------------------------------------------------------

/// An edge carrying the same array twice (the consumer reads X as both
/// multiply operands): the cost model must aggregate both transfers
/// (n1 = 2, doubled startup) and codegen must deliver both copies.
struct MultiArrayFixture {
  mdg::Mdg graph;
  mdg::EdgeId edge = 0;

  MultiArrayFixture() {
    graph.add_array("X", 32, 32, 1);
    mdg::LoopSpec init;
    init.op = mdg::LoopOp::kInit;
    init.output = "X";
    const mdg::NodeId a = graph.add_loop("a", init);
    graph.add_array("Z", 32, 32);
    const mdg::NodeId b = graph.add_loop("b", [&] {
      mdg::LoopSpec spec;
      spec.op = mdg::LoopOp::kMul;
      spec.inputs = {"X", "X"};
      spec.output = "Z";
      return spec;
    }());
    // One edge carrying X twice is the multi-array shape the cost model
    // aggregates (n1 = 2).
    edge = graph.add_dependence(a, b, {"X", "X"});
    graph.finalize();
  }
};

TEST(MultiArrayEdge, CostAggregatesStartupsAndBytes) {
  MultiArrayFixture fx;
  cost::KernelCostTable table;
  table.set(cost::KernelKey{mdg::LoopOp::kInit, 32, 32, 0},
            cost::AmdahlParams{0.05, 0.001});
  table.set(cost::KernelKey{mdg::LoopOp::kMul, 32, 32, 32},
            cost::AmdahlParams{0.1, 0.01});
  const cost::CostModel model(fx.graph, cost::MachineParams{}, table);
  const auto& eb = model.edge_bytes(fx.edge);
  EXPECT_DOUBLE_EQ(eb.n1, 2.0);
  EXPECT_DOUBLE_EQ(eb.l1, 2.0 * 32 * 32 * 8);
  // Two 1D arrays: twice the startup of one.
  cost::MachineParams mp;
  const double one_array_startup = (8.0 / 4.0) * mp.t_ss;
  const double send = model.send_cost(fx.edge, 4.0, 8.0);
  EXPECT_NEAR(send,
              2.0 * one_array_startup +
                  (2.0 * 32 * 32 * 8 / 4.0) * mp.t_ps,
              1e-12);
}

TEST(MultiArrayEdge, CodegenDeliversBothCopies) {
  MultiArrayFixture fx;
  cost::KernelCostTable table;
  table.set(cost::KernelKey{mdg::LoopOp::kInit, 32, 32, 0},
            cost::AmdahlParams{0.05, 0.001});
  table.set(cost::KernelKey{mdg::LoopOp::kMul, 32, 32, 32},
            cost::AmdahlParams{0.1, 0.01});
  const cost::CostModel model(fx.graph, cost::MachineParams{}, table);
  const auto alloc = solver::ConvexAllocator{}.allocate(model, 4.0);
  const sched::PsaResult psa =
      sched::prioritized_schedule(model, alloc.allocation, 4);
  const auto generated = codegen::generate_mpmd(fx.graph, psa.schedule);
  sim::MachineConfig mc;
  mc.size = 4;
  mc.noise_sigma = 0.0;
  sim::Simulator simulator(mc);
  simulator.run(generated.program);
  const Matrix x = Matrix::deterministic(32, 32, 1);
  EXPECT_LT(simulator.assemble_array("Z", 32, 32).max_abs_diff(x * x),
            1e-11);
}

// ---- parser fuzzing -------------------------------------------------------------

std::string random_garbage(Rng& rng, std::size_t length) {
  static const char kChars[] =
      "abcXYZ0189 =+-*()\n\t#_.,;:<>[]{}";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out += kChars[rng.uniform_int(0, sizeof(kChars) - 2)];
  }
  return out;
}

class FuzzSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeded, MdgTextParserNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const std::string garbage =
        random_garbage(rng, static_cast<std::size_t>(
                                rng.uniform_int(1, 300)));
    try {
      mdg::parse_mdg(garbage);
    } catch (const Error&) {
      // Diagnosed — fine.
    }
  }
}

TEST_P(FuzzSeeded, ExpressionParserNeverCrashes) {
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string garbage =
        random_garbage(rng, static_cast<std::size_t>(
                                rng.uniform_int(1, 300)));
    try {
      frontend::compile_source(garbage);
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeded, CalibrationParserNeverCrashes) {
  Rng rng(GetParam() + 900);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string garbage =
        random_garbage(rng, static_cast<std::size_t>(
                                rng.uniform_int(1, 200)));
    try {
      calibrate::parse_calibration(garbage);
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeded,
                         ::testing::Range<std::uint64_t>(0, 6));

// ---- mutation fuzzing ---------------------------------------------------------
//
// Pure garbage rarely gets past the first token, so it exercises only
// the surface of each parser. Mutating a VALID document reaches the
// deep paths: directives with a corrupted attribute, truncated bodies,
// duplicated sections, numbers with a flipped digit. Every mutated
// input must either parse or raise paradigm::Error — any other
// exception (or a crash/hang) fails the test.

std::string mutate(Rng& rng, std::string s) {
  const std::int64_t ops = rng.uniform_int(1, 4);
  for (std::int64_t k = 0; k < ops; ++k) {
    if (s.empty()) break;
    const auto size = static_cast<std::int64_t>(s.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:  // flip one byte to a random printable character
        s[static_cast<std::size_t>(rng.uniform_int(0, size - 1))] =
            static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:  // delete a span
        s.erase(static_cast<std::size_t>(rng.uniform_int(0, size - 1)),
                static_cast<std::size_t>(rng.uniform_int(1, 24)));
        break;
      case 2: {  // duplicate a span in place
        const auto at =
            static_cast<std::size_t>(rng.uniform_int(0, size - 1));
        const std::size_t len =
            std::min(static_cast<std::size_t>(rng.uniform_int(1, 24)),
                     s.size() - at);
        s.insert(at, s.substr(at, len));
        break;
      }
      case 3:  // splice in garbage
        s.insert(static_cast<std::size_t>(rng.uniform_int(0, size)),
                 random_garbage(
                     rng, static_cast<std::size_t>(rng.uniform_int(1, 12))));
        break;
      case 4:  // truncate
        s.resize(static_cast<std::size_t>(rng.uniform_int(0, size - 1)));
        break;
    }
  }
  return s;
}

const std::string& valid_mdg_text() {
  static const std::string text =
      mdg::write_mdg(core::complex_matmul_mdg(16));
  return text;
}

const std::string& valid_mexpr_text() {
  static const std::string text = R"(
input A 16 16 1
input B 16 16 2
S = A + B
P = S * B
output P
)";
  return text;
}

const std::string& valid_params_text() {
  static const std::string text = [] {
    cost::KernelCostTable table;
    table.set(cost::KernelKey{mdg::LoopOp::kMul, 16, 16, 16},
              cost::AmdahlParams{0.05, 0.01});
    table.set(cost::KernelKey{mdg::LoopOp::kAdd, 16, 16, 0},
              cost::AmdahlParams{0.02, 0.001});
    return calibrate::write_calibration(
        calibrate::CalibrationBundle{cost::MachineParams{}, table});
  }();
  return text;
}

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, MdgTextParserDiagnosesMutations) {
  Rng rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string mutated = mutate(rng, valid_mdg_text());
    try {
      mdg::parse_mdg(mutated);
    } catch (const Error&) {
      // Diagnosed with a paradigm::Error — the contract.
    }
  }
}

TEST_P(MutationFuzz, ExpressionParserDiagnosesMutations) {
  Rng rng(GetParam() * 7919 + 131);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string mutated = mutate(rng, valid_mexpr_text());
    try {
      frontend::compile_source(mutated);
    } catch (const Error&) {
    }
  }
}

TEST_P(MutationFuzz, CalibrationParserDiagnosesMutations) {
  Rng rng(GetParam() * 7919 + 1313);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string mutated = mutate(rng, valid_params_text());
    try {
      calibrate::parse_calibration(mutated);
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

// ---- frontend Strassen source ------------------------------------------------------

TEST(FrontendPrograms, StrassenSourceMatchesDirectProduct) {
  // The .mexpr Strassen with the same quadrant tags as the hand-built
  // program must reproduce strassen_reference exactly.
  std::string source = R"(
input A11 16 16 201
input A12 16 16 202
input A21 16 16 203
input A22 16 16 204
input B11 16 16 205
input B12 16 16 206
input B21 16 16 207
input B22 16 16 208
M1 = (A11 + A22) * (B11 + B22)
M2 = (A21 + A22) * B11
M3 = A11 * (B12 - B22)
M4 = A22 * (B21 - B11)
M5 = (A11 + A12) * B22
M6 = (A21 - A11) * (B11 + B12)
M7 = (A12 - A22) * (B21 + B22)
C11 = M1 + M4 - M5 + M7
C12 = M3 + M5
C21 = M2 + M4
C22 = M1 - M2 + M3 + M6
output C11
output C22
)";
  const auto env = frontend::interpret_source(source);
  const auto ref = core::strassen_reference(32);  // h = 16 quadrants
  EXPECT_LT(env.at("C11").max_abs_diff(ref.c11), 1e-11);
  EXPECT_LT(env.at("C22").max_abs_diff(ref.c22), 1e-11);
}

// ---- simulator bounds ---------------------------------------------------------------

TEST(SimulatorBounds, ProgramWiderThanMachineRejected) {
  sim::MachineConfig mc;
  mc.size = 2;
  sim::Simulator simulator(mc);
  EXPECT_THROW(simulator.run(sim::MpmdProgram(4)), Error);
}

TEST(SimulatorBounds, GroupRankOutsideMachineRejected) {
  sim::MachineConfig mc;
  mc.size = 2;
  sim::MpmdProgram program(2);
  sim::GroupKernel kernel;
  kernel.node = 0;
  kernel.op = mdg::LoopOp::kSynthetic;
  kernel.cost_override = 1.0;
  kernel.group = {0, 7};  // rank 7 does not exist
  program.streams[0].push_back(kernel);
  sim::Simulator simulator(mc);
  EXPECT_THROW(simulator.run(program), Error);
}

// ---- solver gradient-scale regression ------------------------------------------
//
// A zero-cost graph makes the smoothed objective identically zero, so
// the old relative gradient normalization divided by ~0 and produced
// NaN steps. The fix floors the scale at 1e-12 (and substitutes the
// floor outright when the objective is non-finite); a flat objective
// must now yield a finite allocation with Phi = 0, not NaN.

TEST(SolverRegression, FlatObjectiveNeverProducesNaN) {
  mdg::Mdg graph;
  std::vector<mdg::NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(
        graph.add_synthetic("flat" + std::to_string(i), 0.0, 0.0));
  }
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    graph.add_synthetic_dependence(nodes[i], nodes[i + 1], 0);
  }
  graph.finalize();
  // Zero machine parameters too: every cost term vanishes.
  cost::MachineParams zero_machine;
  zero_machine.t_ss = zero_machine.t_ps = zero_machine.t_sr =
      zero_machine.t_pr = zero_machine.t_n = 0.0;
  const cost::CostModel model(graph, zero_machine,
                              cost::KernelCostTable{});
  const auto result = solver::ConvexAllocator{}.allocate(model, 16.0);
  EXPECT_TRUE(result.finite()) << result.summary();
  EXPECT_EQ(result.phi, 0.0);
  for (const double a : result.allocation) {
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_GE(a, 1.0);
    EXPECT_LE(a, 16.0);
  }
}

TEST(SolverRegression, FlatObjectiveStaysFiniteWithoutTrippingTheGuard) {
  // The gscale floor is part of the descent arithmetic, not the guard
  // layer: on a zero-cost flat objective the iterates must stay finite
  // on their own. A kNonFinite status would mean the finite guard
  // caught a poisoned iterate that the floor should have prevented.
  mdg::Mdg graph;
  const auto a = graph.add_synthetic("a", 0.0, 0.0);
  const auto b = graph.add_synthetic("b", 0.0, 0.0);
  graph.add_synthetic_dependence(a, b, 0);
  graph.finalize();
  cost::MachineParams zero_machine;
  zero_machine.t_ss = zero_machine.t_ps = zero_machine.t_sr =
      zero_machine.t_pr = zero_machine.t_n = 0.0;
  const cost::CostModel model(graph, zero_machine,
                              cost::KernelCostTable{});
  const auto result = solver::ConvexAllocator{}.allocate(model, 8.0);
  EXPECT_TRUE(result.finite()) << result.summary();
  EXPECT_NE(result.status, solver::SolveStatus::kNonFinite)
      << result.summary();
}

// ---- fuzz-corpus replay ---------------------------------------------------------
//
// Every seed in tests/fuzz_corpus/seeds.txt (one representative per
// pathological shape class plus any seed a past fuzz run flagged) is
// replayed through the full pipeline under the default degradation
// policy. The release contract must hold for each: no throw, finite
// allocation, valid schedule, finite makespan, documented exit code.

std::vector<std::uint64_t> corpus_seeds() {
  std::vector<std::uint64_t> seeds;
  std::ifstream in(std::string(PARADIGM_FUZZ_CORPUS_DIR) + "/seeds.txt");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    if (fields >> seed) seeds.push_back(seed);
  }
  return seeds;
}

TEST(FuzzCorpus, EverySeedHoldsTheReleaseContract) {
  const std::vector<std::uint64_t> seeds = corpus_seeds();
  ASSERT_GE(seeds.size(), 10u) << "corpus file missing or unreadable";

  core::PipelineConfig config;
  config.processors = 8;
  config.machine.size = 8;
  config.machine.noise_sigma = 0.0;
  config.preset_calibration = calibrate::CalibrationBundle{
      cost::MachineParams{}, cost::KernelCostTable{}};
  config.solver.continuation_rounds = 2;
  config.solver.max_inner_iterations = 60;
  config.solver.work_unit_budget = 400;
  const core::Compiler compiler(config);

  for (const std::uint64_t seed : seeds) {
    std::string shape;
    const mdg::Mdg graph = mdg::pathological_mdg(seed, &shape);
    core::PipelineReport report;
    ASSERT_NO_THROW(report = compiler.compile_and_run(graph))
        << "seed " << seed << " (" << shape << ")";
    for (const double p_i : report.allocation.allocation) {
      ASSERT_TRUE(std::isfinite(p_i) && p_i >= 1.0)
          << "seed " << seed << " (" << shape << ") p_i=" << p_i;
    }
    ASSERT_TRUE(report.psa.has_value()) << "seed " << seed;
    EXPECT_TRUE(std::isfinite(report.psa->finish_time) &&
                report.psa->finish_time >= 0.0)
        << "seed " << seed << " (" << shape << ")";
    const auto scan = cost::sanitize_inputs(graph, cost::MachineParams{},
                                            cost::KernelCostTable{});
    const cost::CostModel model(graph, cost::MachineParams{},
                                cost::KernelCostTable{},
                                scan.needs_repair
                                    ? cost::ParamPolicy::kSanitize
                                    : cost::ParamPolicy::kStrict);
    EXPECT_NO_THROW(report.psa->schedule.validate(model))
        << "seed " << seed;
    const int code = degrade::exit_code(report.degradation);
    EXPECT_TRUE(code == 0 || (code >= 10 && code <= 15))
        << "seed " << seed << " code " << code;
  }
}

TEST(SimulatorBounds, SendOutsideMachineRejected) {
  sim::MachineConfig mc;
  mc.size = 2;
  sim::MpmdProgram program(2);
  program.streams[0].push_back(
      sim::AllocBlock{"X", sim::BlockRect{{0, 2}, {0, 2}}});
  program.streams[0].push_back(
      sim::SendBlock{9, 1, "X", sim::BlockRect{{0, 2}, {0, 2}}});
  sim::Simulator simulator(mc);
  EXPECT_THROW(simulator.run(program), Error);
}

// ---- corrupted-journal corpus ------------------------------------------------
//
// Every seed in tests/fuzz_corpus/wal_seeds.txt drives a deterministic
// bit-flip pass over a completed service journal; recovery from the
// corrupted copy must either fail with a structured Error/UsageError
// or succeed via salvage — and when it succeeds, re-offering the full
// corpus must reproduce the crash-free ledger byte for byte. A raw
// crash, a hang, or a silently divergent ledger is the bug class this
// corpus locks out (DESIGN §12).

namespace fs = std::filesystem;

svc::ServiceConfig wal_fuzz_config() {
  svc::ServiceConfig config;
  config.pipeline.calibration_mode = core::CalibrationMode::kStatic;
  config.pipeline.machine.size = 8;
  config.pipeline.machine.noise_sigma = 0.0;
  config.pipeline.solver.max_inner_iterations = 10;
  config.pipeline.solver.continuation_rounds = 1;
  config.default_deadline = 200000;
  config.slots = 2;
  return config;
}

std::vector<svc::JobSpec> wal_fuzz_corpus() {
  std::vector<svc::JobSpec> jobs;
  for (std::size_t i = 0; i < 10; ++i) {
    svc::JobSpec spec;
    spec.id = "f";
    spec.id += std::to_string(i);
    spec.seed = 40 + i;
    spec.nodes = 6 + (i % 3);
    spec.processors = (i == 4) ? 5 : 8;  // One hard failure in the mix.
    spec.arrival = i * 10;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

svc::ServiceReport run_wal_fuzz_service(svc::Persistence* persist) {
  svc::Service service(wal_fuzz_config());
  for (svc::JobSpec& spec : wal_fuzz_corpus()) service.submit(std::move(spec));
  service.drain_at(2000, 100000);
  if (persist != nullptr) service.attach_persistence(persist);
  return service.run();
}

std::vector<std::uint64_t> wal_corpus_seeds() {
  std::vector<std::uint64_t> seeds;
  std::ifstream in(std::string(PARADIGM_FUZZ_CORPUS_DIR) + "/wal_seeds.txt");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    if (fields >> seed) seeds.push_back(seed);
  }
  return seeds;
}

TEST(WalFuzzCorpus, BitFlippedJournalsRecoverStructurally) {
  const fs::path root =
      fs::temp_directory_path() / "robustness_wal_fuzz";
  fs::remove_all(root);
  fs::create_directories(root);

  // Crash-free baseline: the ledger every successful salvage must
  // reproduce, and the journal bytes every seed perturbs.
  const std::string expected = run_wal_fuzz_service(nullptr).ledger();
  const fs::path clean_dir = root / "clean";
  {
    svc::PersistConfig pc;
    pc.dir = clean_dir.string();
    pc.snapshot_every = 0;  // Pure journal: every byte is a record byte.
    svc::Persistence persist(pc);
    ASSERT_EQ(run_wal_fuzz_service(&persist).ledger(), expected);
  }
  std::string clean_bytes;
  {
    std::ifstream in(clean_dir / "journal.wal", std::ios::binary);
    clean_bytes.assign((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  ASSERT_GT(clean_bytes.size(), 64u);

  const std::vector<std::uint64_t> seeds = wal_corpus_seeds();
  ASSERT_GE(seeds.size(), 12u) << "wal corpus file missing or unreadable";

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("wal seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::string corrupted = clean_bytes;
    const std::size_t flips = 1 + seed % 3;
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte = rng() % corrupted.size();
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1u << (rng() % 8)));
    }

    const fs::path dir = root / ("seed-" + std::to_string(seed));
    fs::create_directories(dir);
    {
      std::ofstream out(dir / "journal.wal",
                        std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }

    svc::PersistConfig pc;
    pc.dir = dir.string();
    pc.recover = true;
    pc.snapshot_every = 0;
    try {
      svc::Persistence persist(pc);
      // Salvaged open: the surviving prefix plus the re-offered corpus
      // must land exactly on the crash-free ledger.
      const svc::ServiceReport recovered = run_wal_fuzz_service(&persist);
      EXPECT_EQ(recovered.ledger(), expected);
      std::set<std::string> exec_keys;
      for (const std::string& record :
           wal::read_journal(persist.journal_path()).records) {
        if (record.rfind("exec ", 0) != 0) continue;
        std::istringstream in(record);
        std::string tag, index, attempt;
        in >> tag >> index >> attempt;
        EXPECT_TRUE(exec_keys.insert(index + "/" + attempt).second)
            << "duplicate exec digest after salvage: " << record;
      }
    } catch (const UsageError&) {
      // Structured rejection (e.g. a flipped format-version byte).
    } catch (const Error&) {
      // Structured rejection (e.g. a flipped header magic byte).
    }
    fs::remove_all(dir);
  }
  fs::remove_all(root);
}

// Every corpus seed also drives a deterministic *storage fault* pass
// (DESIGN §14): the seed picks a fault family — clean ENOSPC, a torn
// short write, or a byte-budget device that tears at capacity — and a
// trigger point inside the run. The service must either finish or
// quarantine with a structured StorageError (never crash or hang), and
// recovery on the healed device must reproduce the crash-free ledger
// byte for byte with no duplicated exec digest.
TEST(WalFuzzCorpus, InjectedStorageFaultsQuarantineThenRecover) {
  const fs::path root = fs::temp_directory_path() / "robustness_storage_fuzz";
  fs::remove_all(root);
  fs::create_directories(root);

  const std::string expected = run_wal_fuzz_service(nullptr).ledger();
  const std::vector<std::uint64_t> seeds = wal_corpus_seeds();
  ASSERT_GE(seeds.size(), 12u) << "wal corpus file missing or unreadable";

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("storage seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    vfs::FaultPlan plan;
    switch (seed % 3) {
      case 0:  // Device full, nothing partial on disk.
        plan.fail_append_after = 5 + static_cast<std::int64_t>(rng() % 60);
        plan.append_fault = vfs::FaultKind::kEnospc;
        plan.short_write_fraction = 0.0;
        break;
      case 1:  // Short write: a torn record tail to salvage.
        plan.fail_append_after = 5 + static_cast<std::int64_t>(rng() % 60);
        plan.append_fault = vfs::FaultKind::kShortWrite;
        break;
      default:  // Byte-budget device: tears wherever the budget lands.
        plan.capacity_bytes = 600 + rng() % 4000;
        break;
    }
    vfs::FaultyVfs faulty(vfs::Vfs::real(), plan);

    const fs::path dir = root / ("seed-" + std::to_string(seed));
    bool quarantined = false;
    {
      svc::PersistConfig pc;
      pc.dir = dir.string();
      pc.snapshot_every = 0;
      pc.fs = &faulty;
      svc::Persistence persist(pc);
      try {
        run_wal_fuzz_service(&persist);
      } catch (const vfs::StorageError& e) {
        quarantined = true;
        EXPECT_TRUE(persist.stats().quarantined) << e.what();
      }
    }

    // The device "heals" (space freed / transient EIO gone): recovery
    // through the real backend replays the durable prefix, re-offers
    // the corpus, and must land exactly on the crash-free ledger.
    svc::PersistConfig rc;
    rc.dir = dir.string();
    rc.recover = true;
    rc.snapshot_every = 0;
    svc::Persistence recovered(rc);
    EXPECT_EQ(run_wal_fuzz_service(&recovered).ledger(), expected)
        << (quarantined ? "after quarantine" : "after clean run");
    std::set<std::string> exec_keys;
    for (const std::string& record :
         wal::read_journal(recovered.journal_path()).records) {
      if (record.rfind("exec ", 0) != 0) continue;
      std::istringstream in(record);
      std::string tag, index, attempt;
      in >> tag >> index >> attempt;
      EXPECT_TRUE(exec_keys.insert(index + "/" + attempt).second)
          << "duplicate exec digest after storage-fault recovery: " << record;
    }
    fs::remove_all(dir);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace paradigm
