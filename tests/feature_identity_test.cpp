// Feature-off vs feature-on identity on larger workloads than the unit
// tests run; each case also asserts the feature ran, so no comparison
// is vacuous. Wall-time costs are measured by perfbench/.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "codegen/mpmd.hpp"
#include "cost/model.hpp"
#include "mdg/random_mdg.hpp"
#include "obs/obs.hpp"
#include "sched/psa.hpp"
#include "sim/simulator.hpp"
#include "solver/allocator.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "svc/persist.hpp"
#include "svc/service.hpp"

namespace paradigm {
namespace {

namespace fs = std::filesystem;

constexpr double kProcessors = 64.0;

solver::ConvexAllocatorConfig light_solver(std::size_t starts) {
  return {.continuation_rounds = 3, .max_inner_iterations = 120,
          .num_starts = starts};
}

sim::MachineConfig noisy_machine(std::uint64_t seed) {
  return {.size = 64, .noise_sigma = 0.02, .noise_seed = 0x1994 + seed};
}

class FeatureIdentity : public ::testing::Test {
 protected:
  /// The MPMD program of a light single-start allocation of graph_.
  codegen::GeneratedProgram generated_program() const {
    const solver::AllocationResult alloc =
        solver::ConvexAllocator(light_solver(1)).allocate(model_, kProcessors);
    const sched::PsaResult psa = sched::prioritized_schedule(
        model_, alloc.allocation, static_cast<std::uint64_t>(kProcessors));
    return codegen::generate_mpmd(graph_, psa.schedule);
  }

  void TearDown() override {
    set_thread_count(1);
    obs::set_mode(obs::Mode::kOff);
    obs::reset_all();
  }

  const mdg::Mdg graph_ = [] {
    Rng rng(128 * 977 + 5);
    mdg::RandomMdgConfig config;
    config.min_nodes = config.max_nodes = 128;
    config.max_width = 8;
    return mdg::random_mdg(rng, config);
  }();
  const cost::CostModel model_{graph_, cost::MachineParams{},
                               cost::KernelCostTable{}};
};

TEST_F(FeatureIdentity, MultiStartAllocationIsThreadCountInvariant) {
  const solver::ConvexAllocator allocator(light_solver(8));
  set_thread_count(1);
  const solver::AllocationResult serial = allocator.allocate(model_, kProcessors);
  set_thread_count(4);
  const solver::AllocationResult pooled = allocator.allocate(model_, kProcessors);
  EXPECT_EQ(serial.allocation, pooled.allocation);
  EXPECT_EQ(serial.phi, pooled.phi);
}

TEST_F(FeatureIdentity, NoiseSweepIsThreadCountInvariant) {
  const codegen::GeneratedProgram generated = generated_program();
  const auto sweep = [&] {
    return parallel_map<sim::SimResult>(4, [&](std::size_t s) {
      return sim::Simulator(noisy_machine(s)).run(generated.program);
    });
  };
  set_thread_count(1);
  const std::vector<sim::SimResult> serial = sweep();
  set_thread_count(4);
  EXPECT_EQ(serial, sweep());
  // Distinct seeds draw distinct noise: four runs, not one run copied.
  EXPECT_NE(serial[0].finish_time, serial[1].finish_time);
}

TEST_F(FeatureIdentity, ObservabilityNeverChangesTheAllocation) {
  const solver::ConvexAllocator allocator(light_solver(1));
  const solver::AllocationResult off = allocator.allocate(model_, kProcessors);
  obs::set_mode(obs::Mode::kLogical);
  const solver::AllocationResult on = allocator.allocate(model_, kProcessors);
  EXPECT_FALSE(obs::Tracer::global().sorted_spans().empty());
  EXPECT_EQ(off.allocation, on.allocation);
  EXPECT_EQ(off.phi, on.phi);
}

TEST_F(FeatureIdentity, ObservabilityNeverChangesTheNoisySimulation) {
  const codegen::GeneratedProgram generated = generated_program();
  const obs::Counter& instructions =
      obs::Registry::global().counter("sim.instructions");
  const sim::SimResult off = sim::Simulator(noisy_machine(0)).run(generated.program);
  EXPECT_EQ(instructions.value(), 0u);
  obs::set_mode(obs::Mode::kLogical);
  const sim::SimResult on = sim::Simulator(noisy_machine(0)).run(generated.program);
  EXPECT_GT(instructions.value(), 0u);
  EXPECT_EQ(off, on);
}

/// 200 cheap jobs (service machinery dominates) in two classes on two
/// machine sizes, every sixteenth oversized and rejected at admission.
/// Seeds are distinct, so no two jobs share a canonical digest.
svc::ServiceReport run_mixed(svc::Persistence* persist,
                             std::uint64_t budget_bytes, bool cache = false) {
  svc::ServiceConfig config;
  config.pipeline.calibration_mode = core::CalibrationMode::kStatic;
  config.pipeline.machine.size = 8;
  config.pipeline.machine.noise_sigma = 0.0;
  config.pipeline.solver.max_inner_iterations = 10;
  config.pipeline.solver.continuation_rounds = 1;
  config.default_deadline = 1000000;
  config.queue_capacity = 64;
  config.slots = 4;
  config.memory.budget_bytes = budget_bytes;
  config.cache.enabled = cache;
  svc::Service service(config);
  for (std::size_t i = 0; i < 200; ++i) {
    svc::JobSpec spec;
    spec.id = "w" + std::to_string(i);
    spec.seed = 5000 + i;
    spec.arrival = i * 5;
    spec.nodes = (i % 16 == 9) ? 4096 : 6 + (i % 4);
    spec.processors = (i % 3 == 0) ? 4 : 8;
    spec.job_class = (i % 5 == 0) ? "alt" : "default";
    service.submit(std::move(spec));
  }
  if (persist != nullptr) service.attach_persistence(persist);
  return service.run();
}

/// Runs the mixed corpus journaled under `policy`, snapshotting every
/// 64 digests; returns the ledger and the journal's stats.
std::pair<std::string, svc::PersistStats> run_journaled(
    wal::SyncPolicy policy) {
  const fs::path dir = fs::temp_directory_path() /
                       ("feature_identity_test_" + std::string(to_string(policy)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::pair<std::string, svc::PersistStats> out;
  {
    svc::PersistConfig pc;
    pc.dir = dir.string();
    pc.sync_policy = policy;
    svc::Persistence persist(pc);
    out = {run_mixed(&persist, 0).ledger(), persist.stats()};
  }
  fs::remove_all(dir);
  return out;
}

TEST(MixedCorpus, JournalingWithSnapshotsDoesNotChangeTheLedger) {
  const auto [ledger, stats] = run_journaled(wal::SyncPolicy::kNever);
  EXPECT_EQ(ledger, run_mixed(nullptr, 0).ledger());
  EXPECT_GT(stats.appended_records, 0u);
  EXPECT_GT(stats.snapshots_written, 0u);
  EXPECT_EQ(stats.journal_syncs, 0u);
}

TEST(MixedCorpus, BatchSyncDoesNotChangeTheLedger) {
  const auto [ledger, stats] = run_journaled(wal::SyncPolicy::kBatch);
  EXPECT_EQ(ledger, run_mixed(nullptr, 0).ledger());
  EXPECT_GT(stats.journal_syncs, 0u);
}

TEST(MixedCorpus, GenerousBudgetDoesNotChangeTheLedger) {
  const svc::ServiceReport base = run_mixed(nullptr, 0);
  const svc::ServiceReport budgeted = run_mixed(nullptr, std::uint64_t{1} << 40);
  ASSERT_GT(base.rejected, 0u);
  EXPECT_EQ(budgeted.ledger(), base.ledger());
  EXPECT_EQ(base.mem_charges, 0u);
  EXPECT_GT(budgeted.mem_peak, 0u);
  EXPECT_GT(budgeted.mem_charges, 0u);
  EXPECT_EQ(budgeted.brownouts + budgeted.over_memory, 0u);
}

TEST(MixedCorpus, CacheIsInvisibleWhenEveryJobMisses) {
  const svc::ServiceReport off = run_mixed(nullptr, 0);
  const svc::ServiceReport on = run_mixed(nullptr, 0, /*cache=*/true);
  EXPECT_EQ(on.ledger(), off.ledger());
  EXPECT_EQ(off.cache_hits + off.cache_misses, 0u);
  EXPECT_EQ(on.cache_hits + on.coalesced, 0u);
  EXPECT_EQ(on.cache_misses, off.pipeline_runs);
  EXPECT_EQ(on.pipeline_runs, off.pipeline_runs);
}

}  // namespace
}  // namespace paradigm
