// The three workloads. Each runs a closed loop from one calling thread:
// the next job starts only after the previous one returned and was
// checked. Job intervals are timed; set-up and output checks are not.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "codegen/mpmd.hpp"
#include "core/pipeline.hpp"
#include "core/programs.hpp"
#include "cost/sanitize.hpp"
#include "sched/psa.hpp"
#include "sim/simulator.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "svc/job.hpp"
#include "svc/persist.hpp"
#include "svc/service.hpp"

namespace perfbench {

using namespace paradigm;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/// Set-up is repeated and its median reported, so one slow page-in
/// does not decide setup_s. Each set-up ends with one untimed warm-up
/// job on a fixed input, so lazy initialisation and allocator growth
/// land in setup_s rather than in the first timed job.
constexpr int kSetupRepeats = 5;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The pipeline configuration one `paradigm_cli --p=<p>` invocation
/// builds with its defaults: CM-5 machine, noise 0.02 with seed 6500,
/// one solver start, degradation ladder on.
core::PipelineConfig cli_pipeline(std::uint64_t p, std::uint32_t machine_size,
                                  core::CalibrationMode mode) {
  core::PipelineConfig config;
  config.processors = p;
  config.machine = sim::MachineConfig::cm5(machine_size);
  config.machine.noise_sigma = 0.02;
  config.machine.noise_seed = 6500;
  config.solver.num_starts = 1;
  config.calibration_mode = mode;
  return config;
}

/// Runs the stage driver on a job compile_and_run just finished, checks
/// it reproduces the report bit for bit, and adds it to the layer split.
void trace_job(const core::PipelineConfig& config, const mdg::Mdg& graph,
               const std::string& input, const core::PipelineReport& report,
               double untraced_ms, Tracer& tracer, Measurement& m) {
  const std::uint64_t job = m.layers.jobs;
  const StageResult r = run_stages(config, graph, tracer, job, input);
  if (!same_bits(r.phi, report.phi()) || !same_bits(r.t_psa, report.t_psa()) ||
      !same_bits(r.mpmd_simulated, report.mpmd.simulated)) {
    std::ostringstream os;
    os << "trace fidelity: stage driver Phi/T_psa/MPMD " << r.phi << "/"
       << r.t_psa << "/" << r.mpmd_simulated << " vs compile_and_run "
       << report.phi() << "/" << report.t_psa() << "/"
       << report.mpmd.simulated;
    m.fail(1, os.str());
  }
  ++m.layers.jobs;
  m.layers.untraced_ms += untraced_ms;
  m.layers.add(r);
}

/// Folds the recorded spans into per-layer totals and writes them out.
void finish_trace(const Tracer& tracer, const Options& options,
                  Measurement& m) {
  for (const Span& s : tracer.spans()) {
    const double ms = (s.end_us - s.start_us) / 1e3;
    if (s.layer < 0) {
      m.layers.job_ms += ms;
    } else {
      m.layers.ms[static_cast<std::size_t>(s.layer)] += ms;
    }
  }
  if (!options.trace_out.empty()) tracer.write_json(options.trace_out);
}

/// The simulated-execution checks every job's outputs must pass.
bool executions_sound(const core::PipelineReport& report) {
  const auto sound = [](const core::ExecutionOutcome& e) {
    return !e.run.aborted && std::isfinite(e.simulated) && e.simulated > 0.0;
  };
  return report.psa.has_value() && report.spmd.has_value() &&
         sound(report.mpmd) && sound(report.spmd_run) &&
         std::isfinite(report.serial_seconds) && report.serial_seconds > 0.0;
}

// ---- paper_programs --------------------------------------------------

struct PaperConfig {
  const char* name;
  bool strassen;
  std::uint64_t p;
};
constexpr std::array<PaperConfig, 4> kPaperConfigs = {{
    {"complex64_p16", false, 16},
    {"complex64_p64", false, 64},
    {"strassen128_p16", true, 16},
    {"strassen128_p64", true, 64},
}};
constexpr std::size_t kComplexN = 64;
constexpr std::size_t kStrassenN = 128;
constexpr double kMatrixTolerance = 1e-9;

struct PaperInputs {
  mdg::Mdg complex = core::complex_matmul_mdg(kComplexN);
  mdg::Mdg strassen = core::strassen_mdg(kStrassenN);
  core::ComplexMatmulReference complex_ref =
      core::complex_matmul_reference(kComplexN);
  core::StrassenReference strassen_ref = core::strassen_reference(kStrassenN);
};

/// Simulates the reported MPMD schedule again and compares the assembled
/// result matrices with the sequential reference.
double matrix_error(const PaperConfig& pc, const core::PipelineConfig& config,
                    const PaperInputs& in, const mdg::Mdg& graph,
                    const core::PipelineReport& report) {
  const codegen::GeneratedProgram generated =
      codegen::generate_mpmd(graph, report.psa->schedule);
  sim::Simulator simulator(config.machine);
  simulator.run(generated.program);
  double worst = 0.0;
  const auto compare = [&](const char* array, std::size_t n,
                           const Matrix& expected) {
    worst = std::max(
        worst, simulator.assemble_array(array, n, n).max_abs_diff(expected));
  };
  if (pc.strassen) {
    const std::size_t h = kStrassenN / 2;
    compare("C11", h, in.strassen_ref.c11);
    compare("C12", h, in.strassen_ref.c12);
    compare("C21", h, in.strassen_ref.c21);
    compare("C22", h, in.strassen_ref.c22);
  } else {
    compare("Cr", kComplexN, in.complex_ref.cr);
    compare("Ci", kComplexN, in.complex_ref.ci);
  }
  return worst;
}

// ---- mdg_stream ------------------------------------------------------

/// One cycle of the stream: node count and target p. Skewed small: seven
/// 8-node jobs, six 12-node jobs, three 16-24-node jobs, three 28-node
/// jobs and the large-node tail (128 nodes at p=16 and 48 nodes at p=64
/// in alternate cycles). The median falls inside the 12-node class and
/// the 90th percentile inside the 28-node class, not between two
/// classes, so neither jumps with one job's cost. Node counts are exact
/// and streams are consumed in whole cycles, so every run has the same
/// mix and seeds vary only the graphs' structure, costs and transfer
/// sizes.
struct StreamSlot {
  std::size_t nodes;
  std::uint64_t p;
};
constexpr std::array<StreamSlot, 20> kStreamCycle = {{
    {8, 16},  {8, 64},  {8, 16},  {8, 64},  {8, 16},  {8, 64},  {8, 16},
    {12, 64}, {12, 64}, {12, 64}, {12, 64}, {12, 64}, {12, 64}, {16, 16},
    {20, 64}, {24, 16}, {28, 64}, {28, 64}, {28, 64}, {0, 0},
}};
/// The p50/p90 of a run are read from at least this many jobs.
constexpr std::size_t kMinStreamJobs = 100;

/// Candidate graphs drawn per stream job; the median by transfer volume
/// is kept.
constexpr std::size_t kStreamDraws = 7;

double transfer_bytes(const mdg::Mdg& graph) {
  double bytes = 0.0;
  for (const mdg::Edge& e : graph.edges()) {
    bytes += static_cast<double>(e.total_bytes());
  }
  return bytes;
}

/// The k-th job of the stream. build_job_graph draws between half and
/// all of the declared nodes, so spec seeds are drawn from the job's own
/// stream until kStreamDraws graphs have exactly the slot's node count
/// (finalize() adds the START/STOP pair). Of those, the one with the
/// median transfer volume is the job: a job's cost follows its volume,
/// and the median keeps one seed's stream from being much heavier than
/// another's.
std::pair<svc::JobSpec, mdg::Mdg> stream_job(std::uint64_t seed,
                                             std::size_t k) {
  const std::size_t cycle = k / kStreamCycle.size();
  StreamSlot slot = kStreamCycle[k % kStreamCycle.size()];
  if (slot.nodes == 0) {
    slot = cycle % 2 == 0 ? StreamSlot{128, 16} : StreamSlot{48, 64};
  }
  svc::JobSpec spec;
  spec.id = "s" + std::to_string(k);
  spec.nodes = slot.nodes;
  spec.processors = slot.p;
  Rng draws = Rng(seed).stream(k);
  std::vector<std::pair<double, std::uint64_t>> candidates;
  while (candidates.size() < kStreamDraws) {
    spec.seed = draws.next_u64();
    const mdg::Mdg graph = svc::build_job_graph(spec);
    if (graph.node_count() == slot.nodes + 2) {
      candidates.emplace_back(transfer_bytes(graph), spec.seed);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  spec.seed = candidates[kStreamDraws / 2].second;
  return {spec, svc::build_job_graph(spec)};
}

// ---- service_replay --------------------------------------------------

/// Fixed template set: random MDGs of 8-32 declared nodes, p alternating
/// 16/64. Rank 1 of the Zipf law is template 0.
constexpr std::array<std::size_t, 8> kTemplateNodes = {8,  12, 16, 20,
                                                        24, 28, 32, 16};
constexpr std::uint64_t kTemplateSeed = 0x7e5f0;
/// Jobs per Service::run round: every template once plus Zipf draws.
constexpr std::size_t kRoundJobs = 32;
constexpr double kZipfExponent = 1.1;
/// The CLI's default --p: the machine every service job runs on.
constexpr std::uint32_t kServiceMachine = 64;

svc::JobSpec template_spec(std::size_t t) {
  svc::JobSpec spec;
  spec.seed = kTemplateSeed + t;
  spec.nodes = kTemplateNodes[t];
  spec.processors = t % 2 == 0 ? 16 : 64;
  return spec;
}

/// Template index of each job in the round, in submission order: every
/// template once in a fixed order (the cold misses, so each round does
/// the same pipeline work), then Zipf draws in seeded order.
std::vector<std::size_t> service_corpus(std::uint64_t seed) {
  std::vector<double> cdf(kTemplateNodes.size());
  double total = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  Rng rng(seed);
  std::vector<std::size_t> jobs;
  for (std::size_t t = 0; t < kTemplateNodes.size(); ++t) jobs.push_back(t);
  while (jobs.size() < kRoundJobs) {
    const double u = rng.uniform() * total;
    std::size_t r = 0;
    while (r + 1 < cdf.size() && cdf[r] < u) ++r;
    jobs.push_back(r);
  }
  return jobs;
}

/// `paradigm_cli --serve` defaults: trained calibration on a 64-node
/// CM-5, 2 slots, allocation cache on (1024 entries). The queue holds
/// the whole round, because every job of a replay arrives at time 0.
svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  config.queue_capacity = kRoundJobs;
  config.cache.enabled = true;
  config.cache.capacity = 1024;
  config.pipeline = cli_pipeline(kServiceMachine, kServiceMachine,
                                 core::CalibrationMode::kTrainingSets);
  return config;
}

svc::ServiceReport serve(const svc::ServiceConfig& config,
                         const std::vector<svc::JobSpec>& jobs,
                         svc::Persistence& persist) {
  svc::Service service(config);
  for (const svc::JobSpec& spec : jobs) service.submit(spec);
  service.attach_persistence(&persist);
  return service.run();
}

std::size_t outcome_total(const svc::ServiceReport& r) {
  return r.completed + r.degraded + r.rejected + r.shed + r.cancelled +
         r.failed + r.over_memory;
}

double dir_bytes(const fs::path& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

/// Self-test fault: cuts the journal (the largest file) in half.
void truncate_journal(const fs::path& dir) {
  fs::path largest;
  std::uintmax_t size = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.file_size() > size) {
      size = entry.file_size();
      largest = entry.path();
    }
  }
  if (!largest.empty()) fs::resize_file(largest, size / 2);
}

}  // namespace

Measurement run_paper_programs(const Options& options) {
  Measurement m;
  set_thread_count(1);
  std::optional<PaperInputs> in;
  std::vector<core::PipelineConfig> configs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    in.emplace();
    configs.clear();
    for (const PaperConfig& pc : kPaperConfigs) {
      configs.push_back(
          cli_pipeline(pc.p, static_cast<std::uint32_t>(pc.p),
                       core::CalibrationMode::kTrainingSets));
    }
    core::Compiler(configs[0]).compile_and_run(in->complex);
    m.setup_s.push_back(now_s() - t0);
  }
  if (options.inject == "perturb-reference") {
    in->complex_ref.cr.at(0, 0) += 1e-6;
    in->strassen_ref.c11.at(0, 0) += 1e-6;
  }

  Tracer tracer;
  struct Signature {
    double phi, t_psa, mpmd;
  };
  std::array<std::optional<Signature>, kPaperConfigs.size()> first;
  std::array<std::vector<double>, kPaperConfigs.size()> config_ms;
  std::vector<double> speedups, ratios;
  const std::size_t offset = options.seed % kPaperConfigs.size();
  const double start = now_s();
  for (std::size_t k = 0;
       now_s() - start < options.seconds || k % kPaperConfigs.size() != 0;
       ++k) {
    const std::size_t c = (offset + k) % kPaperConfigs.size();
    const PaperConfig& pc = kPaperConfigs[c];
    const mdg::Mdg& graph = pc.strassen ? in->strassen : in->complex;
    ++m.attempted;
    try {
      const double t0 = now_s();
      const core::Compiler compiler(configs[c]);
      const core::PipelineReport report = compiler.compile_and_run(graph);
      const double ms = (now_s() - t0) * 1e3;
      m.timed_s += ms / 1e3;
      ++m.jobs;
      m.latency_ms.push_back(ms);
      config_ms[c].push_back(ms);
      if (report.degraded()) ++m.degraded;

      if (!executions_sound(report)) {
        m.fail(1, std::string(pc.name) + ": aborted or non-finite execution");
        continue;
      }
      const Signature sig{report.phi(), report.t_psa(), report.mpmd.simulated};
      if (!first[c]) {
        first[c] = sig;
        speedups.push_back(report.mpmd_speedup());
        ratios.push_back(report.spmd_run.simulated / report.mpmd.simulated);
        const double err = matrix_error(pc, configs[c], *in, graph, report);
        if (!(err <= kMatrixTolerance)) {
          std::ostringstream os;
          os << pc.name << ": result matrices differ from the sequential "
             << "reference by " << err;
          m.fail(1, os.str());
        }
      } else if (!same_bits(sig.phi, first[c]->phi) ||
                 !same_bits(sig.t_psa, first[c]->t_psa) ||
                 !same_bits(sig.mpmd, first[c]->mpmd)) {
        m.fail(1, std::string(pc.name) +
                      ": repeat changed Phi, T_psa or the MPMD time");
      }
      if (options.trace) {
        trace_job(configs[c], graph, pc.name, report, ms, tracer, m);
      }
    } catch (const std::exception& e) {
      m.fail(1, std::string(pc.name) + ": " + e.what());
    }
  }
  std::vector<double> medians;
  for (const auto& samples : config_ms) {
    if (!samples.empty()) medians.push_back(median(samples));
  }
  m.job_ms_p50 = geomean(medians);
  m.job_ms_p90 = quantile(m.latency_ms, 0.9);
  m.speedup_geomean = geomean(speedups);
  m.mpmd_over_spmd_geomean = geomean(ratios);
  finish_trace(tracer, options, m);
  return m;
}

Measurement run_mdg_stream(const Options& options) {
  Measurement m;
  set_thread_count(1);
  // Inputs for the jobs a run usually reaches are made during set-up;
  // a run that goes further builds the rest between jobs, untimed.
  std::vector<svc::JobSpec> specs;
  std::vector<mdg::Mdg> graphs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    specs.clear();
    graphs.clear();
    for (std::size_t k = 0; k < kMinStreamJobs; ++k) {
      auto [spec, graph] = stream_job(options.seed, k);
      specs.push_back(std::move(spec));
      graphs.push_back(std::move(graph));
    }
    core::Compiler(cli_pipeline(16, 16, core::CalibrationMode::kStatic))
        .compile_and_run(svc::build_job_graph(template_spec(2)));
    m.setup_s.push_back(now_s() - t0);
  }

  Tracer tracer;
  std::vector<double> speedups, ratios;
  const double start = now_s();
  for (std::size_t k = 0;
       now_s() - start < options.seconds || k % kStreamCycle.size() != 0 ||
       (!options.trace && k < kMinStreamJobs);
       ++k) {
    if (k == specs.size()) {
      auto [spec, graph] = stream_job(options.seed, k);
      specs.push_back(std::move(spec));
      graphs.push_back(std::move(graph));
    }
    const svc::JobSpec& spec = specs[k];
    const mdg::Mdg& graph = graphs[k];
    ++m.attempted;
    try {
      const core::PipelineConfig config =
          cli_pipeline(spec.processors, static_cast<std::uint32_t>(spec.processors),
                       core::CalibrationMode::kStatic);
      const double t0 = now_s();
      const core::Compiler compiler(config);
      const core::PipelineReport report = compiler.compile_and_run(graph);
      const double ms = (now_s() - t0) * 1e3;
      m.timed_s += ms / 1e3;
      ++m.jobs;
      m.latency_ms.push_back(ms);
      if (report.degraded()) ++m.degraded;

      if (!executions_sound(report)) {
        m.fail(1, spec.id + ": aborted or non-finite execution");
        continue;
      }
      const degrade::Policy& policy = config.degradation;
      const bool repair =
          cost::sanitize_inputs(graph, report.fitted_machine,
                                report.kernel_table, policy)
              .needs_repair;
      const cost::CostModel model(
          graph, report.fitted_machine, report.kernel_table,
          repair ? cost::ParamPolicy::kSanitize : cost::ParamPolicy::kStrict,
          policy);
      const auto violations =
          sched::check_schedule_invariants(model, *report.psa, spec.processors);
      if (!violations.empty()) {
        m.fail(1, spec.id + ": schedule invariants failed\n" +
                      degrade::format_diagnostics(violations));
      }
      // Schedule quality is read from a fixed prefix of the stream, so
      // it depends on the seed only, never on how fast jobs ran.
      if (k < kMinStreamJobs) {
        speedups.push_back(report.mpmd_speedup());
        ratios.push_back(report.spmd_run.simulated / report.mpmd.simulated);
      }
      if (options.trace) trace_job(config, graph, spec.id, report, ms, tracer, m);
    } catch (const std::exception& e) {
      m.fail(1, spec.id + ": " + e.what());
    }
  }
  m.job_ms_p50 = quantile(m.latency_ms, 0.5);
  m.job_ms_p90 = quantile(m.latency_ms, 0.9);
  m.speedup_geomean = geomean(speedups);
  m.mpmd_over_spmd_geomean = geomean(ratios);
  finish_trace(tracer, options, m);
  return m;
}

Measurement run_service_replay(const Options& options) {
  Measurement m;
  const fs::path root = fs::path(options.workdir) / "service";
  const svc::ServiceConfig config = service_config();
  std::vector<svc::JobSpec> jobs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    set_thread_count(std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 2));
    fs::remove_all(root);
    fs::create_directories(root);
    jobs.clear();
    for (const std::size_t t : service_corpus(options.seed)) {
      jobs.push_back(template_spec(t));
      jobs.back().id = "j" + std::to_string(jobs.size() - 1);
    }
    core::PipelineConfig warm = config.pipeline;
    warm.processors = template_spec(0).processors;
    core::Compiler(warm).compile_and_run(svc::build_job_graph(template_spec(0)));
    m.setup_s.push_back(now_s() - t0);
  }

  std::optional<svc::ServiceReport> baseline;
  ServiceTotals& st = m.service;
  const double start = now_s();
  for (std::size_t round = 0;
       now_s() - start < options.seconds || round < 3; ++round) {
    const fs::path dir = root / ("round-" + std::to_string(round));
    fs::create_directories(dir);
    svc::PersistConfig pc;
    pc.dir = dir.string();
    m.attempted += jobs.size();
    try {
      const double t0 = now_s();
      const svc::ServiceReport report = [&] {
        svc::Persistence persist(pc);
        svc::ServiceReport r = serve(config, jobs, persist);
        st.wal_records += static_cast<double>(persist.stats().appended_records);
        st.wal_syncs += static_cast<double>(persist.stats().journal_syncs);
        return r;
      }();
      const double ms = (now_s() - t0) * 1e3;
      m.timed_s += ms / 1e3;
      m.jobs += jobs.size();
      m.latency_ms.push_back(ms / static_cast<double>(jobs.size()));
      ++st.rounds;
      st.round_ms += ms;
      st.pipeline_runs += report.pipeline_runs;
      st.cache_hits += report.cache_hits;
      st.cache_lookups += report.cache_hits + report.cache_misses;
      st.coalesced += report.coalesced;
      st.retries += report.retries;
      st.journal_bytes += dir_bytes(dir);
      m.degraded += report.degraded;

      std::size_t bad = 0;
      for (const svc::JobResult& r : report.results) {
        if (r.outcome != svc::JobOutcome::kCompleted &&
            r.outcome != svc::JobOutcome::kDegraded) {
          ++bad;
        }
      }
      if (bad > 0) m.fail(bad, "service: jobs ended outside completed/degraded");
      if (outcome_total(report) != report.results.size()) {
        m.fail(jobs.size(), "service: outcome counts do not sum to results");
      }
      if (!baseline) {
        baseline = report;
      } else if (report.ledger() != baseline->ledger()) {
        m.fail(jobs.size(), "service: ledger differs from the first round");
      }

      // Read path: recover the journal; it must reproduce the ledger
      // without running a single pipeline.
      if (options.inject == "truncate-journal") truncate_journal(dir);
      const double r0 = now_s();
      svc::PersistConfig rc = pc;
      rc.recover = true;
      svc::Persistence recovered(rc);
      const svc::ServiceReport replay =
          serve(config, recovered.recovered_jobs(), recovered);
      st.recover_ms.push_back((now_s() - r0) * 1e3);
      if (replay.ledger() != report.ledger() || replay.pipeline_runs != 0) {
        std::ostringstream os;
        os << "service: recovery replay ran " << replay.pipeline_runs
           << " pipelines and " << (replay.ledger() == report.ledger()
                                        ? "matched"
                                        : "did not match")
           << " the ledger";
        m.fail(jobs.size(), os.str());
      }
    } catch (const std::exception& e) {
      m.fail(jobs.size(), std::string("service: ") + e.what());
    }
    fs::remove_all(dir);
  }
  m.job_ms_p50 = quantile(m.latency_ms, 0.5);
  m.job_ms_p90 = quantile(m.latency_ms, 0.9);

  // Output check: each template compiled directly must give the Phi and
  // MPMD time the service reported. The direct run also supplies the
  // serial and SPMD times behind the speed-up metrics, taken over the
  // distinct templates.
  Tracer tracer;
  std::vector<double> speedup(kTemplateNodes.size());
  std::vector<double> ratio(kTemplateNodes.size());
  set_thread_count(1);
  for (std::size_t t = 0; t < kTemplateNodes.size() && baseline; ++t) {
    const svc::JobSpec spec = template_spec(t);
    // The round submits template t first as job t.
    const std::string id = "j" + std::to_string(t);
    const auto served = std::find_if(
        baseline->results.begin(), baseline->results.end(),
        [&](const svc::JobResult& r) { return r.id == id; });
    try {
      core::PipelineConfig pc = config.pipeline;
      pc.processors = spec.processors;
      const mdg::Mdg graph = svc::build_job_graph(spec);
      const double t0 = now_s();
      const core::Compiler compiler(pc);
      const core::PipelineReport report = compiler.compile_and_run(graph);
      const double ms = (now_s() - t0) * 1e3;
      if (served == baseline->results.end() ||
          !same_bits(served->phi, report.phi()) ||
          !same_bits(served->mpmd_simulated, report.mpmd.simulated) ||
          !executions_sound(report)) {
        m.fail(1, "service: " + id + " differs from a direct compile_and_run");
        continue;
      }
      speedup[t] = report.mpmd_speedup();
      ratio[t] = report.spmd_run.simulated / report.mpmd.simulated;
      if (options.trace) {
        trace_job(pc, graph, "t" + std::to_string(t), report, ms, tracer, m);
      }
    } catch (const std::exception& e) {
      m.fail(1, "service: " + id + ": " + e.what());
    }
  }
  m.speedup_geomean = geomean(speedup);
  m.mpmd_over_spmd_geomean = geomean(ratio);
  finish_trace(tracer, options, m);
  fs::remove_all(root);
  return m;
}

}  // namespace perfbench
