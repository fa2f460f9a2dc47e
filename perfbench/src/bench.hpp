// Shared vocabulary of the benchmark: options, what a workload
// run measured, and the small statistics helpers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stages.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Scratch directory inside the checkout (service journals).
  std::string workdir;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_out;
  /// Self-test fault: "perturb-reference" or "truncate-journal".
  std::string inject;
};

/// Totals from traced jobs (stage driver runs), summed over the run.
struct LayerTotals {
  std::size_t jobs = 0;
  std::array<double, kLayers> ms{};  ///< Per-layer span time.
  double job_ms = 0.0;               ///< Job spans.
  double untraced_ms = 0.0;  ///< compile_and_run on the same jobs.
  std::size_t solver_iterations = 0;
  std::size_t converged = 0;
  std::size_t instructions = 0;
  std::size_t messages = 0;
  double payload_bytes = 0.0;
  double blocked_s = 0.0;
  double rank_s = 0.0;

  void add(const StageResult& r) {
    solver_iterations += r.solver_iterations;
    converged += r.solver_converged ? 1 : 0;
    instructions += r.instructions;
    messages += r.messages;
    payload_bytes += static_cast<double>(r.payload_bytes);
    blocked_s += r.blocked_s;
    rank_s += r.rank_s;
  }
};

/// Service and journal counters (service_replay only; zero elsewhere).
struct ServiceTotals {
  double round_ms = 0.0;  ///< Wall time of the Service::run rounds.
  std::size_t pipeline_runs = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
  std::size_t coalesced = 0;
  std::size_t retries = 0;
  std::size_t rounds = 0;
  double wal_records = 0.0;
  double wal_syncs = 0.0;
  double journal_bytes = 0.0;
  std::vector<double> recover_ms;
};

/// Everything one workload run measured and checked.
struct Measurement {
  std::vector<double> setup_s;     ///< One value per repeated set-up.
  double timed_s = 0.0;            ///< Sum of the timed job intervals.
  std::size_t jobs = 0;            ///< Jobs finished in the timed phase.
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< Threw, failed a check, or bad outcome.
  std::size_t degraded = 0;        ///< Ended on a recovery rung.
  std::vector<double> latency_ms;  ///< Samples behind job_ms_p50/p90.
  double job_ms_p50 = 0.0;
  double job_ms_p90 = 0.0;
  double speedup_geomean = 0.0;       ///< Serial / MPMD (simulated).
  double mpmd_over_spmd_geomean = 0.0;  ///< SPMD / MPMD (simulated).
  std::vector<std::string> errors;    ///< First few check failures.
  LayerTotals layers;
  ServiceTotals service;

  /// Records a failed check; keeps the first few messages for stderr.
  void fail(std::size_t jobs_affected, const std::string& what) {
    failed += jobs_affected;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 if empty.
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);
double median(const std::vector<double>& values);
/// Seconds since an arbitrary steady origin.
double now_s();

Measurement run_paper_programs(const Options& options);
Measurement run_mdg_stream(const Options& options);
Measurement run_service_replay(const Options& options);

}  // namespace perfbench
