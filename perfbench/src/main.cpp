// perfbench: the repository's compile -> run benchmark.
//
//   perfbench --workload <paper_programs|mdg_stream|service_replay>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--trace-out <file>] [--inject <perturb-reference|
//             truncate-journal>]
//
// Prints every metric by name with its unit, then, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the stage driver beside every job and reports the per-layer split.
// Exit 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(const Measurement& m) {
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"jobs_per_s", ratio(static_cast<double>(m.jobs), m.timed_s), "1/s"},
      {"job_ms_p50", m.job_ms_p50, "ms"},
      {"job_ms_p90", m.job_ms_p90, "ms"},
      {"mpmd_speedup_geomean", m.speedup_geomean, "x"},
      {"mpmd_over_spmd_geomean", m.mpmd_over_spmd_geomean, "x"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Measurement& m) {
  const LayerTotals& l = m.layers;
  const ServiceTotals& s = m.service;
  const auto jobs = static_cast<double>(l.jobs);
  const auto rounds = static_cast<double>(s.rounds);
  const auto per_job = [&](double v) { return ratio(v, jobs); };
  double attributed = 0.0;
  for (const double ms : l.ms) attributed += ms;
  return {
      {"calibrate.ms_per_job", per_job(l.ms[kCalibrate]), "ms"},
      {"cost.ms_per_job", per_job(l.ms[kCost]), "ms"},
      {"solver.ms_per_job", per_job(l.ms[kSolver]), "ms"},
      {"solver.iterations_per_job",
       per_job(static_cast<double>(l.solver_iterations)), "count"},
      {"solver.ms_per_iteration",
       ratio(l.ms[kSolver], static_cast<double>(l.solver_iterations)), "ms"},
      {"solver.converged_ratio", per_job(static_cast<double>(l.converged)),
       "ratio"},
      {"sched.ms_per_job", per_job(l.ms[kSched]), "ms"},
      {"codegen.ms_per_job", per_job(l.ms[kCodegen]), "ms"},
      {"codegen.instructions_per_job",
       per_job(static_cast<double>(l.instructions)), "count"},
      {"sim.ms_per_job", per_job(l.ms[kSim]), "ms"},
      {"sim.messages_per_job", per_job(static_cast<double>(l.messages)),
       "count"},
      {"sim.mbytes_per_job", per_job(l.payload_bytes / 1e6), "MB"},
      {"sim.blocked_share", ratio(l.blocked_s, l.rank_s), "ratio"},
      {"core.unattributed_ms_per_job", per_job(l.job_ms - attributed), "ms"},
      {"svc.ms_per_pipeline_run",
       ratio(s.round_ms, static_cast<double>(s.pipeline_runs)), "ms"},
      {"svc.cache_hit_ratio",
       ratio(static_cast<double>(s.cache_hits),
             static_cast<double>(s.cache_lookups)),
       "ratio"},
      {"svc.pipeline_runs", ratio(static_cast<double>(s.pipeline_runs), rounds),
       "count"},
      {"svc.coalesced", ratio(static_cast<double>(s.coalesced), rounds),
       "count"},
      {"svc.retries", ratio(static_cast<double>(s.retries), rounds), "count"},
      {"wal.records", ratio(s.wal_records, rounds), "count"},
      {"wal.syncs", ratio(s.wal_syncs, rounds), "count"},
      {"wal.journal_bytes", ratio(s.journal_bytes, rounds), "bytes"},
      {"wal.recover_ms", median(s.recover_ms), "ms"},
      {"trace.overhead", ratio(l.job_ms, l.untraced_ms) - (l.jobs ? 1.0 : 0.0),
       "ratio"},
  };
}

/// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <paper_programs|mdg_stream|"
               "service_replay> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--trace-out <file>] [--inject "
               "<perturb-reference|truncate-journal>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--inject") {
        if (value != "perturb-reference" && value != "truncate-journal") {
          return usage("unknown --inject '" + value + "'");
        }
        options.inject = value;
      } else {
        return usage("unknown flag '" + flag + "'");
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (options.workdir.empty()) return usage("--workdir is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Measurement m;
  try {
    if (options.workload == "paper_programs") {
      m = run_paper_programs(options);
    } else if (options.workload == "mdg_stream") {
      m = run_mdg_stream(options);
    } else if (options.workload == "service_replay") {
      m = run_service_replay(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& e : m.errors) std::cerr << "check failed: " << e << "\n";
  const bool correct = m.failed == 0 && m.attempted > 0;
  const auto attempted = static_cast<double>(m.attempted);
  std::printf("workload %s seed %llu: %zu jobs in %.3f s timed, %zu latency "
              "samples\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), m.jobs,
              m.timed_s, m.latency_ms.size());
  std::printf("%-30s %s ratio\n", "error_rate",
              number(ratio(static_cast<double>(m.failed), attempted)).c_str());
  std::printf("%-30s %s ratio\n", "degraded_rate",
              number(ratio(static_cast<double>(m.degraded), attempted)).c_str());
  const std::vector<Metric> metrics =
      options.trace ? per_layer(m) : end_to_end(m);
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(m.attempted) +
                     ", \"failed\": " + std::to_string(m.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    std::printf("%-30s %s %s\n", metric.name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
    json += (i ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
            number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
