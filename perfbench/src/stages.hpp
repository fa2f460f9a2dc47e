// Traced stage driver: runs the compile -> run pipeline one module call
// at a time, in the order core/pipeline.cpp uses, and records one span
// per call. All timing lives here, in the benchmark, around the calls
// into each module's public functions; nothing under src/ is
// instrumented.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "mdg/mdg.hpp"

namespace perfbench {

/// The layers a job's wall time is split into. `calibrate` includes the
/// simulator runs calibration makes; `sim` is only the three execution
/// runs (MPMD, SPMD, serial).
enum Layer : int { kCalibrate, kCost, kSolver, kSched, kCodegen, kSim, kLayers };
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "calibrate", "cost", "solver", "sched", "codegen", "sim"};

/// One timed call. `layer` is -1 for the job span that caused the calls;
/// every span of one job carries that job's id, and the job span also
/// names its input (a paper configuration, a stream job, a template).
struct Span {
  int layer = -1;
  std::uint64_t job = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  std::string input;
};

/// Keeps spans in memory; write_json() dumps them when the run ends.
class Tracer {
 public:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  void record(int layer, std::uint64_t job, double start_us, double end_us,
              std::string input = {}) {
    spans_.push_back(Span{layer, job, start_us, end_us, std::move(input)});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome-trace JSON: one complete event per span; the job id, and on
  /// job spans the input name, in args.
  void write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// What one traced job produced, counted where the work happens.
struct StageResult {
  double phi = 0.0;
  double t_psa = 0.0;
  double mpmd_simulated = 0.0;
  double spmd_simulated = 0.0;
  double serial_simulated = 0.0;
  std::size_t solver_iterations = 0;
  bool solver_converged = false;
  std::size_t instructions = 0;   ///< Generated, over the three programs.
  std::size_t messages = 0;       ///< Delivered, over the three runs.
  std::size_t payload_bytes = 0;  ///< Delivered, over the three runs.
  double blocked_s = 0.0;         ///< Sum of rank_blocked.
  double rank_s = 0.0;            ///< Sum of ranks x finish time.
};

/// Runs Compiler::compile_and_run's clean path stage by stage for
/// `config` (no cancel token, no memory budget, no preset calibration),
/// recording a job span named `input` plus one span per module call
/// under `job`.
/// Throws paradigm::Error where compile_and_run would leave the clean
/// path (invariant gate rejects the PSA schedule, a simulation fails):
/// the trace would then time a different program.
StageResult run_stages(const paradigm::core::PipelineConfig& config,
                       const paradigm::mdg::Mdg& graph, Tracer& tracer,
                       std::uint64_t job, const std::string& input);

}  // namespace perfbench
