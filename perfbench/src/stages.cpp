#include "stages.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <type_traits>
#include <utility>

#include "calibrate/static_estimate.hpp"
#include "calibrate/training.hpp"
#include "codegen/mpmd.hpp"
#include "cost/sanitize.hpp"
#include "sched/psa.hpp"
#include "sched/refine.hpp"
#include "sim/simulator.hpp"
#include "solver/allocator.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace paradigm;

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  PARADIGM_CHECK(out.good(), "cannot write trace '" << path << "'");
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu",
                  i == 0 ? "" : ",", s.layer < 0 ? "job" : kLayerNames[s.layer],
                  s.start_us, s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.job));
    out << line;
    // Input names are benchmark-made identifiers: [A-Za-z0-9_].
    if (!s.input.empty()) out << ",\"input\":\"" << s.input << '"';
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  PARADIGM_CHECK(out.good(), "failed writing trace '" << path << "'");
}

StageResult run_stages(const core::PipelineConfig& config,
                       const mdg::Mdg& graph, Tracer& tracer,
                       std::uint64_t job, const std::string& input) {
  PARADIGM_CHECK(!config.preset_calibration && config.cancel == nullptr &&
                     config.memory == nullptr && config.run_simulation,
                 "stage driver covers the plain compile_and_run path only");
  const double job_start = tracer.now_us();
  // Times one module call as a span of `layer` and returns its result.
  const auto timed = [&](Layer layer, auto&& call) {
    const double start = tracer.now_us();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      tracer.record(layer, job, start, tracer.now_us());
    } else {
      auto result = call();
      tracer.record(layer, job, start, tracer.now_us());
      return result;
    }
  };

  const std::uint64_t p = config.processors;
  const degrade::Policy& policy = config.degradation;
  StageResult out;

  // 1. Calibration: training sets, or the static estimates.
  auto [machine_params, table] = timed(kCalibrate, [&] {
    if (config.calibration_mode == core::CalibrationMode::kStatic) {
      return std::pair{
          calibrate::static_machine_params(config.machine),
          calibrate::static_table_for_graph(config.machine, graph)};
    }
    const calibrate::TransferFit transfer =
        calibrate::calibrate_transfers(config.machine, config.calibration);
    return std::pair{transfer.params,
                     calibrate::calibrate_for_graph(config.machine, graph,
                                                    config.calibration)};
  });

  // 2. Input sanitization scan + the cost model.
  bool repair = false;
  const auto param_policy = [&] {
    return repair ? cost::ParamPolicy::kSanitize : cost::ParamPolicy::kStrict;
  };
  const cost::CostModel model = timed(kCost, [&] {
    const cost::SanitizeReport scan =
        cost::sanitize_inputs(graph, machine_params, table, policy);
    PARADIGM_CHECK(!(policy.strict && degrade::has_error(scan.diagnostics)),
                   "strict mode: input sanitization rejected the MDG");
    repair = policy.enabled && scan.needs_repair;
    return cost::CostModel(graph, machine_params, table, param_policy(),
                           policy);
  });

  // 3. Convex allocation behind the recovery ladder.
  const std::span<const double> warm =
      config.solver_warm_start.size() == graph.node_count()
          ? std::span<const double>(config.solver_warm_start)
          : std::span<const double>{};
  const solver::GuardedAllocation guarded = timed(kSolver, [&] {
    if (!policy.enabled) {
      solver::GuardedAllocation g;
      g.result = solver::ConvexAllocator(config.solver)
                     .reallocate(model, static_cast<double>(p), warm);
      return g;
    }
    return solver::allocate_with_recovery(
        model, static_cast<double>(p), config.solver, config.recovery,
        std::max(config.dispatch_level,
                 repair ? degrade::DegradationLevel::kMultiStartRetry
                        : degrade::DegradationLevel::kNone),
        warm);
  });
  out.phi = guarded.result.phi;
  out.solver_iterations = guarded.result.iterations;
  out.solver_converged = guarded.result.converged;

  // 4. PSA, the invariant gate, and the SPMD baseline schedule.
  const sched::PsaResult psa = timed(kSched, [&] {
    return sched::prioritized_schedule(model, guarded.result.allocation, p,
                                       config.psa);
  });
  const std::vector<degrade::Diagnostic> violations = timed(
      kSched, [&] { return sched::check_schedule_invariants(model, psa, p); });
  PARADIGM_CHECK(violations.empty(),
                 "invariant gate rejected the PSA schedule:\n"
                     << degrade::format_diagnostics(violations));
  out.t_psa = psa.finish_time;

  cost::MachineParams free_transfers;
  free_transfers.t_ss = free_transfers.t_ps = 0.0;
  free_transfers.t_sr = free_transfers.t_pr = 0.0;
  free_transfers.t_n = 0.0;
  const cost::CostModel spmd_model = timed(kCost, [&] {
    return cost::CostModel(graph, free_transfers, table, param_policy(),
                           policy);
  });
  const sched::Schedule spmd = timed(kSched, [&] {
    sched::Schedule baseline = sched::spmd_schedule(spmd_model, p);
    baseline.validate(spmd_model);
    return baseline;
  });

  // 5-6. Code generation and simulated execution.
  const auto execute = [&](const sched::Schedule& schedule) {
    const codegen::GeneratedProgram generated = timed(
        kCodegen, [&] { return codegen::generate_mpmd(graph, schedule); });
    out.instructions += generated.program.total_instructions();
    sim::MachineConfig machine = config.machine;
    machine.size = static_cast<std::uint32_t>(schedule.machine_size());
    const sim::SimResult run = timed(kSim, [&] {
      sim::Simulator simulator(machine);
      return simulator.run(generated.program);
    });
    PARADIGM_CHECK(!run.aborted && std::isfinite(run.finish_time),
                   "simulation aborted or non-finite");
    out.messages += run.messages;
    out.payload_bytes += run.message_bytes;
    for (const double b : run.rank_blocked) out.blocked_s += b;
    out.rank_s += static_cast<double>(machine.size) * run.finish_time;
    return run.finish_time;
  };
  out.mpmd_simulated = execute(psa.schedule);
  out.spmd_simulated = execute(spmd);
  timed(kSched, [&] {
    sched::refine_prediction(model, psa.schedule);
    sched::refine_prediction(model, spmd);
  });
  const cost::CostModel serial_model = timed(kCost, [&] {
    return cost::CostModel(graph, machine_params, table, param_policy(),
                           policy);
  });
  const sched::Schedule serial =
      timed(kSched, [&] { return sched::spmd_schedule(serial_model, 1); });
  out.serial_simulated = execute(serial);

  tracer.record(-1, job, job_start, tracer.now_us(), input);
  return out;
}

}  // namespace perfbench
