// The graceful-degradation subsystem (DESIGN §10): the taxonomy and
// exit-code mapping, the sanitization repair rules, the recovery
// ladder, the analytic fallback allocations, the deterministic solver
// budget, the post-schedule invariant gate, and pipeline-level
// visibility of degraded runs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/json_export.hpp"
#include "core/pipeline.hpp"
#include "core/programs.hpp"
#include "cost/model.hpp"
#include "cost/sanitize.hpp"
#include "mdg/random_mdg.hpp"
#include "sched/bounds.hpp"
#include "sched/psa.hpp"
#include "solver/allocator.hpp"
#include "support/degrade.hpp"
#include "support/error.hpp"

namespace paradigm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- taxonomy -----------------------------------------------------------------

TEST(Degrade, LadderOrderAndSaturation) {
  using degrade::DegradationLevel;
  EXPECT_EQ(degrade::next_level(DegradationLevel::kNone),
            DegradationLevel::kMultiStartRetry);
  EXPECT_EQ(degrade::next_level(DegradationLevel::kMultiStartRetry),
            DegradationLevel::kSmoothingRestart);
  EXPECT_EQ(degrade::next_level(DegradationLevel::kSmoothingRestart),
            DegradationLevel::kAreaProportional);
  EXPECT_EQ(degrade::next_level(DegradationLevel::kAreaProportional),
            DegradationLevel::kHomogeneous);
  EXPECT_EQ(degrade::next_level(DegradationLevel::kHomogeneous),
            DegradationLevel::kSerial);
  // The last rung saturates: there is nowhere further to fall.
  EXPECT_EQ(degrade::next_level(DegradationLevel::kSerial),
            DegradationLevel::kSerial);
}

TEST(Degrade, ExitCodesDistinguishCleanFromDegraded) {
  using degrade::DegradationLevel;
  EXPECT_EQ(degrade::exit_code(DegradationLevel::kNone), 0);
  EXPECT_EQ(degrade::exit_code(DegradationLevel::kMultiStartRetry), 11);
  EXPECT_EQ(degrade::exit_code(DegradationLevel::kAreaProportional), 13);
  EXPECT_EQ(degrade::exit_code(DegradationLevel::kSerial), 15);
}

TEST(Degrade, EveryLevelAndCodeHasAStableName) {
  for (int i = 0; i < degrade::kDegradationLevels; ++i) {
    const auto level = static_cast<degrade::DegradationLevel>(i);
    EXPECT_STRNE(degrade::to_string(level), "?") << i;
  }
  EXPECT_STREQ(degrade::to_string(degrade::DegradationLevel::kNone), "none");
  EXPECT_STREQ(degrade::to_string(degrade::Severity::kError), "error");
  EXPECT_STRNE(
      degrade::to_string(degrade::DiagnosticCode::kInvariantBoundFactor),
      "?");
}

TEST(Degrade, HasErrorAndFormatting) {
  std::vector<degrade::Diagnostic> diags;
  diags.push_back({degrade::DiagnosticCode::kTrivialGraph,
                   degrade::Severity::kInfo, "graph", "1 node"});
  EXPECT_FALSE(degrade::has_error(diags));
  diags.push_back({degrade::DiagnosticCode::kNonFiniteTau,
                   degrade::Severity::kError, "node n3", "tau=nan"});
  EXPECT_TRUE(degrade::has_error(diags));
  const std::string text = degrade::format_diagnostics(diags);
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("node n3"), std::string::npos);
  EXPECT_NE(text.find("tau=nan"), std::string::npos);
}

TEST(Degrade, AllFinite) {
  EXPECT_TRUE(degrade::all_finite({}));
  const std::vector<double> good = {0.0, -1.0, 1e300};
  EXPECT_TRUE(degrade::all_finite(good));
  const std::vector<double> bad = {1.0, kNaN};
  EXPECT_FALSE(degrade::all_finite(bad));
  const std::vector<double> inf = {1.0, kInf};
  EXPECT_FALSE(degrade::all_finite(inf));
}

// ---- sanitization repair rules ----------------------------------------------------

TEST(Sanitize, AmdahlRepairRules) {
  const degrade::Policy policy;
  // NaN alpha -> 0; out-of-range alpha clamped into [0, 1].
  EXPECT_EQ(cost::sanitized_amdahl({kNaN, 1.0}, policy).alpha, 0.0);
  EXPECT_EQ(cost::sanitized_amdahl({-0.5, 1.0}, policy).alpha, 0.0);
  EXPECT_EQ(cost::sanitized_amdahl({2.0, 1.0}, policy).alpha, 1.0);
  // NaN/Inf/negative tau -> 0; huge tau clamped to the policy limit.
  EXPECT_EQ(cost::sanitized_amdahl({0.1, kNaN}, policy).tau, 0.0);
  EXPECT_EQ(cost::sanitized_amdahl({0.1, kInf}, policy).tau, 0.0);
  EXPECT_EQ(cost::sanitized_amdahl({0.1, -3.0}, policy).tau, 0.0);
  EXPECT_EQ(cost::sanitized_amdahl({0.1, 1e300}, policy).tau,
            policy.tau_limit);
  // Well-formed parameters pass through untouched.
  const cost::AmdahlParams ok{0.25, 0.75};
  EXPECT_EQ(cost::sanitized_amdahl(ok, policy).alpha, 0.25);
  EXPECT_EQ(cost::sanitized_amdahl(ok, policy).tau, 0.75);
}

TEST(Sanitize, MachineRepairRules) {
  const degrade::Policy policy;
  cost::MachineParams mp;
  mp.t_ss = kNaN;
  mp.t_ps = -1.0;
  mp.t_sr = kInf;
  mp.t_pr = 1e300;
  const cost::MachineParams fixed = cost::sanitized_machine(mp, policy);
  EXPECT_EQ(fixed.t_ss, 0.0);
  EXPECT_EQ(fixed.t_ps, 0.0);
  EXPECT_EQ(fixed.t_sr, 0.0);
  EXPECT_EQ(fixed.t_pr, policy.machine_param_limit);
  EXPECT_EQ(fixed.t_n, mp.t_n);  // untouched: it was fine
}

mdg::Mdg two_node_graph(double alpha0, double tau0, double alpha1,
                        double tau1) {
  mdg::Mdg graph;
  const auto a = graph.add_synthetic("a", alpha0, tau0);
  const auto b = graph.add_synthetic("b", alpha1, tau1);
  graph.add_synthetic_dependence(a, b, 1024);
  graph.finalize();
  return graph;
}

TEST(Sanitize, ScanFlagsNonFiniteTauAsError) {
  const mdg::Mdg graph = two_node_graph(0.1, kNaN, 0.1, 1.0);
  const auto report = cost::sanitize_inputs(graph, cost::MachineParams{},
                                            cost::KernelCostTable{});
  EXPECT_TRUE(report.needs_repair);
  EXPECT_TRUE(degrade::has_error(report.diagnostics));
  bool found = false;
  for (const auto& d : report.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kNonFiniteTau) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Sanitize, ScanFlagsAlphaOutOfRange) {
  const mdg::Mdg graph = two_node_graph(2.0, 1.0, 0.1, 1.0);
  const auto report = cost::sanitize_inputs(graph, cost::MachineParams{},
                                            cost::KernelCostTable{});
  EXPECT_TRUE(report.needs_repair);
  bool found = false;
  for (const auto& d : report.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kAlphaOutOfRange) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Sanitize, ScanFlagsTauDynamicRangeAsWarning) {
  const mdg::Mdg graph = two_node_graph(0.1, 1e-10, 0.1, 1e10);
  const auto report = cost::sanitize_inputs(graph, cost::MachineParams{},
                                            cost::KernelCostTable{});
  // A range warning alone must not force repair.
  EXPECT_FALSE(report.needs_repair);
  bool found = false;
  for (const auto& d : report.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kTauDynamicRange) {
      found = true;
      EXPECT_EQ(d.severity, degrade::Severity::kWarning);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Sanitize, ScanFlagsZeroCostAndTrivialGraphs) {
  const mdg::Mdg zero = two_node_graph(0.0, 0.0, 0.0, 0.0);
  const auto zr = cost::sanitize_inputs(zero, cost::MachineParams{},
                                        cost::KernelCostTable{});
  bool zero_found = false;
  for (const auto& d : zr.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kZeroCostGraph) zero_found = true;
  }
  EXPECT_TRUE(zero_found);

  mdg::Mdg single;
  single.add_synthetic("only", 0.1, 1.0);
  single.finalize();
  const auto sr = cost::sanitize_inputs(single, cost::MachineParams{},
                                        cost::KernelCostTable{});
  bool trivial_found = false;
  for (const auto& d : sr.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kTrivialGraph) {
      trivial_found = true;
      EXPECT_EQ(d.severity, degrade::Severity::kInfo);
    }
  }
  EXPECT_TRUE(trivial_found);
}

TEST(Sanitize, ScanFlagsFanOutExplosion) {
  mdg::Mdg graph;
  const auto hub = graph.add_synthetic("hub", 0.1, 1.0);
  degrade::Policy policy;
  policy.fan_out_limit = 8;
  for (int i = 0; i < 12; ++i) {
    const auto leaf =
        graph.add_synthetic("leaf" + std::to_string(i), 0.1, 0.5);
    graph.add_synthetic_dependence(hub, leaf, 64);
  }
  graph.finalize();
  const auto report = cost::sanitize_inputs(graph, cost::MachineParams{},
                                            cost::KernelCostTable{}, policy);
  bool found = false;
  for (const auto& d : report.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kFanOutExplosion) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Sanitize, CleanGraphScansClean) {
  Rng rng(7);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const auto report = cost::sanitize_inputs(graph, cost::MachineParams{},
                                            cost::KernelCostTable{});
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.needs_repair);
}

TEST(Sanitize, CostModelSanitizePolicyMakesPathologicalCostsFinite) {
  const mdg::Mdg graph = two_node_graph(kNaN, kNaN, 2.0, -5.0);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{},
                              cost::ParamPolicy::kSanitize);
  const std::vector<double> alloc(graph.node_count(), 2.0);
  EXPECT_TRUE(std::isfinite(model.phi(alloc, 8.0)));
}

// ---- fallback allocations ----------------------------------------------------------

TEST(Recovery, AreaProportionalIsFiniteAndInBounds) {
  Rng rng(11);
  mdg::RandomMdgConfig rc;
  rc.tau_min = 1e-6;
  rc.tau_max = 10.0;
  const mdg::Mdg graph = mdg::random_mdg(rng, rc);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const double p = 16.0;
  const auto result = solver::area_proportional_allocation(model, p);
  EXPECT_TRUE(result.finite());
  ASSERT_EQ(result.allocation.size(), graph.node_count());
  double max_alloc = 0.0;
  for (const double a : result.allocation) {
    EXPECT_GE(a, 1.0);
    EXPECT_LE(a, p);
    max_alloc = std::max(max_alloc, a);
  }
  // The heaviest node gets the whole machine.
  EXPECT_DOUBLE_EQ(max_alloc, p);
}

TEST(Recovery, LadderReturnsCleanResultOnWellConditionedInput) {
  Rng rng(3);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto guarded = solver::allocate_with_recovery(model, 16.0);
  EXPECT_EQ(guarded.level, degrade::DegradationLevel::kNone);
  EXPECT_TRUE(guarded.result.finite());
  // Rung 0 is the plain solver: bit-identical to calling it directly.
  const auto plain = solver::ConvexAllocator{}.allocate(model, 16.0);
  ASSERT_EQ(guarded.result.allocation.size(), plain.allocation.size());
  for (std::size_t i = 0; i < plain.allocation.size(); ++i) {
    EXPECT_DOUBLE_EQ(guarded.result.allocation[i], plain.allocation[i]);
  }
  EXPECT_DOUBLE_EQ(guarded.result.phi, plain.phi);
}

TEST(Recovery, LadderFallsThroughOnNonFiniteCosts) {
  // Unsanitized NaN taus defeat every descent-based rung; the ladder
  // must still terminate with a structured answer instead of NaN.
  const mdg::Mdg graph = two_node_graph(0.1, kNaN, 0.1, kNaN);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto guarded = solver::allocate_with_recovery(model, 8.0);
  EXPECT_NE(guarded.level, degrade::DegradationLevel::kNone);
  EXPECT_FALSE(guarded.diagnostics.empty());
  bool recovery_noted = false;
  for (const auto& d : guarded.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kRecoveryApplied) {
      recovery_noted = true;
    }
  }
  // Either a rung recovered (and said so) or the ladder bottomed out at
  // kSerial, which always terminates.
  EXPECT_TRUE(recovery_noted ||
              guarded.level == degrade::DegradationLevel::kSerial);
  ASSERT_EQ(guarded.result.allocation.size(), graph.node_count());
  for (const double a : guarded.result.allocation) {
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_GE(a, 1.0);
  }
}

TEST(Recovery, StartLevelSkipsTheEarlierRungs) {
  Rng rng(5);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto guarded = solver::allocate_with_recovery(
      model, 8.0, {}, {}, degrade::DegradationLevel::kAreaProportional);
  EXPECT_GE(static_cast<int>(guarded.level),
            static_cast<int>(degrade::DegradationLevel::kAreaProportional));
  EXPECT_TRUE(guarded.result.finite());
  // Rung 3 is the analytic allocation: identical to calling it directly.
  const auto direct = solver::area_proportional_allocation(model, 8.0);
  ASSERT_EQ(guarded.result.allocation.size(), direct.allocation.size());
  for (std::size_t i = 0; i < direct.allocation.size(); ++i) {
    EXPECT_DOUBLE_EQ(guarded.result.allocation[i], direct.allocation[i]);
  }
}

// ---- deterministic work-unit budget ----------------------------------------------

TEST(Budget, ExhaustionIsClassifiedAndDeterministic) {
  Rng rng(17);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  solver::ConvexAllocatorConfig config;
  config.work_unit_budget = 5;  // far below what convergence needs
  const auto a = solver::ConvexAllocator(config).allocate(model, 16.0);
  EXPECT_EQ(a.status, solver::SolveStatus::kBudgetExhausted);
  EXPECT_FALSE(a.converged);
  EXPECT_LE(a.iterations, config.work_unit_budget);
  // The budget binds inside round 0, so only that round was entered;
  // the configured round count must not be reported.
  EXPECT_EQ(a.continuation_rounds, 1u) << a.summary();
  EXPECT_TRUE(a.finite());  // best-so-far point is still usable
  // Bit-identical across runs: the budget counts iterations, not time.
  const auto b = solver::ConvexAllocator(config).allocate(model, 16.0);
  EXPECT_EQ(b.iterations, a.iterations);
  ASSERT_EQ(b.allocation.size(), a.allocation.size());
  for (std::size_t i = 0; i < a.allocation.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.allocation[i], a.allocation[i]);
  }
}

TEST(Budget, LargeBudgetDoesNotChangeTheResult) {
  Rng rng(19);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto unbudgeted = solver::ConvexAllocator{}.allocate(model, 16.0);
  solver::ConvexAllocatorConfig config;
  config.work_unit_budget = 1u << 20;  // never binds
  const auto budgeted = solver::ConvexAllocator(config).allocate(model, 16.0);
  EXPECT_NE(budgeted.status, solver::SolveStatus::kBudgetExhausted);
  ASSERT_EQ(budgeted.allocation.size(), unbudgeted.allocation.size());
  for (std::size_t i = 0; i < unbudgeted.allocation.size(); ++i) {
    EXPECT_DOUBLE_EQ(budgeted.allocation[i], unbudgeted.allocation[i]);
  }
}

// ---- post-schedule invariant gate -------------------------------------------------

TEST(InvariantGate, CleanScheduleHasNoFindings) {
  Rng rng(23);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto alloc = solver::ConvexAllocator{}.allocate(model, 16.0);
  const auto psa = sched::prioritized_schedule(model, alloc.allocation, 16);
  const auto findings = sched::check_schedule_invariants(model, psa, 16);
  EXPECT_TRUE(findings.empty()) << degrade::format_diagnostics(findings);
}

TEST(InvariantGate, FlagsNonPowerOfTwoAllocation) {
  Rng rng(29);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto alloc = solver::ConvexAllocator{}.allocate(model, 16.0);
  auto psa = sched::prioritized_schedule(model, alloc.allocation, 16);
  ASSERT_FALSE(psa.allocation.empty());
  psa.allocation[psa.allocation.size() / 2] = 3;  // not a power of two
  const auto findings = sched::check_schedule_invariants(model, psa, 16);
  bool found = false;
  for (const auto& d : findings) {
    if (d.code == degrade::DiagnosticCode::kInvariantAllocationNotPow2) {
      found = true;
      EXPECT_EQ(d.severity, degrade::Severity::kError);
    }
  }
  EXPECT_TRUE(found);
}

TEST(InvariantGate, FlagsAllocationAbovePb) {
  Rng rng(31);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto alloc = solver::ConvexAllocator{}.allocate(model, 16.0);
  auto psa = sched::prioritized_schedule(model, alloc.allocation, 16);
  ASSERT_GT(psa.pb, 0u);
  psa.allocation[0] = psa.pb * 2;  // a power of two, but above PB
  const auto findings = sched::check_schedule_invariants(model, psa, 16);
  bool found = false;
  for (const auto& d : findings) {
    if (d.code == degrade::DiagnosticCode::kInvariantAllocationOutOfBounds) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(InvariantGate, FlagsNonFiniteMakespan) {
  Rng rng(37);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const cost::CostModel model(graph, cost::MachineParams{},
                              cost::KernelCostTable{});
  const auto alloc = solver::ConvexAllocator{}.allocate(model, 16.0);
  auto psa = sched::prioritized_schedule(model, alloc.allocation, 16);
  psa.finish_time = kNaN;
  const auto findings = sched::check_schedule_invariants(model, psa, 16);
  bool found = false;
  for (const auto& d : findings) {
    if (d.code == degrade::DiagnosticCode::kInvariantNonFiniteMakespan) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- pipeline-level behavior -------------------------------------------------------

core::PipelineConfig tiny_pipeline(std::uint64_t p) {
  core::PipelineConfig config;
  config.processors = p;
  config.machine.size = static_cast<std::uint32_t>(p);
  config.machine.noise_sigma = 0.0;
  // Synthetic graphs need no kernel fits; skip calibration entirely.
  config.preset_calibration = calibrate::CalibrationBundle{
      cost::MachineParams{}, cost::KernelCostTable{}};
  config.solver.continuation_rounds = 3;
  config.solver.max_inner_iterations = 120;
  return config;
}

TEST(PipelineDegrade, CleanRunReportsNoDegradation) {
  Rng rng(41);
  const mdg::Mdg graph = mdg::random_mdg(rng);
  const core::Compiler compiler(tiny_pipeline(8));
  const auto report = compiler.compile_and_run(graph);
  EXPECT_FALSE(report.degraded());
  EXPECT_TRUE(report.diagnostics.empty())
      << degrade::format_diagnostics(report.diagnostics);
  // The JSON export must not grow a degradation block on clean runs.
  const std::string json = core::report_to_json(report).dump();
  EXPECT_EQ(json.find("degradation"), std::string::npos);
}

TEST(PipelineDegrade, PathologicalGraphDegradesVisibly) {
  // NaN and negative taus: sanitization repairs the parameters and the
  // run completes with the anomalies on record.
  const mdg::Mdg graph = two_node_graph(0.1, kNaN, 0.1, -1.0);
  const core::Compiler compiler(tiny_pipeline(8));
  const auto report = compiler.compile_and_run(graph);
  EXPECT_FALSE(report.diagnostics.empty());
  ASSERT_TRUE(report.psa.has_value());
  EXPECT_TRUE(std::isfinite(report.psa->finish_time));
  // The released schedule is valid against the sanitized model the
  // pipeline scheduled with, despite the pathological raw parameters.
  const cost::CostModel sanitized(graph, cost::MachineParams{},
                                  cost::KernelCostTable{},
                                  cost::ParamPolicy::kSanitize);
  EXPECT_NO_THROW(report.psa->schedule.validate(sanitized));
  // The JSON export carries the degradation block.
  const std::string json = core::report_to_json(report).dump();
  EXPECT_NE(json.find("degradation"), std::string::npos);
  EXPECT_NE(json.find("diagnostics"), std::string::npos);
}

TEST(PipelineDegrade, StrictModeThrowsOnPathology) {
  const mdg::Mdg graph = two_node_graph(0.1, kNaN, 0.1, 1.0);
  core::PipelineConfig config = tiny_pipeline(8);
  config.degradation.strict = true;
  const core::Compiler compiler(config);
  EXPECT_THROW(compiler.compile_and_run(graph), Error);
}

TEST(PipelineDegrade, DisabledPolicyStillCollectsDiagnostics) {
  const mdg::Mdg graph = two_node_graph(0.1, 1e-10, 0.1, 1e10);
  core::PipelineConfig config = tiny_pipeline(8);
  config.degradation.enabled = false;
  const core::Compiler compiler(config);
  // Range warning only: the legacy path still completes.
  const auto report = compiler.compile_and_run(graph);
  EXPECT_FALSE(report.degraded());
  bool found = false;
  for (const auto& d : report.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kTauDynamicRange) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PipelineDegrade, SummaryMentionsDegradationOnlyWhenDegraded) {
  Rng rng(43);
  const mdg::Mdg clean_graph = mdg::random_mdg(rng);
  const core::Compiler compiler(tiny_pipeline(8));
  const auto clean = compiler.compile_and_run(clean_graph);
  EXPECT_EQ(clean.summary().find("DEGRADED"), std::string::npos);

  const mdg::Mdg bad_graph = two_node_graph(0.1, kNaN, 0.1, kNaN);
  const auto degraded = compiler.compile_and_run(bad_graph);
  if (degraded.degraded()) {
    EXPECT_NE(degraded.summary().find("DEGRADED"), std::string::npos);
  }
}

}  // namespace
}  // namespace paradigm
