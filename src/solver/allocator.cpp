#include "solver/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace paradigm::solver {
namespace {

/// Solver instruments (DESIGN §9). References are resolved once; the
/// registry keeps instruments alive for the process lifetime. Counters
/// and histograms commute, so concurrent multi-start descents record
/// into them directly; gauges are only written from solve() after the
/// parallel region has been joined.
struct SolverMetrics {
  obs::Counter& starts =
      obs::Registry::global().counter("solver.starts");
  obs::Counter& iterations =
      obs::Registry::global().counter("solver.iterations");
  obs::Counter& backtracks =
      obs::Registry::global().counter("solver.armijo_backtracks");
  obs::Counter& rounds =
      obs::Registry::global().counter("solver.continuation_rounds");
  obs::Histogram& pg_norm = obs::Registry::global().histogram(
      "solver.pg_norm", obs::exp_bounds(1e-12, 10.0, 16));
  obs::Histogram& start_phi = obs::Registry::global().histogram(
      "solver.start_phi_seconds", obs::exp_bounds(1e-6, 10.0, 13));
  obs::Gauge& phi = obs::Registry::global().gauge("solver.phi_seconds");
  obs::Gauge& final_pg_norm =
      obs::Registry::global().gauge("solver.final_pg_norm");
  // Degradation instruments (DESIGN §10): touched only when the event
  // occurs, so clean runs export byte-identical metric sets.
  obs::Counter& nonfinite_events =
      obs::Registry::global().counter("solver.nonfinite_events");
  obs::Counter& budget_exhausted =
      obs::Registry::global().counter("solver.budget_exhausted");
};

SolverMetrics& solver_metrics() {
  static SolverMetrics metrics;
  return metrics;
}

/// Below this many items the parallel dispatch overhead outweighs the
/// work; the cutoff only changes *where* a loop runs, never its result.
constexpr std::size_t kParallelGrain = 64;

/// n-ary log-sum-exp max: value and softmax weights. mu = 0 gives the
/// exact max with a one-hot (sub)gradient.
double lse_max(std::span<const double> values, double mu,
               std::span<double> weights) {
  PARADIGM_CHECK(!values.empty(), "lse_max of empty set");
  PARADIGM_CHECK(weights.size() == values.size(), "lse_max weights size");
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[argmax]) argmax = i;
  }
  if (mu <= 0.0) {
    std::fill(weights.begin(), weights.end(), 0.0);
    weights[argmax] = 1.0;
    return values[argmax];
  }
  const double hi = values[argmax];
  double denom = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    weights[i] = std::exp((values[i] - hi) / mu);
    denom += weights[i];
  }
  for (double& w : weights) w /= denom;
  return hi + mu * std::log(denom);
}

std::vector<double> exp_all(std::span<const double> x) {
  std::vector<double> p(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) p[i] = std::exp(x[i]);
  return p;
}

AllocationResult finish_result(const cost::CostModel& model, double p,
                               std::vector<double> allocation) {
  AllocationResult result;
  result.allocation = std::move(allocation);
  result.average_time = model.average_finish_time(result.allocation, p);
  result.critical_path = model.critical_path_time(result.allocation);
  result.phi = std::max(result.average_time, result.critical_path);
  return result;
}

}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kStalled: return "stalled";
    case SolveStatus::kBudgetExhausted: return "budget-exhausted";
    case SolveStatus::kNonFinite: return "non-finite";
  }
  return "?";
}

bool AllocationResult::finite() const {
  return std::isfinite(phi) && std::isfinite(average_time) &&
         std::isfinite(critical_path) && degrade::all_finite(allocation);
}

std::string AllocationResult::summary() const {
  std::ostringstream os;
  os << "phi=" << phi << "s (A_p=" << average_time
     << "s, C_p=" << critical_path << "s), " << iterations << " iters, "
     << continuation_rounds << " rounds, "
     << (converged ? "converged" : "NOT converged");
  if (!converged && status != SolveStatus::kStalled) {
    os << " (" << to_string(status) << ")";
  }
  return os.str();
}

double ConvexAllocator::smoothed_objective(const cost::CostModel& model,
                                           double p,
                                           std::span<const double> x,
                                           double mu_x, double mu_t,
                                           std::span<double> grad) const {
  const mdg::Mdg& graph = model.graph();
  const std::size_t n = graph.node_count();
  PARADIGM_CHECK(x.size() == n, "x size mismatch");
  PARADIGM_CHECK(grad.empty() || grad.size() == n, "grad size mismatch");
  std::fill(grad.begin(), grad.end(), 0.0);

  // Forward pass: per-node weights/areas and per-edge delays as Diffs,
  // then the finish-time recurrence with LSE maxes. Each node/edge
  // writes only its own slot, so the per-item loops run on the thread
  // pool for large graphs with bit-identical results (nested calls —
  // e.g. from a multi-start task — fall back to inline serial loops).
  std::vector<cost::Diff> node_weight(n);
  std::vector<cost::Diff> node_area(n);
  std::vector<cost::Diff> edge_delay(graph.edge_count());
  const auto for_each = [](std::size_t count,
                           const std::function<void(std::size_t)>& body) {
    if (count >= kParallelGrain && thread_count() > 1) {
      parallel_for(count, body);
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i);
    }
  };
  for_each(n, [&](std::size_t id) {
    node_weight[id] = model.smooth_node_weight(id, x, mu_x);
    node_area[id] = model.smooth_node_area(id, x, mu_x);
  });
  for_each(graph.edge_count(), [&](std::size_t id) {
    edge_delay[id] = model.smooth_edge_delay(id, x, mu_x);
  });

  std::vector<double> y(n, 0.0);
  // Softmax weight of each in-edge within its destination's LSE.
  std::vector<double> in_edge_weight(graph.edge_count(), 0.0);
  for (const mdg::NodeId id : graph.topological_order()) {
    const auto& node = graph.node(id);
    double start_time = 0.0;
    if (!node.in_edges.empty()) {
      std::vector<double> candidates;
      candidates.reserve(node.in_edges.size());
      for (const mdg::EdgeId e : node.in_edges) {
        candidates.push_back(y[graph.edge(e).src] + edge_delay[e].value);
      }
      std::vector<double> weights(candidates.size());
      start_time = lse_max(candidates, mu_t, weights);
      for (std::size_t k = 0; k < node.in_edges.size(); ++k) {
        in_edge_weight[node.in_edges[k]] = weights[k];
      }
    }
    y[id] = start_time + node_weight[id].value;
  }

  double avg = 0.0;
  for (std::size_t i = 0; i < n; ++i) avg += node_area[i].value;
  avg /= p;

  const double outer[2] = {avg, y[graph.stop()]};
  double outer_w[2];
  const double objective = lse_max(outer, mu_t, outer_w);

  if (grad.empty()) return objective;

  // Reverse pass. u[i] = d(objective)/d(y_i).
  std::vector<double> u(n, 0.0);
  u[graph.stop()] = outer_w[1];
  const auto& topo = graph.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const mdg::NodeId id = *it;
    if (u[id] == 0.0) continue;
    node_weight[id].grad.scatter(u[id], grad);
    for (const mdg::EdgeId e : graph.node(id).in_edges) {
      const double w = u[id] * in_edge_weight[e];
      if (w == 0.0) continue;
      u[graph.edge(e).src] += w;
      edge_delay[e].grad.scatter(w, grad);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    node_area[i].grad.scatter(outer_w[0] / p, grad);
  }
  return objective;
}

AllocationResult ConvexAllocator::allocate(const cost::CostModel& model,
                                           double p) const {
  return solve(model, p, {});
}

AllocationResult ConvexAllocator::reallocate(
    const cost::CostModel& model, double p_new,
    std::span<const double> previous) const {
  if (!previous.empty()) {
    PARADIGM_CHECK(previous.size() == model.graph().node_count(),
                   "warm-start allocation covers "
                       << previous.size() << " nodes, graph has "
                       << model.graph().node_count());
  }
  return solve(model, p_new, previous);
}

AllocationResult ConvexAllocator::solve(const cost::CostModel& model,
                                        double p,
                                        std::span<const double> warm_start) const {
  PARADIGM_CHECK(p >= 1.0, "machine size must be >= 1, got " << p);
  const mdg::Mdg& graph = model.graph();
  const std::size_t n = graph.node_count();
  const double x_max = std::log(p);

  // Per-variable upper bounds: the machine size, tightened by any
  // per-node processor caps.
  std::vector<double> x_hi(n, x_max);
  for (const auto& node : graph.nodes()) {
    if (node.kind == mdg::NodeKind::kLoop &&
        node.loop.max_processors > 0) {
      x_hi[node.id] = std::min(
          x_max, std::log(static_cast<double>(node.loop.max_processors)));
      PARADIGM_CHECK(x_hi[node.id] >= 0.0,
                     "processor cap for node '" << node.name
                                                << "' must be >= 1");
    }
  }

  // Deterministic start points. Start 0 is the legacy one (warm start
  // when given, else the box midpoint); the rest are drawn from RNG
  // streams keyed by start index, so the start list is a pure function
  // of the config — independent of thread count and submission order.
  const std::size_t starts = std::max<std::size_t>(1, config_.num_starts);
  std::vector<std::vector<double>> initial(starts,
                                           std::vector<double>(n, 0.0));
  if (warm_start.empty()) {
    for (std::size_t i = 0; i < n; ++i) initial[0][i] = 0.5 * x_hi[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double prev = std::max(warm_start[i], 1.0);
      initial[0][i] = std::clamp(std::log(prev), 0.0, x_hi[i]);
    }
  }
  const Rng base(config_.start_seed);
  for (std::size_t k = 1; k < starts; ++k) {
    Rng stream = base.stream(k);
    for (std::size_t i = 0; i < n; ++i) {
      initial[k][i] = stream.uniform() * x_hi[i];
    }
  }

  if (starts == 1) {
    AllocationResult result;
    if (config_.cancel != nullptr) {
      // Even the serial path charges through a Region so the trip tick
      // is computed the same way as in the multi-start path. No commit
      // on unwind: a cancelled descent leaves the parent at its
      // before-region tick count (deterministically).
      CancelToken::Region region(*config_.cancel);
      result = descend(model, p, x_hi, std::move(initial[0]), 0, &region);
      config_.cancel->commit_region(region.local_ticks(),
                                    region.progressed());
    } else {
      result = descend(model, p, x_hi, std::move(initial[0]), 0);
    }
    if (obs::enabled()) {
      solver_metrics().start_phi.observe_unchecked(result.phi);
      if (!ThreadPool::in_worker()) {
        // Gauges are last-write-wins: skip when this solve is one cell
        // of a parallel sweep, where "last" would be racy.
        solver_metrics().phi.set(result.phi);
        solver_metrics().final_pg_norm.set(result.final_gradient_norm);
      }
    }
    log_debug("convex allocation: ", result.summary());
    return result;
  }

  // Concurrent multi-start: every descent is independent, results are
  // committed in start order, and the best Phi wins with ties broken
  // toward the lowest start index. Cancellation accounting goes through
  // per-start Regions: each start trips on parent-base + its own ticks
  // (a pure function of the start), a tripped start's Cancelled
  // propagates from the lowest throwing index, and the joined totals
  // are committed to the parent in index order — all independent of
  // thread count.
  struct DescentRun {
    AllocationResult result;
    std::uint64_t cancel_ticks = 0;
    bool cancel_progress = false;
  };
  std::vector<DescentRun> runs = parallel_map<DescentRun>(
      starts, [&](std::size_t k) {
        DescentRun run;
        if (config_.cancel != nullptr) {
          CancelToken::Region region(*config_.cancel);
          run.result =
              descend(model, p, x_hi, std::move(initial[k]), k, &region);
          run.cancel_ticks = region.local_ticks();
          run.cancel_progress = region.progressed();
        } else {
          run.result = descend(model, p, x_hi, std::move(initial[k]), k);
        }
        return run;
      });
  if (config_.cancel != nullptr) {
    std::uint64_t total_ticks = 0;
    bool any_progress = false;
    for (const DescentRun& run : runs) {
      total_ticks += run.cancel_ticks;
      any_progress = any_progress || run.cancel_progress;
    }
    config_.cancel->commit_region(total_ticks, any_progress);
  }
  // Finite runs always beat non-finite ones (NaN comparisons are all
  // false, so the plain `<` scan would keep a NaN first run forever);
  // among finite runs the comparison is unchanged, so well-conditioned
  // solves pick the identical winner.
  const auto better = [](const AllocationResult& a,
                         const AllocationResult& b) {
    const bool a_finite = std::isfinite(a.phi);
    const bool b_finite = std::isfinite(b.phi);
    if (a_finite != b_finite) return a_finite;
    return a.phi < b.phi;
  };
  std::size_t best = 0;
  std::size_t total_iterations = runs[0].result.iterations;
  for (std::size_t k = 1; k < starts; ++k) {
    total_iterations += runs[k].result.iterations;
    if (better(runs[k].result, runs[best].result)) best = k;
  }
  if (obs::enabled()) {
    // Per-start Phi is recorded serially after the join: the histogram
    // would commute anyway, but the gauges must not race.
    for (const DescentRun& run : runs) {
      solver_metrics().start_phi.observe_unchecked(run.result.phi);
    }
    if (!ThreadPool::in_worker()) {
      solver_metrics().phi.set(runs[best].result.phi);
      solver_metrics().final_pg_norm.set(
          runs[best].result.final_gradient_norm);
    }
  }
  AllocationResult result = std::move(runs[best].result);
  result.iterations = total_iterations;
  log_debug("convex allocation (best of ", starts,
            " starts): ", result.summary());
  return result;
}

AllocationResult ConvexAllocator::descend(const cost::CostModel& model,
                                          double p,
                                          std::span<const double> x_hi,
                                          std::vector<double> x,
                                          std::size_t start_index,
                                          CancelToken::Region* cancel) const {
  const std::size_t n = x.size();
  const double x_max = std::log(p);
  std::vector<double> grad(n, 0.0);
  std::vector<double> x_next(n, 0.0);

  double mu_x = config_.mu_x_initial;
  double mu_t_rel = config_.mu_t_rel_initial;
  std::size_t total_iterations = 0;
  std::size_t total_backtracks = 0;
  std::size_t rounds_entered = 0;
  bool last_round_converged = false;
  double last_pg_norm = 0.0;
  bool nonfinite = false;
  bool budget_hit = false;

  // One trace row per start; spans are placed on the logical iteration
  // axis, so the trace is identical however the starts are scheduled.
  const bool record = obs::enabled();
  const std::string track =
      record ? "solver/start" + std::to_string(start_index) : std::string();

  const auto clamp_box = [&](std::size_t i, double v) {
    return std::clamp(v, 0.0, x_hi[i]);
  };

  for (std::size_t round = 0; round < config_.continuation_rounds; ++round) {
    ++rounds_entered;
    const std::size_t round_first_iteration = total_iterations;
    const double scale = model.phi(exp_all(x), p);
    if (!std::isfinite(scale)) {
      nonfinite = true;
      break;
    }
    const double mu_t = mu_t_rel * std::max(scale, 1e-12);

    double f = smoothed_objective(model, p, x, mu_x, mu_t, grad);
    double step = config_.initial_step;
    last_round_converged = false;

    if (!std::isfinite(f)) {
      nonfinite = true;
      break;
    }

    for (std::size_t iter = 0; iter < config_.max_inner_iterations; ++iter) {
      if (config_.work_unit_budget > 0 &&
          total_iterations >= config_.work_unit_budget) {
        budget_hit = true;
        break;
      }
      ++total_iterations;
      if (cancel != nullptr) cancel->charge(1, "solver/iteration");

      // Normalize the step by the objective scale so descent behaves
      // uniformly whether Phi is milliseconds or minutes. A non-finite
      // objective must not poison the divisor (std::max(NaN, c) returns
      // NaN): fall back to the floor so the projected step — and hence
      // the allocation — stays finite even on pathological objectives.
      const double gscale = std::isfinite(f) ? std::max(f, 1e-12) : 1e-12;

      // Projected-gradient stationarity measure: the unit-step projected
      // move, relative to the box width.
      double pg_norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        pg_norm = std::max(
            pg_norm,
            std::abs(x[i] - clamp_box(i, x[i] - grad[i] / gscale)));
      }
      last_pg_norm = pg_norm;
      if (record) solver_metrics().pg_norm.observe_unchecked(pg_norm);
      if (!std::isfinite(pg_norm)) {
        nonfinite = true;
        break;
      }
      if (pg_norm <= config_.gradient_tolerance * (1.0 + x_max)) {
        last_round_converged = true;
        break;
      }

      // Backtracking line search on the projected step.
      bool accepted = false;
      for (std::size_t bt = 0; bt < config_.max_backtracks; ++bt) {
        double decrease_bound = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          x_next[i] = clamp_box(i, x[i] - step * grad[i] / gscale);
          decrease_bound += grad[i] * (x[i] - x_next[i]);
        }
        const double f_next =
            smoothed_objective(model, p, x_next, mu_x, mu_t, {});
        if (f_next <= f - config_.armijo_c * decrease_bound) {
          x.swap(x_next);
          f = smoothed_objective(model, p, x, mu_x, mu_t, grad);
          step = std::min(step * 2.0, 16.0);
          accepted = true;
          break;
        }
        step *= config_.backtrack_factor;
        ++total_backtracks;
        if (cancel != nullptr) cancel->charge(1, "solver/backtrack");
      }
      if (accepted && cancel != nullptr) cancel->progress();
      if (!accepted) {
        // Line search stalled: we are at numerical stationarity for this
        // temperature.
        last_round_converged = true;
        break;
      }
    }

    mu_x *= config_.continuation_factor;
    mu_t_rel *= config_.continuation_factor;

    if (record) {
      obs::Tracer::global().record(obs::Span{
          track, "round" + std::to_string(round),
          static_cast<double>(round_first_iteration),
          static_cast<double>(total_iterations - round_first_iteration)});
    }
    if (nonfinite || budget_hit) break;
  }

  if (record) {
    solver_metrics().starts.add_unchecked(1);
    solver_metrics().iterations.add_unchecked(total_iterations);
    solver_metrics().backtracks.add_unchecked(total_backtracks);
    solver_metrics().rounds.add_unchecked(rounds_entered);
    if (nonfinite) solver_metrics().nonfinite_events.add_unchecked(1);
    if (budget_hit) solver_metrics().budget_exhausted.add_unchecked(1);
  }

  AllocationResult result = finish_result(model, p, exp_all(x));
  for (double& a : result.allocation) a = std::clamp(a, 1.0, p);
  result.iterations = total_iterations;
  result.continuation_rounds = rounds_entered;
  result.final_gradient_norm = last_pg_norm;
  if (!result.finite()) nonfinite = true;
  if (nonfinite) {
    result.status = SolveStatus::kNonFinite;
  } else if (last_round_converged) {
    result.status = SolveStatus::kConverged;
  } else if (budget_hit) {
    result.status = SolveStatus::kBudgetExhausted;
  } else {
    result.status = SolveStatus::kStalled;
  }
  result.converged = result.status == SolveStatus::kConverged;
  return result;
}

AllocationResult naive_allocation(const cost::CostModel& model, double p) {
  PARADIGM_CHECK(p >= 1.0, "machine size must be >= 1");
  AllocationResult result = finish_result(
      model, p, std::vector<double>(model.graph().node_count(), p));
  result.converged = true;
  result.status = SolveStatus::kConverged;
  return result;
}

AllocationResult serial_node_allocation(const cost::CostModel& model,
                                        double p) {
  PARADIGM_CHECK(p >= 1.0, "machine size must be >= 1");
  AllocationResult result = finish_result(
      model, p, std::vector<double>(model.graph().node_count(), 1.0));
  result.converged = true;
  result.status = SolveStatus::kConverged;
  return result;
}

AllocationResult greedy_doubling_allocation(const cost::CostModel& model,
                                            double p) {
  PARADIGM_CHECK(p >= 1.0, "machine size must be >= 1");
  const std::size_t n = model.graph().node_count();
  std::vector<double> alloc(n, 1.0);
  double best_phi = model.phi(alloc, p);
  std::size_t iterations = 0;

  while (true) {
    ++iterations;
    std::size_t best_node = n;
    double best_candidate = best_phi;
    for (std::size_t i = 0; i < n; ++i) {
      if (alloc[i] * 2.0 > p) continue;
      alloc[i] *= 2.0;
      const double candidate = model.phi(alloc, p);
      alloc[i] /= 2.0;
      if (candidate < best_candidate - 1e-15) {
        best_candidate = candidate;
        best_node = i;
      }
    }
    if (best_node == n) break;
    alloc[best_node] *= 2.0;
    best_phi = best_candidate;
  }

  AllocationResult result = finish_result(model, p, std::move(alloc));
  result.iterations = iterations;
  result.converged = true;
  result.status = SolveStatus::kConverged;
  return result;
}

AllocationResult area_proportional_allocation(const cost::CostModel& model,
                                              double p) {
  PARADIGM_CHECK(p >= 1.0, "machine size must be >= 1");
  const mdg::Mdg& graph = model.graph();
  const std::size_t n = graph.node_count();

  double tau_max = 0.0;
  for (std::size_t id = 0; id < n; ++id) {
    const double tau = model.amdahl(id).tau;
    if (std::isfinite(tau) && tau > tau_max) tau_max = tau;
  }

  std::vector<double> alloc(n, 1.0);
  if (tau_max > 0.0) {
    for (std::size_t id = 0; id < n; ++id) {
      const double tau = model.amdahl(id).tau;
      if (!std::isfinite(tau) || tau <= 0.0) continue;
      alloc[id] = std::clamp(p * tau / tau_max, 1.0, p);
    }
  }
  // Per-node processor caps still apply.
  for (const auto& node : graph.nodes()) {
    if (node.kind == mdg::NodeKind::kLoop && node.loop.max_processors > 0) {
      alloc[node.id] = std::min(
          alloc[node.id],
          std::max(1.0, static_cast<double>(node.loop.max_processors)));
    }
  }

  AllocationResult result = finish_result(model, p, std::move(alloc));
  result.converged = true;
  result.status = SolveStatus::kConverged;
  return result;
}

GuardedAllocation allocate_with_recovery(const cost::CostModel& model,
                                         double p,
                                         const ConvexAllocatorConfig& config,
                                         const RecoveryConfig& recovery,
                                         degrade::DegradationLevel start_level,
                                         std::span<const double> warm_start) {
  using degrade::DegradationLevel;
  using degrade::Diagnostic;
  using degrade::DiagnosticCode;
  using degrade::Severity;

  GuardedAllocation out;
  DegradationLevel level = start_level;

  // Per-rung memory charges (DESIGN §15): each rung reserves exactly
  // the workspace it will allocate and releases it when it returns, so
  // rungs never stack and a thriftier rung can succeed where a descent
  // rung tripped the budget. A MemoryError thrown here derives from
  // Cancelled and takes the rethrow path below — mid-solve exhaustion
  // unwinds to the caller instead of walking the ladder, because the
  // service owns the escalate-or-fail decision.
  const std::size_t nodes = model.graph().node_count();
  const auto attempt = [&](DegradationLevel rung) -> AllocationResult {
    switch (rung) {
      case DegradationLevel::kNone: {
        const MemoryCharge charge(
            config.memory,
            footprint::solver_descent_bytes(nodes, config.num_starts),
            "solver/descent");
        return ConvexAllocator(config).reallocate(model, p, warm_start);
      }
      case DegradationLevel::kMultiStartRetry: {
        ConvexAllocatorConfig c = config;
        c.num_starts = std::max(c.num_starts + 1, recovery.retry_starts);
        const MemoryCharge charge(
            config.memory,
            footprint::solver_descent_bytes(nodes, c.num_starts),
            "solver/retry");
        return ConvexAllocator(c).allocate(model, p);
      }
      case DegradationLevel::kSmoothingRestart: {
        ConvexAllocatorConfig c = config;
        c.num_starts = std::max(c.num_starts + 1, recovery.retry_starts);
        c.mu_x_initial = recovery.smoothing_mu_x;
        c.mu_t_rel_initial = recovery.smoothing_mu_t_rel;
        c.continuation_rounds += recovery.smoothing_extra_rounds;
        const MemoryCharge charge(
            config.memory,
            footprint::solver_descent_bytes(nodes, c.num_starts),
            "solver/smoothing");
        return ConvexAllocator(c).allocate(model, p);
      }
      case DegradationLevel::kAreaProportional: {
        const MemoryCharge charge(config.memory,
                                  footprint::solver_analytic_bytes(nodes),
                                  "solver/analytic");
        return area_proportional_allocation(model, p);
      }
      case DegradationLevel::kHomogeneous: {
        const MemoryCharge charge(config.memory,
                                  footprint::solver_analytic_bytes(nodes),
                                  "solver/analytic");
        return naive_allocation(model, p);
      }
      case DegradationLevel::kSerial:
        break;
    }
    const MemoryCharge charge(config.memory,
                              footprint::solver_analytic_bytes(nodes),
                              "solver/analytic");
    return serial_node_allocation(model, p);
  };

  while (true) {
    const std::string subject =
        std::string("solver/") + degrade::to_string(level);
    bool accepted = false;
    try {
      AllocationResult result = attempt(level);
      if (result.finite()) {
        accepted = true;
        if (result.status == SolveStatus::kStalled &&
            level != DegradationLevel::kNone) {
          // A stall on the undegraded rung is classified on the result
          // (SolveStatus::kStalled) but deliberately NOT diagnosed:
          // fine descents routinely end at numerical stationarity, and
          // a clean run must stay byte-identical to the pre-ladder
          // pipeline.
          out.diagnostics.push_back(Diagnostic{
              DiagnosticCode::kSolverStalled, Severity::kWarning, subject,
              result.summary()});
        } else if (result.status == SolveStatus::kBudgetExhausted) {
          out.diagnostics.push_back(Diagnostic{
              DiagnosticCode::kSolverBudgetExhausted, Severity::kWarning,
              subject, result.summary()});
        }
        out.result = std::move(result);
      } else {
        out.diagnostics.push_back(Diagnostic{DiagnosticCode::kSolverNonFinite,
                                             Severity::kError, subject,
                                             result.summary()});
        if (level == DegradationLevel::kSerial) {
          // Last resort: even a non-finite serial result is returned
          // (the diagnostics explain it), so the ladder always ends.
          accepted = true;
          out.result = std::move(result);
        }
      }
    } catch (const Cancelled&) {
      // Cancellation is not a solver failure: unwind to the pipeline
      // facade instead of walking the ladder.
      throw;
    } catch (const Error& e) {
      out.diagnostics.push_back(Diagnostic{DiagnosticCode::kSolverException,
                                           Severity::kError, subject,
                                           e.what()});
      if (level == DegradationLevel::kSerial) {
        out.result = AllocationResult{};
        out.result.allocation.assign(model.graph().node_count(), 1.0);
        out.result.status = SolveStatus::kNonFinite;
        accepted = true;
      }
    }
    if (accepted) {
      out.level = level;
      if (level != DegradationLevel::kNone) {
        out.diagnostics.push_back(Diagnostic{
            DiagnosticCode::kRecoveryApplied, Severity::kInfo, subject,
            "accepted allocation from recovery rung " +
                std::to_string(static_cast<int>(level))});
      }
      return out;
    }
    level = degrade::next_level(level);
  }
}

}  // namespace paradigm::solver
