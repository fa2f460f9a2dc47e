// Convex-programming processor allocation (Section 2 of the paper).
//
// Minimizes Phi = max(A_p, C_p) over continuous allocations
// p_i in [1, p]. After the geometric-programming substitution
// x_i = ln p_i every cost term is convex in x (posynomials become sums
// of exp(affine); the max(p_i, p_j) terms become exp of a convex soft
// max; the critical-path recurrence is a max of sums of convex terms),
// so the global optimum is found by smoothed first-order descent:
//
//   * the per-node max over predecessors and the outer max(A_p, C_p)
//     are replaced by log-sum-exp with temperature mu_t (seconds),
//   * max(p_i, p_j) inside transfer costs uses a soft max with
//     dimensionless temperature mu_x,
//   * projected gradient descent with Armijo backtracking runs to
//     stationarity, then the temperatures are tightened (continuation)
//     until the smoothing gap is negligible.
//
// Gradients flow through the DAG recurrence by a reverse (adjoint) pass.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "cost/model.hpp"
#include "support/cancel.hpp"
#include "support/degrade.hpp"
#include "support/memory.hpp"

namespace paradigm::solver {

/// How a solve ended (DESIGN §10). Only kNonFinite makes the result
/// unusable; a stalled or budget-exhausted descent still returns the
/// best (finite) point it reached.
enum class SolveStatus {
  kConverged,        ///< Projected-gradient tolerance met.
  kStalled,          ///< Iteration cap hit before the tolerance.
  kBudgetExhausted,  ///< Deterministic work-unit budget hit.
  kNonFinite,        ///< NaN/Inf objective, gradient, or allocation.
};

const char* to_string(SolveStatus status);

/// Result of an allocation pass.
struct AllocationResult {
  /// Continuous processors per node (indexed by node id), in [1, p].
  std::vector<double> allocation;
  double phi = 0.0;            ///< Exact Phi = max(A_p, C_p) at `allocation`.
  double average_time = 0.0;   ///< Exact A_p.
  double critical_path = 0.0;  ///< Exact C_p.
  std::size_t iterations = 0;  ///< Total inner gradient steps.
  /// Continuation rounds entered: fewer than configured when the
  /// descent stopped early on the work-unit budget or a non-finite value.
  std::size_t continuation_rounds = 0;
  bool converged = false;      ///< status == kConverged (kept in sync).
  double final_gradient_norm = 0.0;
  SolveStatus status = SolveStatus::kStalled;

  /// True iff allocation, Phi, A_p and C_p are all finite.
  bool finite() const;

  std::string summary() const;
};

/// Tuning knobs for the convex allocator. Defaults are robust for MDGs
/// up to a few hundred nodes.
struct ConvexAllocatorConfig {
  double mu_x_initial = 0.5;     ///< Soft-max temperature on x (dimensionless).
  double mu_t_rel_initial = 0.05;  ///< LSE temperature relative to Phi.
  double continuation_factor = 0.25;  ///< Temperature shrink per round.
  std::size_t continuation_rounds = 5;
  std::size_t max_inner_iterations = 600;
  double gradient_tolerance = 1e-7;  ///< On the projected gradient norm,
                                     ///< relative to the objective.
  double initial_step = 0.5;
  double armijo_c = 1e-4;
  double backtrack_factor = 0.5;
  std::size_t max_backtracks = 60;

  /// Number of deterministic descent starts (>= 1). Start 0 is the
  /// legacy start (the warm start when one is given, else the box
  /// midpoint); start k >= 1 draws its initial point from
  /// Rng(start_seed).stream(k). The starts are evaluated concurrently
  /// on the global thread pool (support/parallel.hpp) and the lowest
  /// Phi wins, ties broken toward the lowest start index — so the
  /// result is bit-identical for any thread count, and num_starts = 1
  /// reproduces the single-start solver exactly.
  std::size_t num_starts = 1;
  std::uint64_t start_seed = 0x51a7c0de1994ULL;

  /// Deterministic work-unit budget: maximum inner iterations per
  /// descent (across all continuation rounds), 0 = unlimited. Counted
  /// in iterations, never wallclock, so exhaustion is reproducible
  /// bit-for-bit on any machine. An exhausted descent returns its best
  /// point with SolveStatus::kBudgetExhausted.
  std::size_t work_unit_budget = 0;

  /// Cooperative cancellation (DESIGN §11): when set, every descent
  /// iteration and Armijo backtrack charges one logical tick and
  /// throws Cancelled once the token trips. Multi-start descents
  /// charge through per-start CancelToken::Region accounting, so the
  /// tick at which a solve is cancelled is bit-identical across thread
  /// counts. Null (the default) is byte-identical to the pre-service
  /// solver. Not owned.
  CancelToken* cancel = nullptr;

  /// Memory budget (DESIGN §15): when set, each recovery-ladder rung
  /// charges its workspace footprint (descent rungs scale with the
  /// start count; analytic rungs charge one allocation vector) before
  /// solving, released when the rung returns. An exhausted charge
  /// throws MemoryError and unwinds like a cancellation. Not hashed by
  /// the cache's policy digest — accounting never changes the solution.
  /// Null (the default) disables accounting. Not owned.
  MemoryBudget* memory = nullptr;
};

/// Solves the convex allocation problem for `model` on a p-processor
/// machine. Throws paradigm::Error on invalid inputs.
class ConvexAllocator {
 public:
  explicit ConvexAllocator(ConvexAllocatorConfig config = {})
      : config_(config) {}

  AllocationResult allocate(const cost::CostModel& model, double p) const;

  /// Re-solves the allocation on a (typically smaller) machine of
  /// `p_new` processors, warm-starting the descent from `previous`
  /// (clamped into [1, p_new]). Used by fault-tolerant rescheduling,
  /// where the residual problem is close to the original one. An empty
  /// `previous` falls back to the cold start of allocate().
  AllocationResult reallocate(const cost::CostModel& model, double p_new,
                              std::span<const double> previous) const;

  /// Smoothed objective and dense gradient at x = ln p; exposed for
  /// gradient-check tests. mu_t is in seconds, mu_x dimensionless.
  double smoothed_objective(const cost::CostModel& model, double p,
                            std::span<const double> x, double mu_x,
                            double mu_t, std::span<double> grad) const;

 private:
  AllocationResult solve(const cost::CostModel& model, double p,
                         std::span<const double> warm_start) const;

  /// One continuation descent from the initial point `x` (log-space),
  /// box-constrained to [0, x_hi]. `start_index` names the trace row
  /// ("solver/start<k>") when observability is on. `cancel`, when
  /// non-null, receives one tick per iteration/backtrack and a
  /// progress mark per accepted step; a tripped region throws
  /// Cancelled.
  AllocationResult descend(const cost::CostModel& model, double p,
                           std::span<const double> x_hi,
                           std::vector<double> x, std::size_t start_index,
                           CancelToken::Region* cancel = nullptr) const;

  ConvexAllocatorConfig config_;
};

/// The all-processors ("pure data parallel" / SPMD) allocation: every
/// node gets all p processors. The baseline the paper compares against.
AllocationResult naive_allocation(const cost::CostModel& model, double p);

/// Single-processor-per-node allocation (pure functional parallelism).
AllocationResult serial_node_allocation(const cost::CostModel& model,
                                        double p);

/// Greedy marginal-gain heuristic in the spirit of the authors' earlier
/// work [Ramaswamy & Banerjee, ICPP'93]: all nodes start at 1 processor
/// and the node whose doubling most reduces Phi is repeatedly doubled
/// until no doubling helps. Used as an ablation baseline for the convex
/// formulation.
AllocationResult greedy_doubling_allocation(const cost::CostModel& model,
                                            double p);

/// Analytic area-proportional allocation (recovery rung 3): p_i
/// proportional to the node's single-processor time tau_i, normalized
/// so the heaviest node gets all p processors. Nodes with zero or
/// non-finite tau get 1. Needs no descent, so it cannot stall and is
/// finite whenever the (sanitized) taus are.
AllocationResult area_proportional_allocation(const cost::CostModel& model,
                                              double p);

/// Tuning for the recovery ladder rungs that re-run the convex solver.
struct RecoveryConfig {
  /// Rung 1 re-solves with at least this many deterministic starts.
  std::size_t retry_starts = 8;
  /// Rung 2 additionally softens the smoothing schedule: heavier
  /// initial temperatures and extra continuation rounds ride through
  /// flat/ill-conditioned regions that defeat the default schedule.
  double smoothing_mu_x = 2.0;
  double smoothing_mu_t_rel = 0.5;
  std::size_t smoothing_extra_rounds = 2;
};

/// Allocation plus the degradation bookkeeping the pipeline reports.
struct GuardedAllocation {
  AllocationResult result;
  degrade::DegradationLevel level = degrade::DegradationLevel::kNone;
  std::vector<degrade::Diagnostic> diagnostics;
};

/// Walks the recovery ladder (DESIGN §10) starting at `start_level`:
/// convex solve -> multi-start retry -> smoothing restart -> analytic
/// area-proportional -> homogeneous -> serial. Each rung is accepted
/// only if its result is finite; every rejection and the final recovery
/// are recorded as structured diagnostics. The serial rung always
/// terminates the ladder. Deterministic: rung selection depends only on
/// value checks, never on time.
///
/// `warm_start`, when non-empty, seeds the *undegraded* rung's descent
/// (ConvexAllocator::reallocate semantics; must cover the graph's node
/// count). Recovery rungs deliberately ignore it: they exist to escape
/// a bad basin, and re-seeding them from a neighbor would defeat that.
GuardedAllocation allocate_with_recovery(
    const cost::CostModel& model, double p,
    const ConvexAllocatorConfig& config = {},
    const RecoveryConfig& recovery = {},
    degrade::DegradationLevel start_level = degrade::DegradationLevel::kNone,
    std::span<const double> warm_start = {});

}  // namespace paradigm::solver
