// Cancellation safety (DESIGN §11). Two layers:
//
//  * CancelToken unit semantics — deadline/watchdog/external trip
//    rules, precedence, and the deterministic parallel-Region
//    accounting (trip on base + local, index-order commit);
//  * a pipeline cancellation sweep — run once to learn the total tick
//    count T, then cancel at *every* charge boundary in [1, T] (strided
//    only when T is large) and assert each partial PipelineReport is
//    internally consistent: finite committed values, a cancellation
//    diagnostic, no invariant violations, and monotone tick accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "core/programs.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace paradigm {
namespace {

// ---- CancelToken semantics ---------------------------------------------------

TEST(CancelToken, DeadlineTrips) {
  CancelToken token(5);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(token.tick());
  EXPECT_TRUE(token.tick());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(token.ticks(), 5u);
  EXPECT_THROW(token.checkpoint("test"), Cancelled);
}

TEST(CancelToken, ZeroDeadlineIsUnlimited) {
  CancelToken token;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.tick());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(CancelToken, WatchdogTripsWithoutProgress) {
  CancelToken token(0, 3);
  EXPECT_FALSE(token.tick());
  EXPECT_FALSE(token.tick());
  token.progress();  // Stall counter resets; the budget does not.
  EXPECT_FALSE(token.tick());
  EXPECT_FALSE(token.tick());
  EXPECT_TRUE(token.tick());
  EXPECT_EQ(token.reason(), CancelReason::kWatchdog);
}

TEST(CancelToken, ExternalWinsPrecedence) {
  CancelToken token(1, 1);
  token.tick();  // Deadline and watchdog are both already trippable.
  token.cancel();
  EXPECT_EQ(token.reason(), CancelReason::kExternal);
  try {
    token.checkpoint("here");
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.reason(), CancelReason::kExternal);
    EXPECT_NE(std::string(c.what()).find("here"), std::string::npos);
  }
}

TEST(CancelToken, CancelledIsAnError) {
  // Legacy catch(Error) sites keep compiling; Cancelled must still be
  // distinguishable (handlers catch it first and rethrow).
  CancelToken token;
  token.cancel();
  EXPECT_THROW(token.checkpoint("x"), Error);
}

TEST(CancelToken, RegionTripsOnBasePlusLocal) {
  CancelToken parent(10);
  parent.tick(8);  // base = 8.
  CancelToken::Region region(parent);
  EXPECT_FALSE(region.tick());  // 8 + 1.
  EXPECT_TRUE(region.tick());   // 8 + 2 >= 10.
  EXPECT_EQ(region.reason(), CancelReason::kDeadline);
  // The parent has not been charged yet: Region accounting is local
  // until the join commits it.
  EXPECT_EQ(parent.ticks(), 8u);
  EXPECT_THROW(region.charge(1, "region"), Cancelled);
}

TEST(CancelToken, RegionCommitFoldsWatchdogState) {
  CancelToken token(0, 100);
  token.tick(60);  // Stall = 60.
  // A region whose tasks made progress resets the stall at the join.
  token.commit_region(50, /*any_progress=*/true);
  EXPECT_EQ(token.ticks(), 110u);
  EXPECT_FALSE(token.tripped());
  // One with no progress accumulates the whole region into the stall.
  token.commit_region(100, /*any_progress=*/false);
  EXPECT_EQ(token.reason(), CancelReason::kWatchdog);
}

TEST(CancelToken, RegionIndependentOfSiblingInterleaving) {
  // Two tasks of the same region each see only base + their own ticks,
  // so the trip point of task k is a pure function of k.
  CancelToken parent(10);
  parent.tick(5);
  CancelToken::Region a(parent);
  CancelToken::Region b(parent);
  a.tick(4);           // 5 + 4 < 10: alive.
  EXPECT_FALSE(a.tripped());
  b.tick(5);           // 5 + 5 >= 10: tripped regardless of a.
  EXPECT_TRUE(b.tripped());
  EXPECT_FALSE(a.tripped());
}

// ---- Pipeline sweep ----------------------------------------------------------

core::PipelineConfig sweep_config() {
  core::PipelineConfig config;
  config.processors = 8;
  config.machine.size = 8;
  config.machine.noise_sigma = 0.0;
  config.calibration_mode = core::CalibrationMode::kStatic;
  config.solver.max_inner_iterations = 25;
  config.solver.continuation_rounds = 2;
  return config;
}

void check_partial_report(const core::PipelineReport& report,
                          std::uint64_t deadline) {
  // The cancellation must be attributed and accounted.
  EXPECT_EQ(report.cancel_reason, CancelReason::kDeadline);
  EXPECT_GE(report.cancel_ticks, deadline);
  bool saw_cancel_diag = false;
  for (const auto& d : report.diagnostics) {
    if (d.code == degrade::DiagnosticCode::kDeadlineExceeded) {
      saw_cancel_diag = true;
    }
  }
  EXPECT_TRUE(saw_cancel_diag) << "deadline=" << deadline;
  // Whatever the pipeline committed before the trip must be finite and
  // well-formed — a cancelled job may be partial, never poisoned.
  EXPECT_TRUE(std::isfinite(report.allocation.phi));
  EXPECT_GE(report.allocation.phi, 0.0);
  for (const double share : report.allocation.allocation) {
    EXPECT_TRUE(std::isfinite(share));
  }
  if (report.psa) {
    EXPECT_TRUE(std::isfinite(report.psa->finish_time));
    EXPECT_GE(report.psa->finish_time, 0.0);
  }
  EXPECT_TRUE(std::isfinite(report.mpmd.simulated));
  EXPECT_TRUE(std::isfinite(report.serial_seconds));
}

TEST(CancelSweep, EveryBoundaryUnwindsToConsistentPartialReport) {
  const mdg::Mdg graph = core::figure1_example();

  // Baseline: count the run's total charge boundaries.
  core::PipelineConfig config = sweep_config();
  CancelToken counter;
  config.cancel = &counter;
  const core::Compiler baseline_compiler(config);
  const core::PipelineReport baseline =
      baseline_compiler.compile_and_run(graph);
  ASSERT_FALSE(baseline.cancelled);
  const std::uint64_t total = counter.ticks();
  ASSERT_GT(total, 0u);

  // Sweep every boundary (strided when the run is long, so the test
  // stays bounded while still crossing every stage transition).
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / 256);
  std::size_t cancelled_runs = 0;
  for (std::uint64_t deadline = 1; deadline <= total; deadline += stride) {
    CancelToken token(deadline);
    core::PipelineConfig swept = sweep_config();
    swept.cancel = &token;
    const core::Compiler compiler(swept);
    const core::PipelineReport report = compiler.compile_and_run(graph);
    if (!report.cancelled) {
      // Charges after the last checkpoint can leave a tail where the
      // budget is never re-checked; such runs must equal the baseline.
      EXPECT_EQ(report.allocation.phi, baseline.allocation.phi)
          << "deadline=" << deadline;
      continue;
    }
    ++cancelled_runs;
    check_partial_report(report, deadline);
  }
  EXPECT_GT(cancelled_runs, 0u);

  // A cancelled run with the deadline raised past T reproduces the
  // uncancelled result bit-for-bit (cancellation checks are free).
  CancelToken roomy(total * 2);
  core::PipelineConfig with_room = sweep_config();
  with_room.cancel = &roomy;
  const core::Compiler compiler(with_room);
  const core::PipelineReport rerun = compiler.compile_and_run(graph);
  EXPECT_FALSE(rerun.cancelled);
  EXPECT_EQ(rerun.allocation.phi, baseline.allocation.phi);
  EXPECT_EQ(rerun.mpmd.simulated, baseline.mpmd.simulated);
  EXPECT_EQ(counter.ticks(), roomy.ticks());
}

TEST(CancelSweep, LiveUnlimitedTokenIsBitIdenticalToNullToken) {
  // The checkpoints are checks, not behaviour: a live token that never
  // trips must leave every pipeline output bit-identical to the
  // token-free path, for the single-start descent and for the
  // Region-accounted multi-start one.
  const mdg::Mdg graph = core::complex_matmul_mdg(16);
  for (const std::size_t starts : {1u, 4u}) {
    core::PipelineConfig config = sweep_config();
    config.solver.num_starts = starts;
    const core::PipelineReport plain =
        core::Compiler(config).compile_and_run(graph);

    CancelToken token;  // deadline 0, no stall limit: never trips.
    config.cancel = &token;
    const core::PipelineReport live =
        core::Compiler(config).compile_and_run(graph);

    // The token was charged, so the comparison is not vacuous.
    EXPECT_GT(token.ticks(), 0u) << "starts=" << starts;
    EXPECT_FALSE(live.cancelled);
    EXPECT_EQ(live.allocation.allocation, plain.allocation.allocation)
        << "starts=" << starts;
    EXPECT_EQ(live.allocation.phi, plain.allocation.phi);
    ASSERT_TRUE(plain.psa.has_value());
    ASSERT_TRUE(live.psa.has_value());
    EXPECT_EQ(live.psa->finish_time, plain.psa->finish_time);
    EXPECT_EQ(live.mpmd.simulated, plain.mpmd.simulated);
  }
}

TEST(CancelSweep, ParallelMultiStartCancelsDeterministically) {
  // With multi-start descent the trip tick must not depend on the
  // thread count: same deadline, 1 vs 4 threads, identical partials.
  const mdg::Mdg graph = core::figure1_example();
  const auto run_at = [&](std::size_t threads, std::uint64_t deadline) {
    set_thread_count(threads);
    CancelToken token(deadline);
    core::PipelineConfig config = sweep_config();
    config.solver.num_starts = 4;
    config.cancel = &token;
    const core::Compiler compiler(config);
    const core::PipelineReport report = compiler.compile_and_run(graph);
    set_thread_count(0);
    return std::make_tuple(report.cancelled, report.cancel_ticks,
                           report.allocation.phi, token.ticks());
  };
  for (const std::uint64_t deadline : {5u, 37u, 113u, 419u, 1021u}) {
    EXPECT_EQ(run_at(1, deadline), run_at(4, deadline))
        << "deadline=" << deadline;
  }
}

}  // namespace
}  // namespace paradigm
