// Application tests: heat3d physics + checkpoint/restart transparency, ring,
// cgproxy, and the §V-D failure-mode observations.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/cgproxy.hpp"
#include "apps/heat3d.hpp"
#include "apps/ring.hpp"
#include "core/runner.hpp"
#include "sim_test_util.hpp"

namespace exasim {
namespace {

using apps::HeatParams;
using apps::HeatReport;
using core::ResilientRunner;
using core::RunnerConfig;
using core::RunnerResult;
using core::SimResult;
using test::run_app;
using test::tiny_config;

test::QuietLogs quiet;

HeatParams heat_8ranks(int interval, int iters = 40) {
  HeatParams p;
  p.nx = p.ny = p.nz = 8;
  p.px = p.py = p.pz = 2;
  p.total_iterations = iters;
  p.halo_interval = interval;
  p.checkpoint_interval = interval;
  p.work_units_per_point = 100.0;
  return p;
}

TEST(Heat3D, CompletesAndProducesFiniteChecksum) {
  std::vector<HeatReport> reports(8);
  RunnerConfig rc;
  rc.base = tiny_config(8);
  ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(10), &reports));
  RunnerResult res = runner.run();
  ASSERT_TRUE(res.completed);
  for (const auto& r : reports) {
    EXPECT_EQ(r.completed_iterations, 40);
    EXPECT_TRUE(std::isfinite(r.checksum));
  }
}

TEST(Heat3D, DiffusionConservesHeatApproximately) {
  // With the explicit scheme and halo exchange every iteration, the global
  // sum is conserved up to boundary losses; with a symmetric initial
  // condition it stays finite and bounded.
  std::vector<HeatReport> reports(8);
  RunnerConfig rc;
  rc.base = tiny_config(8);
  ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(1, 10), &reports));
  ASSERT_TRUE(runner.run().completed);
  double total = 0;
  for (const auto& r : reports) total += r.checksum;
  EXPECT_TRUE(std::isfinite(total));
  EXPECT_LT(std::abs(total), 1e6);
}

TEST(Heat3D, ChecksumIdenticalWithAndWithoutFailure) {
  // The acid test of application-level checkpoint/restart: a failure +
  // restart must reproduce the exact same physics as a failure-free run
  // (same iteration count, bit-identical state at halo-exchange points).
  auto run_heat = [&](std::vector<FailureSpec> failures) {
    std::vector<HeatReport> reports(8);
    RunnerConfig rc;
    rc.base = tiny_config(8);
    rc.first_run_failures = std::move(failures);
    ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(10), &reports));
    EXPECT_TRUE(runner.run().completed);
    std::vector<double> sums;
    for (const auto& r : reports) sums.push_back(r.checksum);
    return sums;
  };
  const auto clean = run_heat({});
  // ~6.4 us/iteration: this failure lands around iteration 16 of 40.
  const auto failed = run_heat({FailureSpec{5, sim_us(100)}});
  ASSERT_EQ(clean.size(), failed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_DOUBLE_EQ(clean[i], failed[i]) << "rank " << i;
  }
}

/// A heat3d configuration whose per-rank checksums are pinned bit-exactly:
/// global grid, process grid, and the halo (= checkpoint) interval.
struct PinnedRun {
  int nx, ny, nz, px, py, pz;
  int interval;
};

/// Runs `run` for 12 iterations (with `failures` injected into the first
/// launch) and returns the per-rank checksums.
std::vector<double> heat_checksums(const PinnedRun& run, std::vector<FailureSpec> failures = {},
                                   RunnerResult* result = nullptr) {
  HeatParams p;
  p.nx = run.nx;
  p.ny = run.ny;
  p.nz = run.nz;
  p.px = run.px;
  p.py = run.py;
  p.pz = run.pz;
  p.total_iterations = 12;
  p.halo_interval = run.interval;
  p.checkpoint_interval = run.interval;
  p.work_units_per_point = 100.0;
  const int ranks = run.px * run.py * run.pz;
  std::vector<HeatReport> reports(static_cast<std::size_t>(ranks));
  RunnerConfig rc;
  rc.base = tiny_config(ranks);
  rc.first_run_failures = std::move(failures);
  ResilientRunner runner(rc, apps::make_heat3d(p, &reports));
  RunnerResult res = runner.run();
  EXPECT_TRUE(res.completed);
  if (result != nullptr) *result = res;
  std::vector<double> sums;
  for (const auto& r : reports) sums.push_back(r.checksum);
  return sums;
}

// Local dims 3, 5, 6, 9 and an uneven 5x6x7 block (no y neighbours), none a
// multiple of the stencil's vector width, with halo exchange every 1 or 3
// iterations.
constexpr PinnedRun kCube3{6, 6, 6, 2, 2, 2, 1};
constexpr PinnedRun kCube5{10, 10, 10, 2, 2, 2, 3};
constexpr PinnedRun kCube6{12, 12, 12, 2, 2, 2, 1};
constexpr PinnedRun kCube9{18, 18, 18, 2, 2, 2, 3};
constexpr PinnedRun kUneven{10, 6, 14, 2, 1, 2, 1};

// Captured before the kernel was vectorised; see ChecksumsArePinnedBitExactly.
const std::vector<double> kCube3Sums = {
    0x1.1f71d7d69a54ap+4, 0x1.360bb74b3b91bp+4, 0x1.15cf213832fb2p+4, 0x1.2c6900acd4384p+4,
    0x1.25c34140d679dp+4, 0x1.3c5d20b577b6ep+4, 0x1.1c208aa26f206p+4, 0x1.32ba6a17105d7p+4
};
const std::vector<double> kCube5Sums = {
    0x1.eef2a800b823dp+6, 0x1.22ddc0fb83b03p+7, 0x1.aaa903fec1ae7p+6, 0x1.00b8eefa88756p+7,
    0x1.001773138a4e7p+7, 0x1.2b7be00eb1eccp+7, 0x1.bbe542251e27bp+6, 0x1.09570e0db6b21p+7
};
const std::vector<double> kCube6Sums = {
    0x1.14aeffa0a8ee8p+8, 0x1.4adf600270879p+8, 0x1.bf0738fbce2bcp+7, 0x1.15b3fcdfaeae7p+8,
    0x1.1d0463c9c989ep+8, 0x1.5334c42b91224p+8, 0x1.cfb2014e0f62bp+7, 0x1.1e096108cf49dp+8
};
const std::vector<double> kCube9Sums = {
    0x1.09cc41fbe1569p+10, 0x1.49664a80f5d0ap+10, 0x1.3d11583278a1cp+9, 0x1.bc45693ca193ep+9,
    0x1.081d0ccf48e55p+10, 0x1.47b715545d5efp+10, 0x1.39b2edd947bfbp+9, 0x1.b8e6fee370b17p+9
};
const std::vector<double> kUnevenSums = {
    0x1.c82525a0be074p+7, 0x1.095818f2f2d59p+8, 0x1.d2794ef21adacp+7, 0x1.0e822d9ba13f4p+8
};

TEST(Heat3D, ChecksumsArePinnedBitExactly) {
  // The kernel's arithmetic is part of the contract (DESIGN.md §2): any
  // reordering, fused multiply-add or fast-math rewrite moves these bits.
  EXPECT_EQ(heat_checksums(kCube3), kCube3Sums);
  EXPECT_EQ(heat_checksums(kCube5), kCube5Sums);
  EXPECT_EQ(heat_checksums(kCube6), kCube6Sums);
  EXPECT_EQ(heat_checksums(kCube9), kCube9Sums);
  EXPECT_EQ(heat_checksums(kUneven), kUnevenSums);
}

TEST(Heat3D, ChecksumsArePinnedAcrossARestart) {
  RunnerResult clean;
  heat_checksums(kCube5, {}, &clean);
  RunnerResult failed;
  const auto sums = heat_checksums(kCube5, {FailureSpec{5, clean.total_time / 2}}, &failed);
  EXPECT_EQ(failed.failures, 1);
  EXPECT_EQ(sums, kCube5Sums);
}

TEST(Heat3D, ModeledModeMatchesRealModeTiming) {
  auto total_time = [&](bool real) {
    HeatParams p = heat_8ranks(10);
    p.real_compute = real;
    RunnerConfig rc;
    rc.base = tiny_config(8);
    ResilientRunner runner(rc, apps::make_heat3d(p));
    RunnerResult res = runner.run();
    EXPECT_TRUE(res.completed);
    return res.total_time;
  };
  // Modeled (skeleton) execution must produce the same virtual time as real
  // execution — the whole point of the modeled path (DESIGN.md §2).
  EXPECT_EQ(total_time(true), total_time(false));
}

TEST(Heat3D, ShorterCheckpointIntervalCostsMoreWithoutFailures) {
  // The E1 column of Table II: more checkpoint cycles -> more time.
  auto e1 = [&](int interval) {
    RunnerConfig rc;
    rc.base = tiny_config(8);
    ResilientRunner runner(rc, apps::make_heat3d(heat_8ranks(interval)));
    RunnerResult res = runner.run();
    EXPECT_TRUE(res.completed);
    return res.total_time;
  };
  EXPECT_LT(e1(40), e1(5));
}

TEST(Heat3D, PhaseTelemetryTracksProgress) {
  apps::HeatTelemetry telemetry(8);
  HeatParams p = heat_8ranks(10);
  p.telemetry = &telemetry;
  RunnerConfig rc;
  rc.base = tiny_config(8);
  ResilientRunner runner(rc, apps::make_heat3d(p));
  ASSERT_TRUE(runner.run().completed);
  for (auto phase : telemetry.last_phase) {
    EXPECT_EQ(phase, apps::HeatPhase::kDone);
  }
}

TEST(Heat3D, FailureDuringComputeIsDetectedInHaloOrBarrier) {
  // §V-D: failures during the (dominant) compute phase are detected in the
  // halo exchange; the abort leaves survivors whose last phase is halo,
  // checkpoint, or barrier — never compute-completed-normally.
  apps::HeatTelemetry telemetry(8);
  HeatParams p = heat_8ranks(10);
  p.telemetry = &telemetry;
  auto cfg = tiny_config(8);
  // Mid-compute failure around iteration 15 of 40 (~6.4 us/iteration).
  cfg.failures = {FailureSpec{4, sim_us(96)}};
  core::Machine machine(cfg, apps::make_heat3d(p));
  ckpt::CheckpointStore store(8);
  machine.set_checkpoint_store(&store);
  SimResult r = machine.run();
  EXPECT_EQ(r.outcome, SimResult::Outcome::kAborted);
  int halo_or_later = 0;
  for (int rank = 0; rank < 8; ++rank) {
    if (rank == 4) continue;
    const auto phase = telemetry.last_phase[static_cast<std::size_t>(rank)];
    if (phase == apps::HeatPhase::kHalo || phase == apps::HeatPhase::kCheckpoint ||
        phase == apps::HeatPhase::kBarrier || phase == apps::HeatPhase::kCleanup) {
      ++halo_or_later;
    }
  }
  EXPECT_GT(halo_or_later, 0);
}

TEST(Heat3D, RejectsBadDecomposition) {
  HeatParams p = heat_8ranks(10);
  p.px = 3;  // 3*2*2 != 8 ranks.
  RunnerConfig rc;
  rc.base = tiny_config(8);
  // The app throws inside the fiber -> uncaught app exception is a test
  // failure; instead verify the decomposition check via a 1-rank config.
  HeatParams q;
  q.nx = 7;  // Does not divide by px=2.
  q.px = 2;
  q.py = q.pz = 1;
  (void)p;
  core::SimConfig cfg = tiny_config(2);
  ckpt::CheckpointStore store(2);
  core::Machine machine(cfg, [&](vmpi::Context& ctx) {
    EXPECT_THROW(
        {
          auto app = apps::make_heat3d(q);
          app(ctx);
        },
        std::invalid_argument);
    ctx.finalize();
  });
  machine.set_checkpoint_store(&store);
  machine.run();
}

TEST(Ring, TokenAccumulatesAcrossLaps) {
  apps::RingParams p;
  p.laps = 3;
  std::vector<apps::RingReport> reports(5);
  SimResult r = run_app(tiny_config(5), apps::make_ring(p, &reports));
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  // Token starts at 1, +1 per hop (5 hops/lap incl. rank 0), 3 laps.
  EXPECT_EQ(reports[0].final_token, 1u + 3u * 5u - 1u + 1u);
}

TEST(Ring, ElapsedTimeGrowsWithLaps) {
  auto elapsed = [&](int laps) {
    apps::RingParams p;
    p.laps = laps;
    std::vector<apps::RingReport> reports(4);
    run_app(tiny_config(4), apps::make_ring(p, &reports));
    return reports[0].elapsed_seconds;
  };
  EXPECT_GT(elapsed(10), elapsed(1));
}

TEST(CgProxy, ConvergesIdenticallyWithAndWithoutFailure) {
  auto run_cg = [&](std::vector<FailureSpec> failures) {
    apps::CgProxyParams p;
    p.total_iterations = 30;
    p.checkpoint_interval = 5;
    p.local_elements = 64;
    std::vector<apps::CgProxyReport> reports(4);
    RunnerConfig rc;
    rc.base = tiny_config(4);
    rc.first_run_failures = std::move(failures);
    ResilientRunner runner(rc, apps::make_cgproxy(p, &reports));
    EXPECT_TRUE(runner.run().completed);
    return reports[0].residual;
  };
  const double clean = run_cg({});
  const double failed = run_cg({FailureSpec{2, sim_us(400)}});
  EXPECT_DOUBLE_EQ(clean, failed);
}

TEST(CgProxy, RunsWithoutCheckpointing) {
  apps::CgProxyParams p;
  p.total_iterations = 10;
  p.checkpoint_interval = 0;
  std::vector<apps::CgProxyReport> reports(3);
  core::SimConfig cfg = tiny_config(3);
  ckpt::CheckpointStore store(3);
  core::Machine machine(cfg, apps::make_cgproxy(p, &reports));
  machine.set_checkpoint_store(&store);
  SimResult r = machine.run();
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(reports[0].completed_iterations, 10);
}

}  // namespace
}  // namespace exasim
