// core::cli — xSim-style command-line / environment configuration,
// including the paper's failure-schedule environment variable (§IV-B).

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/cli.hpp"
#include "util/pool.hpp"

namespace exasim {
namespace {

using core::CliOptions;
using core::parse_cli;

std::optional<CliOptions> parse(std::initializer_list<const char*> args,
                                std::string* error = nullptr) {
  std::vector<const char*> argv{"exasim_run"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::string local;
  return parse_cli(static_cast<int>(argv.size()), argv.data(),
                   error != nullptr ? error : &local);
}

struct EnvGuard {
  explicit EnvGuard(const char* value) {
    if (value != nullptr) {
      ::setenv(core::kFailureScheduleEnvVar, value, 1);
    } else {
      ::unsetenv(core::kFailureScheduleEnvVar);
    }
  }
  ~EnvGuard() { ::unsetenv(core::kFailureScheduleEnvVar); }
};

TEST(Cli, DefaultsAreSane) {
  EnvGuard env(nullptr);
  auto opts = parse({});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->machine.ranks, 1);
  EXPECT_TRUE(opts->machine.failures.empty());
  EXPECT_FALSE(opts->mttf.has_value());
}

TEST(Cli, ParsesMachineOptions) {
  EnvGuard env(nullptr);
  auto opts = parse({"--ranks=4096", "--topology=torus:16x16x16", "--link-latency=2us",
                     "--bandwidth=32e9", "--eager-threshold=262144",
                     "--failure-timeout=100ms", "--slowdown=1000", "--ns-per-unit=1281",
                     "--stack-bytes=65536"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->machine.ranks, 4096);
  EXPECT_EQ(opts->machine.topology, "torus:16x16x16");
  EXPECT_EQ(opts->machine.net.link_latency, sim_us(2));
  EXPECT_DOUBLE_EQ(opts->machine.net.bandwidth_bytes_per_sec, 32e9);
  EXPECT_EQ(opts->machine.net.eager_threshold, 262144u);
  EXPECT_EQ(opts->machine.net.failure_timeout, sim_ms(100));
  EXPECT_DOUBLE_EQ(opts->machine.proc.slowdown, 1000.0);
  EXPECT_EQ(opts->machine.process.fiber_stack_bytes, 65536u);
}

TEST(Cli, ParsesFailureScheduleOption) {
  EnvGuard env(nullptr);
  auto opts = parse({"--ranks=100", "--failures=12@3s,77@1.5s"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->machine.failures.size(), 2u);
  EXPECT_EQ(opts->machine.failures[0], (FailureSpec{12, sim_sec(3)}));
  EXPECT_EQ(opts->machine.failures[1], (FailureSpec{77, sim_seconds(1.5)}));
}

TEST(Cli, ReadsScheduleFromEnvironment) {
  // Paper §IV-B: schedule "via an environment variable on startup".
  EnvGuard env("3@250ms");
  auto opts = parse({"--ranks=8"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->machine.failures.size(), 1u);
  EXPECT_EQ(opts->machine.failures[0], (FailureSpec{3, sim_ms(250)}));
}

TEST(Cli, CommandLineOverridesEnvironment) {
  EnvGuard env("3@250ms");
  auto opts = parse({"--ranks=8", "--failures=1@1s"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->machine.failures.size(), 1u);
  EXPECT_EQ(opts->machine.failures[0].rank, 1);
}

TEST(Cli, ValidatesScheduleRanks) {
  EnvGuard env(nullptr);
  std::string error;
  EXPECT_FALSE(parse({"--ranks=4", "--failures=9@1s"}, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(Cli, ParsesExperimentOptions) {
  EnvGuard env(nullptr);
  auto opts = parse({"--mttf=3000s", "--distribution=exponential", "--seed=77",
                     "--max-restarts=5", "--sim-time-file=/tmp/t.txt"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->mttf, sim_sec(3000));
  EXPECT_EQ(opts->distribution, resilience::FailureDistribution::kExponential);
  EXPECT_EQ(opts->seed, 77u);
  EXPECT_EQ(opts->max_restarts, 5);
  EXPECT_EQ(opts->sim_time_file, "/tmp/t.txt");
}

TEST(Cli, ParsesSimWorkers) {
  EnvGuard env(nullptr);
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_EQ(defaulted->machine.sim_workers, 0);  // 0 = EXASIM_SIM_WORKERS env.
  auto literal = parse({"--sim-workers=4"});
  ASSERT_TRUE(literal.has_value());
  EXPECT_EQ(literal->machine.sim_workers, 4);
  auto automatic = parse({"--sim-workers=auto"});
  ASSERT_TRUE(automatic.has_value());
  EXPECT_EQ(automatic->machine.sim_workers, -1);  // -1 = hardware threads.
  for (auto bad : {"--sim-workers=0", "--sim-workers=-2", "--sim-workers=x"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Cli, ParsesSchedulerPolicyOnly) {
  EnvGuard env(nullptr);
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_TRUE(defaulted->machine.scheduler.empty());  // "" = EXASIM_SCHEDULER env.
  EXPECT_EQ(defaulted->machine.speculate, 0);

  auto adaptive = parse({"--scheduler=adaptive"});
  ASSERT_TRUE(adaptive.has_value());
  EXPECT_EQ(adaptive->machine.scheduler, "adaptive");

  auto fixed = parse({"--scheduler=fixed"});
  ASSERT_TRUE(fixed.has_value());
  EXPECT_EQ(fixed->machine.scheduler, "fixed");

  // The policies take no parameters, and speculation is retired.
  for (auto bad : {"--scheduler=bogus", "--scheduler=adaptive:stretch=16,gpw=2",
                   "--scheduler=fixed:gpw=2", "--scheduler=adaptive:nope=1",
                   "--speculate=8", "--speculate=0"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Cli, ParsesRoutingAndLinkModel) {
  EnvGuard env(nullptr);
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_TRUE(defaulted->machine.routing.empty());  // "" = EXASIM_ROUTING env.
  EXPECT_TRUE(defaulted->machine.net.link_timeouts.uniform());
  EXPECT_FALSE(defaulted->machine.net.contention);

  auto tuned = parse({"--routing=adaptive:spread=8",
                      "--link-timeouts=hot:0=500ms,3=2s", "--contention"});
  ASSERT_TRUE(tuned.has_value());
  EXPECT_EQ(tuned->machine.routing, "adaptive:spread=8");
  EXPECT_EQ(tuned->machine.net.link_timeouts.kind, LinkTimeoutKind::kHot);
  ASSERT_EQ(tuned->machine.net.link_timeouts.hot.size(), 2u);
  EXPECT_EQ(tuned->machine.net.link_timeouts.hot[0],
            (std::pair<std::uint64_t, SimTime>{0, sim_ms(500)}));
  EXPECT_TRUE(tuned->machine.net.contention);

  auto dist = parse({"--link-timeouts=uniform:50ms..200ms,seed=7"});
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->machine.net.link_timeouts.kind, LinkTimeoutKind::kDistribution);
  EXPECT_EQ(dist->machine.net.link_timeouts.seed, 7u);

  for (auto bad : {"--routing=bogus", "--routing=adaptive:spread=0",
                   "--routing=deterministic:spread=2", "--link-timeouts=bogus",
                   "--link-timeouts=uniform:200ms..50ms", "--link-timeouts=plane:x=1s"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Cli, ParsesStorageAndCkptMode) {
  EnvGuard env(nullptr);
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_TRUE(defaulted->machine.storage.empty());    // "" = EXASIM_STORAGE env.
  EXPECT_TRUE(defaulted->machine.ckpt_mode.empty());  // "" = EXASIM_CKPT_MODE env.

  auto tiered = parse({"--storage=hpc", "--ckpt-mode=staged"});
  ASSERT_TRUE(tiered.has_value());
  EXPECT_EQ(tiered->machine.storage, "hpc");
  EXPECT_EQ(tiered->machine.ckpt_mode, "staged");

  auto custom = parse({"--storage=mem:cbw=5e10,cap=4e9;bb:lat=10us;pfs:bw=1e11,lat=1ms",
                       "--ckpt-mode=partner"});
  ASSERT_TRUE(custom.has_value());
  EXPECT_EQ(custom->machine.storage, "mem:cbw=5e10,cap=4e9;bb:lat=10us;pfs:bw=1e11,lat=1ms");
  EXPECT_EQ(custom->machine.ckpt_mode, "partner");

  for (auto bad : {"--storage=bogus", "--storage=mem", "--storage=pfs;mem",
                   "--storage=pfs:bw=1e999", "--storage=pfs:bw=1e9x",
                   "--storage=pfs:contend=2", "--ckpt-mode=scr", "--ckpt-mode="}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Cli, ReadsLinkTimeoutsFromEnvironment) {
  EnvGuard env(nullptr);
  ::setenv(kLinkTimeoutsEnvVar, "plane:0=300ms", 1);
  auto opts = parse({"--ranks=8"});
  ::unsetenv(kLinkTimeoutsEnvVar);
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->machine.net.link_timeouts.kind, LinkTimeoutKind::kPlane);

  // The flag wins over the environment.
  ::setenv(kLinkTimeoutsEnvVar, "plane:0=300ms", 1);
  auto flag = parse({"--link-timeouts=uniform"});
  ::unsetenv(kLinkTimeoutsEnvVar);
  ASSERT_TRUE(flag.has_value());
  EXPECT_TRUE(flag->machine.net.link_timeouts.uniform());
}

TEST(Cli, ParsesNoPool) {
  EnvGuard env(nullptr);
  const bool before = util::pool_enabled();
  auto defaulted = parse({"--ranks=8"});
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_FALSE(defaulted->no_pool);
  EXPECT_EQ(util::pool_enabled(), before);  // Parsing alone must not flip it.

  auto off = parse({"--no-pool"});
  ASSERT_TRUE(off.has_value());
  EXPECT_TRUE(off->no_pool);
  EXPECT_FALSE(util::pool_enabled());  // Parse side effect: pools disabled.
  util::set_pool_enabled(before);      // Restore for the rest of the suite.
}

TEST(Cli, RejectsMalformedOptions) {
  EnvGuard env(nullptr);
  for (auto bad : {"--ranks=abc", "--mttf=xyz", "--distribution=bogus", "--unknown=1",
                   "--failures=nope"}) {
    std::string error;
    EXPECT_FALSE(parse({bad}, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Cli, RejectsMalformedEnvironment) {
  EnvGuard env("garbage");
  std::string error;
  EXPECT_FALSE(parse({}, &error).has_value());
}

TEST(Cli, CollectsPositionalArguments) {
  EnvGuard env(nullptr);
  auto opts = parse({"heat3d", "--ranks=8"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->positional.size(), 1u);
  EXPECT_EQ(opts->positional[0], "heat3d");
}

TEST(Cli, RunnerConfigMovesScheduleToFirstLaunch) {
  EnvGuard env(nullptr);
  auto opts = parse({"--ranks=16", "--failures=2@1s", "--mttf=100s", "--seed=5"});
  ASSERT_TRUE(opts.has_value());
  core::RunnerConfig rc = core::runner_config_from(*opts);
  EXPECT_TRUE(rc.base.failures.empty());
  ASSERT_EQ(rc.first_run_failures.size(), 1u);
  EXPECT_EQ(rc.first_run_failures[0].rank, 2);
  EXPECT_EQ(rc.system_mttf, sim_sec(100));
  EXPECT_EQ(rc.seed, 5u);
}

}  // namespace
}  // namespace exasim
