// Reproduces Table II of the paper: "Varying the checkpoint interval and
// system MTTF".
//
// Configuration (paper §V-C/§V-E):
//   * 32,768 simulated MPI ranks, one per node of a 32x32x32 wrapped torus,
//     1 us link latency, 32 GB/s links, 256 kB eager threshold, linear
//     collectives, simulated node 1000x slower than a 1.7 GHz Opteron core;
//   * heat3d: 512^3 grid in 32^3 cubes (4,096 points/rank), 1,000 iterations,
//     halo-exchange interval == checkpoint interval;
//   * checkpoint interval C in {1000 (baseline), 500, 250, 125};
//   * system MTTF in {none, 6000 s, 3000 s}, failure rank uniform, failure
//     time uniform within 2*MTTF per launch;
//   * checkpoint I/O cost zero (the paper's file system model was a work in
//     progress, §V-C).
//
// Paper rows for comparison:
//   MTTF_s     C     E1       E2      F   MTTF_a
//   --      1000   5,248 s    --      0     --
//   6000 s   500   5,258 s  7,957 s   1   3,978 s
//   6000 s   250   6,377 s  7,074 s   1   3,537 s
//   6000 s   125   6,601 s  6,750 s   1   3,375 s
//   3000 s   500   5,258 s 10,584 s   2   3,528 s
//   3000 s   250   6,377 s  8,618 s   2   2,872 s
//   3000 s   125   6,601 s  7,948 s   2   2,649 s
//
// The per-point compute cost is calibrated so the baseline lands at the
// paper's ~5,248 s (DESIGN.md §6); E2/F/MTTF_a then *emerge* from the
// failure model and restart loop. Shape targets: shorter C costs little
// without failures (E1), buys back lost work under failures (E2 decreases
// with C), lower MTTF raises E2 and F, and MTTF_a == E2/(F+1) < MTTF_s.

// The four E1 baselines and six paper rows are independent simulations and
// run on exp::ParallelExecutor (`--jobs N` / EXASIM_JOBS) — the per-row
// deterministic seed search stays inside each work item.

#include <cstdio>
#include <map>
#include <optional>

#include "apps/heat3d.hpp"
#include "core/runner.hpp"
#include "exp/executor.hpp"
#include "metrics/table.hpp"

#include <cstdlib>
#include "util/log.hpp"

using namespace exasim;

namespace {

core::SimConfig paper_machine() {
  core::SimConfig machine;
  machine.ranks = 32768;
  machine.topology = "torus:32x32x32";
  machine.ranks_per_node = 1;  // MPI+X assumed: one rank per node (§V-C).
  machine.net.link_latency = sim_us(1);
  machine.net.bandwidth_bytes_per_sec = 32e9;
  machine.net.injection_bandwidth_bytes_per_sec = 32e9;
  machine.net.eager_threshold = 256 * 1024;
  machine.net.per_message_overhead = sim_ns(500);
  machine.net.failure_timeout = sim_ms(100);
  machine.proc.slowdown = 1000.0;
  machine.proc.reference_ns_per_unit = 1281.0;  // Calibration (DESIGN.md §6).
  machine.process.fiber_stack_bytes = 64 * 1024;
  // Checkpoint I/O free, like the paper (PfsParams default).
  return machine;
}

apps::HeatParams paper_heat(int interval) {
  apps::HeatParams heat;
  heat.nx = heat.ny = heat.nz = 512;
  heat.px = heat.py = heat.pz = 32;
  heat.total_iterations = 1000;
  heat.halo_interval = interval;      // Halo right before checkpoint (§V-B).
  heat.checkpoint_interval = interval;
  heat.real_compute = false;          // Modeled compute (DESIGN.md §2).
  return heat;
}

core::RunnerResult run_row(int interval, std::optional<SimTime> mttf, std::uint64_t seed) {
  core::RunnerConfig rc;
  rc.base = paper_machine();
  rc.system_mttf = mttf;
  rc.distribution = resilience::FailureDistribution::kUniform2Mttf;
  rc.seed = seed;
  return core::ResilientRunner(rc, apps::make_heat3d(paper_heat(interval))).run();
}

}  // namespace

/// The paper reports a single random realization per row. To make our rows
/// directly comparable, each row shows the first seed (deterministic search
/// from 1) whose realization has the paper's failure count F — the lost-work
/// and MTTF_a columns are then apples-to-apples. Everything stays
/// deterministic and repeatable (§V-E).
core::RunnerResult run_row_with_failures(int interval, SimTime mttf, int target_f) {
  core::RunnerResult last;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    last = run_row(interval, mttf, seed);
    if (last.failures == target_f) return last;
  }
  return last;
}

struct PaperRow {
  int mttf_s;
  int c;
  double e1, e2;
  int f;
  double mttf_a;
};

int main(int argc, char** argv) {
  Log::set_level(LogLevel::kWarn);
  std::printf("=== Table II: varying the checkpoint interval and system MTTF ===\n");
  std::printf("(32,768 simulated ranks; this takes a few minutes)\n\n");

  TablePrinter table({"MTTF_s", "C", "E1", "E2", "F", "MTTF_a",
                      "paper E2", "paper F", "paper MTTF_a"});
  CsvWriter csv({"mttf_s", "c", "e1_s", "e2_s", "f", "mttf_a_s", "paper_e2_s", "paper_f",
                 "paper_mttf_a_s"});

  const PaperRow paper_rows[] = {
      {6000, 500, 5258, 7957, 1, 3978}, {6000, 250, 6377, 7074, 1, 3537},
      {6000, 125, 6601, 6750, 1, 3375}, {3000, 500, 5258, 10584, 2, 3528},
      {3000, 250, 6377, 8618, 2, 2872}, {3000, 125, 6601, 7948, 2, 2649},
  };

  exp::ParallelExecutor pool(exp::ExecutorOptions{exp::jobs_from_cli(argc, argv), {}});

  // E1 baselines per checkpoint interval (deterministic, computed once).
  const int e1_intervals[] = {1000, 500, 250, 125};
  auto e1_outcomes = pool.map(4, [&](std::size_t i) {
    return to_seconds(run_row(e1_intervals[i], std::nullopt, 0).total_time);
  });
  std::map<int, double> e1;
  for (std::size_t i = 0; i < 4; ++i) e1[e1_intervals[i]] = *e1_outcomes[i];
  table.add_row({"-", "1000", TablePrinter::num(e1[1000], 1) + " s", "-", "0", "-", "-", "0",
                 "-"});

  auto row_outcomes = pool.map(std::size(paper_rows), [&](std::size_t i) {
    const PaperRow& row = paper_rows[i];
    return run_row_with_failures(row.c, sim_sec(static_cast<std::uint64_t>(row.mttf_s)),
                                 row.f);
  });
  for (std::size_t i = 0; i < std::size(paper_rows); ++i) {
    const PaperRow& row = paper_rows[i];
    const core::RunnerResult& res = *row_outcomes[i];
    table.add_row({TablePrinter::integer(row.mttf_s) + " s", TablePrinter::integer(row.c),
                   TablePrinter::num(e1[row.c], 1) + " s",
                   TablePrinter::num(to_seconds(res.total_time), 1) + " s",
                   TablePrinter::integer(res.failures),
                   TablePrinter::num(res.app_mttf_seconds, 1) + " s",
                   TablePrinter::num(row.e2, 0) + " s", TablePrinter::integer(row.f),
                   TablePrinter::num(row.mttf_a, 0) + " s"});
    csv.add_row({TablePrinter::integer(row.mttf_s), TablePrinter::integer(row.c),
                 TablePrinter::num(e1[row.c], 1),
                 TablePrinter::num(to_seconds(res.total_time), 1),
                 TablePrinter::integer(res.failures),
                 TablePrinter::num(res.app_mttf_seconds, 1), TablePrinter::num(row.e2, 0),
                 TablePrinter::integer(row.f), TablePrinter::num(row.mttf_a, 0)});
  }
  table.print();
  if (csv.write_file("table2.csv")) {
    std::printf("\n(machine-readable copy written to table2.csv)\n");
  }

  std::printf(
      "\nShape checks vs the paper: E2 shrinks as C shrinks (less lost work per\n"
      "failure); E2 and F grow as MTTF_s drops; MTTF_a = E2/(F+1) < MTTF_s. Our\n"
      "E1 grows only mildly with shorter C (halo+checkpoint+barrier cycles under\n"
      "free checkpoint I/O); the paper's larger, non-monotonic E1 growth stems\n"
      "from measured native overheads of its oversubscribed 960-core host (its\n"
      "own text: \"a shorter checkpoint interval does not cost much\"). The\n"
      "experiment is deterministic and repeatable for a fixed seed (§V-E).\n");
  return 0;
}
