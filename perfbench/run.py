#!/usr/bin/env python3
"""exasim benchmark: builds exasim_perfbench from the checkout's sources, runs
one workload, checks its outputs, and prints every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics (from a separate traced run) with
--trace 1. End-to-end times are scaled to a reference host speed measured
while they run. Per-run details, and with --trace 1 the timing spans, are
written under <build dir>/results/. See perfbench/NOTES.md for the
workloads, the scaling and what each metric should predict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").exists() else None

# Share of --seconds each kind of repetition gets. Set-up launches and
# one-thread experiments run in one long-lived process and take turns, so
# both metrics sample the whole window.
SHARES = {
    "restart_modeled_2k": {"setup": 0.06, "serial": 0.94},
    "mc_lattice_64": {"setup": 0.08, "serial": 0.92},
}
MIN_REPS = 3
SETUP_BATCH_S = 0.1  # Set-up launches are batched into requests of about this long.
# Every time is the CPU time of the measuring thread scaled to a host on
# which exasim_perfbench's host-speed kernels take this long: CPU seconds x
# PROBE_REF_S / probe_s, where probe_s is their time sampled on the same CPU
# while the measured work ran. A shared host's speed drifts by tens of
# percent within seconds, and the kernels drift with it; see NOTES.md.
PROBE_REF_S = 0.002
PARALLEL_WORKERS = 4
REFERENCE_SEED = 1
# A run must end within this many seconds after the build, whatever
# --seconds asks.
DEADLINE_S = 165.0

DEADLINE = None  # Set once the build is done.


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """Exits without a result: the benchmark cannot run in this directory."""
    log(f"perfbench: {msg}")
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail_setup("simulator sources (src/) not found next to perfbench/")
    bdir.mkdir(parents=True, exist_ok=True)
    quiet = {"stdout": subprocess.DEVNULL, "stderr": sys.stderr}
    # Configure every time (cheap once cached), so a build tree left by
    # another version of this directory picks up its targets.
    if subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                       "-DCMAKE_BUILD_TYPE=Release"], **quiet).returncode:
        fail_setup("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs,
                       "--target", "exasim_perfbench"], **quiet).returncode:
        fail_setup("build failed")
    return bdir / "exasim_perfbench"


class Bench:
    """Starts exasim_perfbench phases. Every child is killed at the deadline
    and always waited for."""

    def __init__(self, exe, workload, seed):
        self.exe, self.workload, self.seed = exe, workload, seed
        # The program must see only the benchmark's explicit configuration.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("EXASIM_")}
        self.children = []
        self.timer = threading.Timer(max(0.0, DEADLINE - time.monotonic()), self.kill_all)
        self.timer.daemon = True
        self.timer.start()

    def cmd(self, phase, *args):
        return [str(self.exe), "--workload", self.workload, "--seed", str(self.seed),
                "--phase", phase, *map(str, args)]

    def __call__(self, phase, *args):
        """Runs one phase to completion; returns its JSON lines."""
        child = self.serve(phase, *args)
        out, _ = child.communicate()
        if child.returncode:
            raise RuntimeError(f"phase {phase} exited {child.returncode}")
        return [json.loads(line) for line in out.splitlines() if line.strip()]

    def serve(self, phase, *args):
        """Starts a phase with piped stdin/stdout; its stderr is ours."""
        child = subprocess.Popen(self.cmd(phase, *args), stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True, env=self.env, bufsize=1)
        self.children.append(child)
        return child

    def kill_all(self):
        for child in self.children:
            if child.poll() is None:
                child.kill()

    def close(self):
        self.timer.cancel()
        self.kill_all()
        for child in self.children:
            child.wait()


def request(child, command):
    """Sends one command to a serving process and returns its JSON answer."""
    try:
        child.stdin.write(command + "\n")
        child.stdin.flush()
        line = child.stdout.readline()
    except (BrokenPipeError, OSError):
        line = ""
    if not line:
        raise RuntimeError(f"exasim_perfbench stopped while serving '{command}' "
                           "(deadline or crash)")
    return json.loads(line)


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def run_end_to_end(bench, args, failures):
    """The untraced run. First, inside the window: one four-thread experiment
    (its output must equal the one-thread output) and one one-thread
    experiment in a process of its own, whose peak memory is reported. Then
    set-up launches and one-thread experiments in one long-lived process,
    pinned to a CPU and sampling its speed, take turns until the window is
    spent."""
    common = [a for f in failures for a in ("--failure", f)]
    common += ["--golden", ROOT / "scripts" / "mc_report.golden.json"]
    start = time.monotonic()
    checked = []  # (threads, result) of the experiments outside the timed loop.
    for workers in (PARALLEL_WORKERS, 1):
        child = bench.serve("serve", "--workers", workers, *common)
        checked.append((workers, request(child, "run")))
        rss_kib = request(child, "end")["peak_rss_kib"]  # Kept: the one-thread process's.
    one = bench.serve("serve", "--workers", 1, "--sample-speed", 1, *common)
    shares = SHARES[args.workload]
    spent = {k: 0.0 for k in shares}
    last = {k: 0.0 for k in shares}
    count = {k: 0 for k in shares}
    setup_s, serial = [], []
    batch = 1
    while True:
        elapsed = time.monotonic() - start
        owed = [k for k in shares if count[k] < MIN_REPS]
        fits = [k for k in shares if elapsed + last[k] <= args.seconds]
        pool = owed or fits
        if not pool:
            break
        kind = min(pool, key=lambda k: spent[k] / shares[k])
        t0 = time.monotonic()
        if kind == "setup":
            got = request(one, f"setup {batch}")
            setup_s += [t * PROBE_REF_S / got["probe_s"] for t in got["cpu_s"]]
            batch = max(1, min(1000, round(SETUP_BATCH_S / max(statistics.median(got["setup_s"]), 1e-6))))
        else:
            got = request(one, "run")
            got["scaled_s"] = got["cpu_s"] * PROBE_REF_S / got["probe_s"]
            serial.append(got)
        last[kind] = time.monotonic() - t0
        spent[kind] += last[kind]
        count[kind] += 1
    request(one, "end")

    # Output checks. Reference seed: the pinned digest (exasim_perfbench
    # compares the lattice's report with the golden one itself). Other seeds:
    # every repetition, one thread or four, must give the same output.
    if args.seed == REFERENCE_SEED:
        want = load_reference()[args.workload]["digest"]
    else:
        want = serial[0]["digest"]
    failed = 0
    for threads, rep in checked + [(1, r) for r in serial]:
        if not rep["ok"] or rep["digest"] != want:
            failed += 1
            log(f"perfbench: {threads}-thread run failed its check: "
                f"{rep['why'] or 'output differs from the reference'}")

    metrics = {
        "wall_s": statistics.median(r["scaled_s"] for r in serial),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": rss_kib / 1024.0,
    }
    detail = {
        "unscaled_wall_s": statistics.median(r["wall_s"] for r in serial),
        "unscaled_cpu_s": statistics.median(r["cpu_s"] for r in serial),
        "scaled_setup_s": setup_s,
        "serial": serial,
        "checked": checked,
    }
    return metrics, len(serial) + len(checked), failed, detail


def run_traced(bench, args, failures, results):
    spans = results / f"{args.workload}-seed{args.seed}-spans.json"
    fail_args = [a for f in failures for a in ("--failure", f)]
    (out,) = bench("layers", "--spans", spans, *fail_args)
    return out["layers"], 1, 0, {"spans": str(spans)}


def main():
    names = [w["name"] for w in BENCHMARK["workloads"]] if BENCHMARK else list(SHARES)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if BENCHMARK is None:
        fail_setup("BENCHMARK.json not found at the checkout root")

    bdir = build_dir()
    exe = build(bdir)
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    global DEADLINE
    DEADLINE = time.monotonic() + DEADLINE_S
    bench = Bench(exe, args.workload, args.seed)
    try:
        (plan,) = bench("plan")
        failures = plan["failures"]
        if args.trace:
            metrics, attempted, failed, detail = run_traced(bench, args, failures, results)
            declared = BENCHMARK["per_layer"]
        else:
            metrics, attempted, failed, detail = run_end_to_end(bench, args, failures)
            declared = BENCHMARK["end_to_end"]
    except RuntimeError as e:
        log(f"perfbench: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        bench.close()

    out = {name["name"]: {"value": metrics[name["name"]], "unit": name["unit"]}
           for name in declared}
    for name, m in out.items():
        print(f"{args.workload}  {name:34s} {m['value']:.6g} {m['unit']}")
    error_rate = failed / attempted
    print(f"{args.workload}  {'error_rate':34s} {error_rate:.6g} "
          f"({failed} of {attempted} operations failed)")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "failures": failures, "victims": plan["victims"], "metrics": metrics,
              "attempted": attempted, "failed": failed, "detail": detail}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
