#!/bin/sh
# CI perf-regression smoke (a short companion to scripts/bench_baseline.sh):
#
#  1. engine_micro pooled-vs-heap microbenchmarks — each rate must stay
#     within 3x of the committed BENCH_baseline.json reference (CI runners
#     are slower and noisier than the baseline host, hence the slack).
#  2. One Table-II-style macro row (the 1024-rank heat3d failure/restart
#     workload recorded in BENCH_baseline.json): the wall time must stay
#     within 3x of the baseline, and the deterministic `--result-json`
#     output — minus the host-dependent wall_seconds/events_per_sec fields —
#     must byte-match the committed golden in
#     scripts/bench_smoke_result.golden.json. Any simulated-quantity drift
#     (end times, event counts, energy) fails the build.
#  3. Sharded-scheduler determinism: the same macro row on 2 sim workers,
#     fixed and adaptive, must emit a result-json byte-identical to the
#     sequential golden (minus the scheduler config echo), the fixed
#     policy's window count must match BENCH_baseline.json exactly, and the
#     adaptive policy must widen windows (at most as many cycles).
#  4. Link-level network determinism (DESIGN.md §12): the macro row with an
#     explicit --routing=deterministic must byte-match the committed golden
#     (the route refactor's default path is the pre-refactor model), and the
#     adaptive-routing + per-link-timeout + timeout-detector row must emit
#     identical result-json on 1 and 2 sim workers.
#  5. Hot-path wakeup filter (DESIGN.md §13): the macro row rerun with
#     EXASIM_EAGER_WAKEUP=1 (filtering disabled) on 1 and 2 sim workers must
#     emit result-json byte-identical to the golden — the filter may only
#     skip no-op fiber resumes, never change a simulated quantity — and the
#     default run's stderr must report suppressed wakeups and near-bucket
#     queue pops actually happening.
#  6. Tiered storage (DESIGN.md §14): the macro row with an explicit
#     --storage=pfs --ckpt-mode=pfs must byte-match the committed golden
#     (the hierarchy's default path is the pre-refactor flat model), and a
#     staged-mode probe with an injected failure must report partner copies
#     being made and a restart recovered from a surviving non-PFS tier.
#  7. Multi-core speedup (skipped below 4 CPUs): the event-dense
#     BM_ShardedWindowThroughput macro benchmark on 4 workers must beat 1
#     worker by the factor recorded in BENCH_baseline.json.
#  8. Perf trajectory: the macro row's events/s and hot-path counter deltas
#     vs BENCH_baseline.json are written to build/perf_trajectory.json (CI
#     uploads it as an artifact, so the rate history survives across runs).
#     The macro rate is normalized by the measured/baseline engine_micro
#     pooled-churn ratio — a host-speed proxy — and a normalized macro-rate
#     regression of more than 25% fails the build.
#
# Usage: scripts/bench_smoke.sh [jobs]
set -eu

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"
GOLDEN=scripts/bench_smoke_result.golden.json

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target exasim_run engine_micro >/dev/null

echo "== bench smoke: engine_micro (pooled vs heap, 3x tolerance) =="
./build/bench/engine_micro \
  --benchmark_filter='BM_EventChurn|BM_PayloadAllocFree' \
  --benchmark_min_time=0.2 --benchmark_format=json >/tmp/bench_smoke_micro.json

python3 - <<'EOF'
import json

baseline = json.load(open("BENCH_baseline.json"))
micro = json.load(open("/tmp/bench_smoke_micro.json"))
rates = {b["name"]: b.get("items_per_second")
         for b in micro["benchmarks"]
         if b.get("run_type", "iteration") == "iteration"}

checks = [
    ("BM_EventChurn/pooled:0",
     baseline["engine_micro"]["event_churn_events_per_sec"]["heap"]),
    ("BM_EventChurn/pooled:1",
     baseline["engine_micro"]["event_churn_events_per_sec"]["pooled"]),
    ("BM_PayloadAllocFree/pooled:0",
     baseline["engine_micro"]["payload_alloc_free_per_sec"]["heap"]),
    ("BM_PayloadAllocFree/pooled:1",
     baseline["engine_micro"]["payload_alloc_free_per_sec"]["pooled"]),
]
failed = False
for name, ref in checks:
    got = rates.get(name)
    if got is None or ref is None:
        raise SystemExit(f"missing benchmark rate for {name}")
    ratio = got / ref
    status = "ok" if ratio >= 1.0 / 3.0 else "REGRESSION"
    if status != "ok":
        failed = True
    print(f"  {name}: {got:.3e}/s vs baseline {ref:.3e}/s ({ratio:.2f}x) {status}")
if failed:
    raise SystemExit("engine_micro rate fell below 1/3 of BENCH_baseline.json")
EOF

echo "== bench smoke: macro row (wall <= 3x baseline, result-json byte-stable) =="
WORKLOAD=$(jq -r .workload BENCH_baseline.json)
# shellcheck disable=SC2086  # the workload string is a flat argument list
./build/tools/exasim_run $WORKLOAD --result-json=/tmp/bench_smoke_result.json \
  >/dev/null 2>/tmp/bench_smoke_macro.stderr

python3 - <<'EOF'
import json, re

baseline = json.load(open("BENCH_baseline.json"))
err = open("/tmp/bench_smoke_macro.stderr").read()
m = re.search(r"perf\s*: (\d+) events in ([\d.]+) s wall", err)
if not m:
    raise SystemExit("could not parse macro perf output:\n" + err)
events, wall = int(m.group(1)), float(m.group(2))
ref = baseline["macro"]["pooled"]
print(f"  events {events} (baseline {ref['events']}), "
      f"wall {wall:.2f}s (baseline {ref['wall_seconds']:.2f}s)")
if wall > 3.0 * ref["wall_seconds"]:
    raise SystemExit(f"macro wall time {wall:.2f}s exceeds "
                     f"3x baseline {ref['wall_seconds']:.2f}s")
EOF

jq -S 'del(.wall_seconds, .events_per_sec)' /tmp/bench_smoke_result.json \
  >/tmp/bench_smoke_result.stripped.json
if [ ! -f "$GOLDEN" ]; then
  echo "bench_smoke.sh: missing golden $GOLDEN" >&2
  echo "  (generate with: jq -S 'del(.wall_seconds, .events_per_sec)' /tmp/bench_smoke_result.json > $GOLDEN)" >&2
  exit 2
fi
if ! cmp -s /tmp/bench_smoke_result.stripped.json "$GOLDEN"; then
  echo "bench_smoke.sh: deterministic --result-json drifted from $GOLDEN:" >&2
  diff "$GOLDEN" /tmp/bench_smoke_result.stripped.json >&2 || true
  exit 1
fi
echo "  result-json matches $GOLDEN"

echo "== bench smoke: sharded scheduler (2 workers, fixed + adaptive, json byte-stable) =="
# shellcheck disable=SC2086
./build/tools/exasim_run $WORKLOAD --sim-workers=2 --scheduler=fixed \
  --result-json=/tmp/bench_smoke_fixed.json >/dev/null 2>/tmp/bench_smoke_fixed.stderr
# shellcheck disable=SC2086
./build/tools/exasim_run $WORKLOAD --sim-workers=2 --scheduler=adaptive \
  --result-json=/tmp/bench_smoke_adaptive.json >/dev/null 2>/tmp/bench_smoke_adaptive.stderr

jq -S 'del(.scheduler)' "$GOLDEN" >/tmp/bench_smoke_golden.nosched.json
for policy in fixed adaptive; do
  jq -S 'del(.wall_seconds, .events_per_sec, .scheduler)' \
    "/tmp/bench_smoke_$policy.json" >"/tmp/bench_smoke_$policy.stripped.json"
  if ! cmp -s "/tmp/bench_smoke_$policy.stripped.json" /tmp/bench_smoke_golden.nosched.json; then
    echo "bench_smoke.sh: $policy sharded result-json drifted from the sequential golden:" >&2
    diff /tmp/bench_smoke_golden.nosched.json "/tmp/bench_smoke_$policy.stripped.json" >&2 || true
    exit 1
  fi
done
echo "  sharded result-json matches the sequential golden for both policies"

python3 - <<'EOF'
import json, re

baseline = json.load(open("BENCH_baseline.json"))["scheduler"]["macro_sharded"]

def sched_line(path):
    err = open(path).read()
    m = re.search(r"sched\s*: (\d+) windows \((\d+) widened\), (\d+) steals, "
                  r"([\d.]+) s barrier idle", err)
    if not m:
        raise SystemExit(f"could not parse sched counters from {path}:\n" + err)
    return [int(m.group(i)) for i in range(1, 4)] + [float(m.group(4))]

fw, fwide, fsteal, fidle = sched_line("/tmp/bench_smoke_fixed.stderr")
aw, awide, asteal, aidle = sched_line("/tmp/bench_smoke_adaptive.stderr")
print(f"  fixed    : {fw} windows ({fwide} widened), {fsteal} steals, idle {fidle:.2f}s")
print(f"  adaptive : {aw} windows ({awide} widened), {asteal} steals, idle {aidle:.2f}s")
if fw != baseline["fixed_windows"]:
    raise SystemExit(f"fixed-policy window count {fw} != baseline {baseline['fixed_windows']}"
                     " (the conservative cycle structure drifted)")
if fwide != 0:
    raise SystemExit("fixed policy must never widen a window")
if not (0 < aw <= fw):
    raise SystemExit(f"adaptive window count {aw} not in (0, {fw}]")
if awide == 0:
    raise SystemExit("adaptive policy widened nothing on the macro row")
EOF

echo "== bench smoke: link-level network (deterministic == golden, adaptive worker-stable) =="
# Explicit deterministic routing must be the byte-identical default path.
# shellcheck disable=SC2086
./build/tools/exasim_run $WORKLOAD --routing=deterministic \
  --result-json=/tmp/bench_smoke_routed.json >/dev/null 2>&1
jq -S 'del(.wall_seconds, .events_per_sec)' /tmp/bench_smoke_routed.json \
  >/tmp/bench_smoke_routed.stripped.json
if ! cmp -s /tmp/bench_smoke_routed.stripped.json "$GOLDEN"; then
  echo "bench_smoke.sh: --routing=deterministic result-json drifted from $GOLDEN:" >&2
  diff "$GOLDEN" /tmp/bench_smoke_routed.stripped.json >&2 || true
  exit 1
fi
echo "  --routing=deterministic matches $GOLDEN"

# The full link-level path (adaptive routing, per-link timeout distribution,
# timeout detector) must be deterministic across engine worker counts.
for w in 1 2; do
  # shellcheck disable=SC2086
  ./build/tools/exasim_run $WORKLOAD --sim-workers=$w \
    --routing=adaptive --link-timeouts=uniform:50ms..200ms,seed=7 \
    --failure-detector=timeout \
    --result-json="/tmp/bench_smoke_linklevel_$w.json" >/dev/null 2>&1
  jq -S 'del(.wall_seconds, .events_per_sec)' "/tmp/bench_smoke_linklevel_$w.json" \
    >"/tmp/bench_smoke_linklevel_$w.stripped.json"
done
if ! cmp -s /tmp/bench_smoke_linklevel_1.stripped.json \
            /tmp/bench_smoke_linklevel_2.stripped.json; then
  echo "bench_smoke.sh: adaptive+link-timeouts result-json differs across sim workers:" >&2
  diff /tmp/bench_smoke_linklevel_1.stripped.json \
       /tmp/bench_smoke_linklevel_2.stripped.json >&2 || true
  exit 1
fi
if cmp -s /tmp/bench_smoke_linklevel_1.stripped.json /tmp/bench_smoke_routed.stripped.json; then
  echo "bench_smoke.sh: link-timeout overrides had no observable effect on the macro row" >&2
  exit 1
fi
echo "  adaptive+link-timeouts row identical on 1 and 2 workers (and distinct from default)"

echo "== bench smoke: hot-path wakeup filter (eager hatch byte-identical, counters live) =="
# Filtering off must reproduce the golden byte-for-byte on 1 and 2 workers.
for w in 1 2; do
  # shellcheck disable=SC2086
  EXASIM_EAGER_WAKEUP=1 ./build/tools/exasim_run $WORKLOAD --sim-workers=$w \
    --result-json="/tmp/bench_smoke_eager_$w.json" >/dev/null 2>&1
  jq -S 'del(.wall_seconds, .events_per_sec, .scheduler)' \
    "/tmp/bench_smoke_eager_$w.json" >"/tmp/bench_smoke_eager_$w.stripped.json"
  if ! cmp -s "/tmp/bench_smoke_eager_$w.stripped.json" /tmp/bench_smoke_golden.nosched.json; then
    echo "bench_smoke.sh: EXASIM_EAGER_WAKEUP=1 --sim-workers=$w result-json drifted" >&2
    echo "  (the wakeup filter changed a simulated quantity):" >&2
    diff /tmp/bench_smoke_golden.nosched.json "/tmp/bench_smoke_eager_$w.stripped.json" >&2 || true
    exit 1
  fi
done
echo "  EXASIM_EAGER_WAKEUP=1 matches the golden on 1 and 2 sim workers"

python3 - <<'EOF'
import re

err = open("/tmp/bench_smoke_macro.stderr").read()
m = re.search(r"wakeups\s*: (\d+) resumes, (\d+) suppressed", err)
if not m:
    raise SystemExit("no wakeups counter line in the default macro stderr:\n" + err)
resumes, suppressed = int(m.group(1)), int(m.group(2))
q = re.search(r"queue\s*: (\d+) near-bucket pops \(([\d.]+)%\), (\d+) bulk merges", err)
if not q:
    raise SystemExit("no queue counter line in the default macro stderr:\n" + err)
near = int(q.group(1))
print(f"  default run: {resumes} resumes, {suppressed} suppressed, {near} near-bucket pops")
if suppressed == 0:
    raise SystemExit("wakeup filter suppressed nothing on the macro row")
if near == 0:
    raise SystemExit("near-horizon buckets served no pops on the macro row")
EOF

echo "== bench smoke: tiered storage (explicit pfs == golden, staged probe recovers) =="
# Explicit default storage must be the byte-identical pre-refactor path.
# shellcheck disable=SC2086
./build/tools/exasim_run $WORKLOAD --storage=pfs --ckpt-mode=pfs \
  --result-json=/tmp/bench_smoke_storage.json >/dev/null 2>&1
jq -S 'del(.wall_seconds, .events_per_sec)' /tmp/bench_smoke_storage.json \
  >/tmp/bench_smoke_storage.stripped.json
if ! cmp -s /tmp/bench_smoke_storage.stripped.json "$GOLDEN"; then
  echo "bench_smoke.sh: --storage=pfs --ckpt-mode=pfs result-json drifted from $GOLDEN:" >&2
  diff "$GOLDEN" /tmp/bench_smoke_storage.stripped.json >&2 || true
  exit 1
fi
echo "  --storage=pfs --ckpt-mode=pfs matches $GOLDEN"

# Staged-mode probe: a failure-free run of this workload takes ~210 s of
# simulated time, so a failure at 120 s lands after staged checkpoints (and
# their partner replicas) exist. The relaunch must recover from a surviving
# non-PFS tier.
./build/tools/exasim_run heat3d --ranks=8 --topology=star:8 --link-latency=1us \
  --bandwidth=32e9 --overhead=500ns --slowdown=1000 --ns-per-unit=1281 \
  --storage=hpc --ckpt-mode=staged --failures=3@120s \
  --app-params=nx=32,px=2,py=2,pz=2,iters=40,interval=10 \
  >/tmp/bench_smoke_staged.stdout 2>/tmp/bench_smoke_staged.stderr

python3 - <<'EOF'
import re

err = open("/tmp/bench_smoke_staged.stderr").read()
out = open("/tmp/bench_smoke_staged.stdout").read()
m = re.search(r"ckpt\s*: (\d+) stages, (\d+) drains, (\d+) partner copies, "
              r"restore tier (\S+)", err)
if not m:
    raise SystemExit("no ckpt counter line in the staged probe stderr:\n" + err)
stages, drains, copies, tier = int(m.group(1)), int(m.group(2)), int(m.group(3)), m.group(4)
print(f"  staged probe: {stages} stages, {drains} drains, {copies} partner copies, "
      f"restore tier {tier}")
if copies == 0:
    raise SystemExit("staged probe made no partner copies")
if tier not in ("mem", "bb"):
    raise SystemExit(f"staged probe restored from tier '{tier}', want a non-PFS tier")
if "completed    : yes" not in out and not re.search(r"completed\s*: yes", out):
    raise SystemExit("staged probe did not complete after the failure:\n" + out)
EOF
echo "  staged probe recovered from a non-PFS tier"

CORES=$(nproc 2>/dev/null || echo 1)
if [ "$CORES" -lt 4 ]; then
  echo "== bench smoke: multi-core speedup skipped ($CORES CPUs < 4) =="
else
  echo "== bench smoke: multi-core speedup (4 vs 1 workers, adaptive+stealing) =="
  ./build/bench/engine_micro \
    --benchmark_filter='BM_ShardedWindowThroughput/workers:(1|4)/adaptive:1' \
    --benchmark_min_time=0.5 --benchmark_format=json >/tmp/bench_smoke_sharded.json

  python3 - <<'EOF'
import json

baseline = json.load(open("BENCH_baseline.json"))["scheduler"]["macro_sharded"]
data = json.load(open("/tmp/bench_smoke_sharded.json"))
times = {}
for b in data["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    if "workers:1" in b["name"]:
        times[1] = b["real_time"]
    elif "workers:4" in b["name"]:
        times[4] = b["real_time"]
if 1 not in times or 4 not in times:
    raise SystemExit("missing BM_ShardedWindowThroughput rows")
speedup = times[1] / times[4]
need = baseline["min_speedup_4v1"]
status = "ok" if speedup >= need else "REGRESSION"
print(f"  4-vs-1 worker speedup: {speedup:.2f}x (need >= {need}x) {status}")
if speedup < need:
    raise SystemExit("multi-core speedup fell below the BENCH_baseline.json floor")
EOF
fi

echo "== bench smoke: perf trajectory (normalized macro rate, 25% tolerance) =="
python3 - <<'EOF'
import json, re

baseline = json.load(open("BENCH_baseline.json"))
ref = baseline["macro"]["pooled"]
err = open("/tmp/bench_smoke_macro.stderr").read()

def grab(pattern, what):
    m = re.search(pattern, err)
    if not m:
        raise SystemExit(f"could not parse {what} from the macro stderr:\n" + err)
    return m

perf = grab(r"perf\s*: (\d+) events in ([\d.]+) s wall", "perf line")
pool = grab(r"pool\s*: (\d+) allocs \(([\d.]+)% recycled\), (\d+) fell through to heap",
            "pool line")
wake = grab(r"wakeups\s*: (\d+) resumes, (\d+) suppressed", "wakeups line")
queue = grab(r"queue\s*: (\d+) near-bucket pops \([\d.]+%\), (\d+) bulk merges",
             "queue line")
events, wall = int(perf.group(1)), float(perf.group(2))
measured = {
    "events": events,
    "wall_seconds": wall,
    "events_per_sec": events / wall,
    "pool_allocs": int(pool.group(1)),
    "recycled_pct": float(pool.group(2)),
    "heap_allocs": int(pool.group(3)),
    "fiber_resumes": int(wake.group(1)),
    "wakeups_suppressed": int(wake.group(2)),
    "queue_near_hits": int(queue.group(1)),
    "bulk_merges": int(queue.group(2)),
}

# Host-speed proxy: the engine_micro pooled event-churn rate on this host vs
# the baseline host. Dividing the macro rate by this factor makes the 25%
# gate robust to slow/noisy CI runners while still catching real hot-path
# regressions (which move the macro rate without moving the tight churn loop
# by the same factor).
micro = json.load(open("/tmp/bench_smoke_micro.json"))
churn = {b["name"]: b.get("items_per_second")
         for b in micro["benchmarks"]
         if b.get("run_type", "iteration") == "iteration"}
micro_rate = churn.get("BM_EventChurn/pooled:1")
micro_ref = baseline["engine_micro"]["event_churn_events_per_sec"]["pooled"]
if not micro_rate:
    raise SystemExit("missing BM_EventChurn/pooled:1 rate for host normalization")
host_factor = micro_rate / micro_ref
normalized = measured["events_per_sec"] / host_factor
ratio = normalized / ref["events_per_sec"]

deltas = {k: measured[k] - ref[k]
          for k in ("events", "pool_allocs", "heap_allocs", "fiber_resumes",
                    "wakeups_suppressed", "queue_near_hits", "bulk_merges")}
trajectory = {
    "workload": baseline["workload"],
    "macro": measured,
    "baseline": {k: ref[k] for k in measured},
    "counter_deltas": deltas,
    "host_factor": host_factor,
    "normalized_events_per_sec": normalized,
    "normalized_ratio_vs_baseline": ratio,
}
with open("build/perf_trajectory.json", "w") as f:
    json.dump(trajectory, f, indent=2, sort_keys=True)
    f.write("\n")

print(f"  macro {measured['events_per_sec']:.0f} events/s raw, host factor "
      f"{host_factor:.2f}x -> {normalized:.0f} normalized "
      f"(baseline {ref['events_per_sec']}, ratio {ratio:.2f})")
print("  wrote build/perf_trajectory.json")
if ratio < 0.75:
    raise SystemExit("normalized macro event rate regressed more than 25% vs "
                     "BENCH_baseline.json")
EOF

echo "bench smoke OK"
