// Microbenchmarks (google-benchmark) for the simulator substrate itself:
// event-queue throughput, fiber context switches, message matching, p2p
// round trips, and whole-machine construction — the costs that bound how
// many simulated MPI processes one native core can carry (xSim's
// scalability/accuracy trade-off, paper §II-A).
//
// Deliberately NOT on exp::ParallelExecutor: google-benchmark owns the
// repetition loop and measures wall-clock per iteration — running these
// concurrently would just make them measure scheduler contention.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "fiber/fiber.hpp"
#include "pdes/engine.hpp"
#include "pdes/scheduler.hpp"
#include "util/log.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "vmpi/context.hpp"
#include "vmpi/process.hpp"

using namespace exasim;

namespace {

struct Quiet {
  Quiet() { Log::set_level(LogLevel::kOff); }
} quiet;

// ---- Event queue -----------------------------------------------------------

class CountingLp final : public LogicalProcess {
 public:
  void on_event(Engine&, Event&&) override { ++count; }
  bool terminated() const override { return true; }
  std::uint64_t count = 0;
};

void BM_EventQueueThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    CountingLp lp;
    engine.add_process(0, &lp);
    Rng rng(7);
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      engine.schedule(rng.next_below(1'000'000), 0, 1, nullptr);
    }
    engine.run();
    benchmark::DoNotOptimize(lp.count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1024)->Arg(65536);

/// Raw queue ops against a standing population: each iteration pushes one
/// event at a random offset ahead of the current minimum and pops the
/// minimum — the sequential engine's inner loop. range(0) = 1 keeps a rolling
/// near horizon over the insertion span (the two-level fast path); 0 leaves
/// the horizon disabled so every op goes through the far heap.
void BM_QueuePushPop(benchmark::State& state) {
  const bool near = state.range(0) != 0;
  constexpr int kStanding = 8192;
  constexpr SimTime kDense = 4096;        ///< Most traffic lands here (messages).
  constexpr SimTime kSpan = 1024 * 1024;  ///< Occasional timers/checkpoints.
  EventQueue q;
  Rng rng(11);
  SimTime now = 0;
  auto offset = [&rng](int i) {
    return (i % 8 != 0) ? rng.next_below(kDense) : rng.next_below(kSpan);
  };
  for (int i = 0; i < kStanding; ++i) {
    Event ev;
    ev.time = offset(i);
    ev.source = static_cast<LpId>(i % 64);
    ev.seq = static_cast<std::uint64_t>(i);
    q.push(std::move(ev));
  }
  if (near) q.set_horizon(0, kDense * 4);
  int i = 0;
  for (auto _ : state) {
    Event ev;
    ev.time = now + 1 + offset(++i);
    ev.seq = rng.next_below(1u << 30);
    q.push(std::move(ev));
    Event out = q.pop();
    now = out.time;
    if (near && now >= q.horizon_end()) q.set_horizon(now, kDense * 4);
    benchmark::DoNotOptimize(out.seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueuePushPop)->Arg(0)->Arg(1)->ArgNames({"near"});

/// Inbox merge: drain a batch into a loaded queue. range(0) = 0 pushes the
/// batch one event at a time (per-entry heap sifts); 1 uses push_bulk (one
/// Floyd rebuild when the batch is large relative to the heap) — the
/// LpGroup::merge_inbox / relay-unpack path of the sharded engine.
void BM_QueueBulkMerge(benchmark::State& state) {
  const bool bulk = state.range(0) != 0;
  constexpr int kHeap = 1024;   ///< Group heap near a window barrier (drained).
  constexpr int kBatch = 8192;  ///< The window's inbound mailbox traffic.
  constexpr SimTime kSpan = 64 * 1024;
  Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue q;
    for (int i = 0; i < kHeap; ++i) {
      Event ev;
      ev.time = rng.next_below(kSpan);
      ev.seq = static_cast<std::uint64_t>(i);
      q.push(std::move(ev));
    }
    std::vector<Event> inbox(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      inbox[i].time = rng.next_below(kSpan);
      inbox[i].seq = static_cast<std::uint64_t>(kHeap + i);
    }
    state.ResumeTiming();
    if (bulk) {
      q.push_bulk(inbox);
    } else {
      for (Event& ev : inbox) q.push(std::move(ev));
      inbox.clear();
    }
    benchmark::DoNotOptimize(q.min_time());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_QueueBulkMerge)->Arg(0)->Arg(1)->ArgNames({"bulk"});

// ---- Hot-path memory (DESIGN.md §9) ---------------------------------------

/// Flips pooling for one benchmark run and restores the prior setting.
/// state.range(0): 0 = heap (pooling off), 1 = pooled.
struct PoolMode {
  explicit PoolMode(bool pooled) : before(util::pool_enabled()) {
    util::set_pool_enabled(pooled);
  }
  ~PoolMode() { util::set_pool_enabled(before); }
  bool before;
};

struct ChurnPayload final : EventPayload {
  std::uint64_t vals[4] = {0, 0, 0, 0};
};

/// What a delivered eager message actually carries: a payload object plus a
/// copied data buffer (vmpi::MsgPayload shape). 256 B spills past the
/// PayloadBuf inline capacity, so each event costs two allocations — object
/// and data — exactly the hot-path traffic the pool exists to absorb.
struct ChurnMsgPayload final : EventPayload {
  util::PayloadBuf data;
};
constexpr std::size_t kChurnMsgBytes = 256;

/// Raw payload allocate/free cycle — the per-event allocator cost in
/// isolation. Pooled (steady-state free-list hits) vs heap (::operator new).
void BM_PayloadAllocFree(benchmark::State& state) {
  PoolMode mode(state.range(0) != 0);
  for (auto _ : state) {
    auto* p = new ChurnPayload;
    benchmark::DoNotOptimize(p);
    delete p;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayloadAllocFree)->Arg(0)->Arg(1)->ArgNames({"pooled"});

/// PayloadBuf assign cost: inline (fits the 64-byte SBO) vs spilled
/// (pool-backed). range(0) = bytes.
void BM_PayloadBufAssign(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(bytes, std::byte{0x5a});
  for (auto _ : state) {
    util::PayloadBuf buf;
    buf.assign(src.data(), src.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PayloadBufAssign)->Arg(32)->Arg(64)->Arg(256)->Arg(4096)->ArgNames({"bytes"});

/// Steady-state event churn: every delivered event frees its payload and
/// schedules a successor with a fresh one — the allocation pattern of a
/// long-running simulation (message payloads birth and die once per event).
/// This is the headline pooled-vs-heap number for bench_baseline.sh.
class ChurnLp final : public LogicalProcess {
 public:
  explicit ChurnLp(std::uint64_t budget) : remaining_(budget) {
    scratch_.resize(kChurnMsgBytes, std::byte{0x37});
  }
  void on_event(Engine& engine, Event&& ev) override {
    if (remaining_ == 0) return;
    --remaining_;
    auto payload = std::make_unique<ChurnMsgPayload>();
    payload->data.assign(scratch_.data(), scratch_.size());
    engine.schedule(ev.time + 1, ev.target, 1, std::move(payload));
    // The incoming ev.payload dies when ev goes out of scope — one birth and
    // one death per event, the steady state of a long simulation.
  }
  bool terminated() const override { return remaining_ == 0; }

 private:
  std::uint64_t remaining_;
  std::vector<std::byte> scratch_;
};

void BM_EventChurn(benchmark::State& state) {
  PoolMode mode(state.range(0) != 0);
  const std::uint64_t events = 100'000;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    ChurnLp lp(events);
    engine.add_process(0, &lp);
    // Seed four in-flight chains so the queue is never trivially empty.
    for (int i = 0; i < 4; ++i) {
      engine.schedule(static_cast<SimTime>(i), 0, 1, std::make_unique<ChurnMsgPayload>());
    }
    state.ResumeTiming();
    engine.run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventChurn)->Arg(0)->Arg(1)->ArgNames({"pooled"});

// ---- Sharded engine: multi-core window throughput -------------------------

constexpr SimTime kSpinLookahead = 8;

struct SpinPayload final : EventPayload {
  explicit SpinPayload(int h) : hops(h) {}
  int hops;
};

/// Event-dense macro workload: every delivered event burns a fixed slab of
/// compute (an LCG spin), self-schedules within the window, and occasionally
/// fans out across LPs at >= lookahead. Execution-bound by construction —
/// the regime where window parallelism pays. The spin seed depends only on
/// the event's identity, so the schedule (and total event count) is
/// byte-identical for every worker count and scheduling policy.
class SpinLp final : public LogicalProcess {
 public:
  SpinLp(LpId id, int lp_count) : id_(id), lp_count_(lp_count) {}

  void on_event(Engine& engine, Event&& ev) override {
    std::uint64_t acc = 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(ev.time) << 8) ^
                        static_cast<std::uint64_t>(id_);
    for (int i = 0; i < 2000; ++i) {
      acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    }
    benchmark::DoNotOptimize(acc);
    auto* p = static_cast<SpinPayload*>(ev.payload.get());
    if (p == nullptr || p->hops <= 0) return;
    engine.schedule(ev.time + 1 + acc % 4, id_, 0, std::make_unique<SpinPayload>(p->hops - 1));
    if (acc % 8 == 0) {
      engine.schedule(ev.time + kSpinLookahead + acc % 16, static_cast<LpId>(acc % lp_count_),
                      1, std::make_unique<SpinPayload>(p->hops - 1));
    }
  }
  bool terminated() const override { return true; }

 private:
  LpId id_;
  int lp_count_;
};

/// range(0) = workers, range(1) = 1 for the adaptive policy (with its default
/// 4 groups-per-worker oversubscription, enabling work-stealing), 0 for
/// fixed. Real time, not CPU time: the whole point is wall-clock speedup.
void BM_ShardedWindowThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const bool adaptive = state.range(1) != 0;
  constexpr int kLps = 64;
  constexpr int kHops = 40;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    std::vector<std::unique_ptr<SpinLp>> lps;
    for (LpId i = 0; i < kLps; ++i) {
      lps.push_back(std::make_unique<SpinLp>(i, kLps));
      engine.add_process(i, lps.back().get());
      engine.schedule(static_cast<SimTime>(i % 3), i, 0, std::make_unique<SpinPayload>(kHops));
    }
    Engine::ShardingOptions opts{workers, kSpinLookahead, 1, {}};
    opts.scheduler = adaptive ? SchedulerKind::kAdaptive : SchedulerKind::kFixed;
    engine.set_sharding(opts);
    state.ResumeTiming();
    engine.run();
    events = engine.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ShardedWindowThroughput)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->ArgNames({"workers", "adaptive"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Fibers ---------------------------------------------------------------

void BM_FiberSwitch(benchmark::State& state) {
  Fiber fiber([] {
    for (;;) Fiber::yield();
  });
  for (auto _ : state) fiber.resume();
  state.SetItemsProcessed(state.iterations() * 2);  // In + out.
}
BENCHMARK(BM_FiberSwitch);

void BM_FiberCreateDestroy(benchmark::State& state) {
  // Pooled: after the first iteration every stack is a MADV_DONTNEED reuse.
  // Heap: one mmap/mprotect/munmap triple per fiber.
  PoolMode mode(state.range(0) != 0);
  for (auto _ : state) {
    Fiber fiber([] {});
    fiber.resume();
    benchmark::DoNotOptimize(fiber.finished());
  }
}
BENCHMARK(BM_FiberCreateDestroy)->Arg(0)->Arg(1)->ArgNames({"pooled"});

// ---- Simulated MPI ---------------------------------------------------------

core::SimConfig micro_config(int ranks) {
  core::SimConfig cfg;
  cfg.ranks = ranks;
  cfg.topology = "star:" + std::to_string(ranks);
  cfg.proc.slowdown = 1.0;
  cfg.process.fiber_stack_bytes = 64 * 1024;
  return cfg;
}

void BM_PingPong(benchmark::State& state) {
  const int rounds = 1000;
  for (auto _ : state) {
    core::Machine machine(micro_config(2), [&](vmpi::Context& ctx) {
      std::uint64_t v = 0;
      for (int i = 0; i < rounds; ++i) {
        if (ctx.rank() == 0) {
          ctx.send(1, 0, &v, sizeof v);
          ctx.recv(1, 1, &v, sizeof v);
        } else {
          ctx.recv(0, 0, &v, sizeof v);
          ctx.send(0, 1, &v, sizeof v);
        }
      }
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_PingPong);

/// Fiber-dispatch cost under fan-in traffic: every rank sends to rank 0,
/// which receives in rank order — so most arrivals at rank 0 cannot complete
/// the receive it is currently blocked on. range(0) = 1 resumes rank 0's
/// fiber on every arrival anyway (eager); 0 filters spurious resumes against
/// the recorded wait-set (the default). Identical simulated results either
/// way; only the host cost differs.
void BM_WakeupFanIn(benchmark::State& state) {
  const bool eager = state.range(0) != 0;
  const bool before = vmpi::eager_wakeup_enabled();
  vmpi::set_eager_wakeup(eager);
  const int ranks = 64;
  const int rounds = 20;
  for (auto _ : state) {
    core::Machine machine(micro_config(ranks), [&](vmpi::Context& ctx) {
      std::uint64_t v = 0;
      for (int r = 0; r < rounds; ++r) {
        if (ctx.rank() == 0) {
          for (int src = 1; src < ranks; ++src) ctx.recv(src, r, &v, sizeof v);
        } else {
          ctx.send(0, r, &v, sizeof v);
        }
      }
      ctx.finalize();
    });
    machine.run();
  }
  vmpi::set_eager_wakeup(before);
  state.SetItemsProcessed(state.iterations() * (ranks - 1) * rounds);
}
BENCHMARK(BM_WakeupFanIn)->Arg(0)->Arg(1)->ArgNames({"eager"});

void BM_UnexpectedQueueMatch(benchmark::State& state) {
  // Many tagged messages arrive before the receives are posted; matching
  // then scans the unexpected queue.
  const int msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Machine machine(micro_config(2), [&](vmpi::Context& ctx) {
      std::uint64_t v = 0;
      if (ctx.rank() == 0) {
        for (int i = 0; i < msgs; ++i) ctx.send(1, i, &v, sizeof v);
      } else {
        ctx.elapse(sim_ms(10));  // Let everything arrive first.
        for (int i = msgs - 1; i >= 0; --i) ctx.recv(0, i, &v, sizeof v);
      }
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_UnexpectedQueueMatch)->Arg(64)->Arg(512);

void BM_LinearBarrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Machine machine(micro_config(ranks), [](vmpi::Context& ctx) {
      ctx.barrier(ctx.world());
      ctx.finalize();
    });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_LinearBarrier)->Arg(64)->Arg(1024);

void BM_MachineConstruction(benchmark::State& state) {
  // Cost of standing up (and tearing down) n simulated processes.
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Machine machine(micro_config(ranks), [](vmpi::Context& ctx) { ctx.finalize(); });
    machine.run();
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_MachineConstruction)->Arg(1024)->Arg(16384);

}  // namespace
