// pdes: deterministic event ordering, dead-LP dropping, stall hooks, engine
// bookkeeping, and sharded-engine determinism (the parallel engine must
// deliver the exact same schedule as the sequential one for any worker
// count).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pdes/engine.hpp"
#include "pdes/event_queue.hpp"
#include "pdes/scheduler.hpp"
#include "pdes/sim_workers.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace exasim {
namespace {

struct IntPayload final : EventPayload {
  explicit IntPayload(int v) : value(v) {}
  int value;
};

/// Records delivered events; optional per-event callback.
class RecorderLp : public LogicalProcess {
 public:
  void on_event(Engine& engine, Event&& ev) override {
    delivered.push_back(std::move(ev));
    if (callback) callback(engine, delivered.back());
  }
  bool on_stall(Engine& engine) override {
    ++stall_calls;
    if (stall_action) return stall_action(engine);
    return false;
  }
  bool terminated() const override { return done; }

  std::vector<Event> delivered;
  std::function<void(Engine&, const Event&)> callback;
  std::function<bool(Engine&)> stall_action;
  int stall_calls = 0;
  bool done = false;
};

TEST(Engine, DeliversInTimeOrder) {
  Engine e;
  RecorderLp lp;
  lp.done = true;  // No stall involvement.
  e.add_process(0, &lp);
  e.schedule(30, 0, 1, nullptr);
  e.schedule(10, 0, 2, nullptr);
  e.schedule(20, 0, 3, nullptr);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 3u);
  EXPECT_EQ(lp.delivered[0].kind, 2);
  EXPECT_EQ(lp.delivered[1].kind, 3);
  EXPECT_EQ(lp.delivered[2].kind, 1);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, ControlPriorityBeatsMessageAtSameTime) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  e.schedule(5, 0, 1, nullptr, EventPriority::kMessage);
  e.schedule(5, 0, 2, nullptr, EventPriority::kControl);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 2u);
  EXPECT_EQ(lp.delivered[0].kind, 2);
  EXPECT_EQ(lp.delivered[1].kind, 1);
}

TEST(Engine, SequenceBreaksTiesDeterministically) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  for (int i = 0; i < 10; ++i) e.schedule(7, 0, i, nullptr);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(lp.delivered[static_cast<std::size_t>(i)].kind, i);
}

TEST(Engine, PayloadRoundTrips) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  e.schedule(1, 0, 9, std::make_unique<IntPayload>(123));
  e.run();
  ASSERT_EQ(lp.delivered.size(), 1u);
  auto* p = dynamic_cast<IntPayload*>(lp.delivered[0].payload.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 123);
}

TEST(Engine, DeadLpEventsAreDropped) {
  Engine e;
  RecorderLp a, b;
  a.done = b.done = true;
  e.add_process(0, &a);
  e.add_process(1, &b);
  e.schedule(1, 0, 1, nullptr);
  e.schedule(2, 1, 2, nullptr);
  e.schedule(3, 1, 3, nullptr);
  e.mark_dead(1);
  e.run();
  EXPECT_EQ(a.delivered.size(), 1u);
  EXPECT_TRUE(b.delivered.empty());
  EXPECT_EQ(e.events_dropped_dead(), 2u);
  EXPECT_TRUE(e.is_dead(1));
}

TEST(Engine, EventsScheduledDuringDeliveryAreProcessed) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  lp.callback = [&](Engine& eng, const Event& ev) {
    if (ev.kind == 1) eng.schedule(ev.time + 5, 0, 2, nullptr);
  };
  e.add_process(0, &lp);
  e.schedule(1, 0, 1, nullptr);
  e.run();
  ASSERT_EQ(lp.delivered.size(), 2u);
  EXPECT_EQ(lp.delivered[1].kind, 2);
  EXPECT_EQ(lp.delivered[1].time, 6u);
}

TEST(Engine, StallHookRunsForUnterminatedLps) {
  Engine e;
  RecorderLp lp;  // Not terminated, no events.
  e.add_process(0, &lp);
  e.run();
  EXPECT_EQ(lp.stall_calls, 1);
  EXPECT_EQ(e.unterminated(), std::vector<LpId>{0});
}

TEST(Engine, StallProgressContinuesTheRun) {
  Engine e;
  RecorderLp lp;
  lp.stall_action = [&](Engine& eng) {
    // First stall: schedule a final event and terminate.
    eng.schedule(100, 0, 7, nullptr);
    lp.done = true;
    return true;
  };
  e.add_process(0, &lp);
  e.run();
  // The event scheduled from the stall hook was delivered.
  ASSERT_EQ(lp.delivered.size(), 1u);
  EXPECT_EQ(lp.delivered[0].kind, 7);
  EXPECT_TRUE(e.unterminated().empty());
}

TEST(Engine, RequestStopHaltsEarly) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  lp.callback = [](Engine& eng, const Event&) { eng.request_stop(); };
  e.add_process(0, &lp);
  e.schedule(1, 0, 1, nullptr);
  e.schedule(2, 0, 2, nullptr);
  e.run();
  EXPECT_EQ(lp.delivered.size(), 1u);
  EXPECT_EQ(e.events_pending(), 1u);
}

TEST(Engine, RejectsBadLpRegistration) {
  Engine e;
  RecorderLp lp;
  EXPECT_THROW(e.add_process(-1, &lp), std::invalid_argument);
  e.add_process(0, &lp);
  EXPECT_THROW(e.add_process(0, &lp), std::invalid_argument);
}

TEST(Engine, UnknownTargetIsLogicError) {
  Engine e;
  RecorderLp lp;
  lp.done = true;
  e.add_process(0, &lp);
  e.schedule(1, 5, 1, nullptr);
  EXPECT_THROW(e.run(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Sharded engine (--sim-workers): worker-count invariance, window edges,
// multi-group stall handling, and the causality guard.

constexpr SimTime kLookahead = 10;

Engine::ShardingOptions sharded(int workers) {
  return Engine::ShardingOptions{workers, kLookahead, 1, {}};
}

struct StormPayload final : EventPayload {
  explicit StormPayload(int h) : hops(h) {}
  int hops;
};

/// Interleaving-independent pseudo-random stream: depends only on the
/// delivered event's identity (splitmix64 finalizer).
std::uint64_t storm_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Records its delivery order and fans out pseudo-random child events: one
/// self event with any delta >= 0 and one cross-LP event with delta >=
/// lookahead (the contract that makes the schedule partition-independent).
class StormLp : public LogicalProcess {
 public:
  StormLp(LpId id, int lp_count) : id_(id), lp_count_(lp_count) {}

  void on_event(Engine& engine, Event&& ev) override {
    trace += std::to_string(ev.time) + "/" + std::to_string(ev.kind) + "/" +
             std::to_string(ev.source) + ";";
    auto* p = dynamic_cast<StormPayload*>(ev.payload.get());
    if (p == nullptr || p->hops <= 0) return;
    std::uint64_t r = storm_mix((ev.time << 20) ^
                                (static_cast<std::uint64_t>(ev.kind) << 8) ^
                                static_cast<std::uint64_t>(id_));
    engine.schedule(ev.time + r % 3, id_, static_cast<int>(r % 100),
                    std::make_unique<StormPayload>(p->hops - 1));
    r = storm_mix(r);
    engine.schedule(ev.time + kLookahead + r % 7, static_cast<LpId>(r % lp_count_),
                    static_cast<int>(r % 100), std::make_unique<StormPayload>(p->hops - 1));
  }
  bool terminated() const override { return true; }

  std::string trace;

 private:
  LpId id_;
  int lp_count_;
};

std::string run_storm(int workers, std::uint64_t* processed,
                      SchedulerKind scheduler = SchedulerKind::kFixed) {
  constexpr int kLps = 8;
  Engine e;
  std::vector<std::unique_ptr<StormLp>> lps;
  for (LpId i = 0; i < kLps; ++i) {
    lps.push_back(std::make_unique<StormLp>(i, kLps));
    e.add_process(i, lps.back().get());
  }
  for (LpId i = 0; i < kLps; ++i) {
    e.schedule(static_cast<SimTime>(i % 3), i, static_cast<int>(i),
               std::make_unique<StormPayload>(5));
  }
  Engine::ShardingOptions opts = sharded(workers);
  opts.scheduler = scheduler;
  e.set_sharding(opts);
  e.run();
  *processed = e.events_processed();
  std::string all;
  for (auto& lp : lps) all += lp->trace + "\n";
  return all;
}

TEST(ShardedEngine, EventStormTraceIsWorkerCountInvariant) {
  std::uint64_t base_count = 0;
  const std::string base = run_storm(1, &base_count);
  EXPECT_GT(base_count, 100u);  // 8 seed events, 5 hops, 2 children each.
  for (int workers : {2, 4, hardware_sim_workers()}) {
    std::uint64_t count = 0;
    EXPECT_EQ(run_storm(workers, &count), base) << "workers=" << workers;
    EXPECT_EQ(count, base_count) << "workers=" << workers;
  }
}

TEST(ShardedEngine, EventStormTraceIsSchedulerInvariant) {
  // The delivered schedule must be byte-identical across every combination of
  // worker count x scheduling policy: adaptive bounds stay inside the safe
  // envelope.
  std::uint64_t base_count = 0;
  const std::string base = run_storm(1, &base_count);
  for (int workers : {1, 2, 4}) {
    for (SchedulerKind kind : {SchedulerKind::kFixed, SchedulerKind::kAdaptive}) {
      std::uint64_t count = 0;
      EXPECT_EQ(run_storm(workers, &count, kind), base)
          << "workers=" << workers << " scheduler=" << to_string(kind);
      EXPECT_EQ(count, base_count) << "workers=" << workers;
    }
  }
}

TEST(ShardedEngine, StealingWithOversubscribedGroupsIsDeterministic) {
  // The adaptive policy runs 4 groups per worker, which enables
  // work-stealing: more groups than workers, and any worker may claim any
  // group once its own are done. Which steals occur is timing-dependent, but
  // group state is only ever touched by the claim holder between barriers, so
  // the trace must not change.
  std::uint64_t base_count = 0;
  const std::string base = run_storm(1, &base_count);
  std::uint64_t count = 0;
  EXPECT_EQ(run_storm(2, &count, SchedulerKind::kAdaptive), base);
  EXPECT_EQ(count, base_count);
}

TEST(ShardedEngine, AdaptivePolicyWidensWindowsOnTheStorm) {
  // The storm run is sparse per group (8 LPs, short hops), so the adaptive
  // policy's density feedback must widen at least one window beyond the fixed
  // bound; the trace stays identical (checked above), only pacing changes.
  const SchedStats before = sched_stats();
  std::uint64_t count = 0;
  run_storm(4, &count, SchedulerKind::kAdaptive);
  const SchedStats after = sched_stats();
  EXPECT_GT(after.windows, before.windows);
  EXPECT_GT(after.window_widenings - before.window_widenings, 0u);
}

TEST(ShardedEngine, EventStormTraceIsPoolingInvariant) {
  // StormPayload allocation goes through the pooled EventPayload operator
  // new; the delivered schedule must not depend on where payload bytes live
  // (DESIGN.md §9), sequentially or across worker threads.
  const bool before = util::pool_enabled();
  util::set_pool_enabled(true);
  std::uint64_t pooled_count = 0;
  const std::string pooled = run_storm(4, &pooled_count);
  util::set_pool_enabled(false);
  for (int workers : {1, 4}) {
    std::uint64_t count = 0;
    EXPECT_EQ(run_storm(workers, &count), pooled) << "workers=" << workers;
    EXPECT_EQ(count, pooled_count) << "workers=" << workers;
  }
  util::set_pool_enabled(before);
}

TEST(ShardedEngine, EventExactlyAtWindowBoundIsDelivered) {
  // A cross-group event landing exactly at the window bound (delta ==
  // lookahead, the minimum legal cross-node delivery) must not be lost or
  // reordered against a same-instant event from another source.
  for (int workers : {1, 2}) {
    Engine e;
    RecorderLp a, b;
    a.done = b.done = true;
    e.add_process(0, &a);
    e.add_process(1, &b);
    a.callback = [](Engine& eng, const Event& ev) {
      if (ev.kind == 1) eng.schedule(ev.time + kLookahead, 1, 42, nullptr);
    };
    e.schedule(kLookahead, 1, 99, nullptr);  // External, same instant.
    e.schedule(0, 0, 1, nullptr);
    e.set_sharding(sharded(workers));
    e.run();
    ASSERT_EQ(b.delivered.size(), 2u) << "workers=" << workers;
    // Tie at t == lookahead: external source (-1) orders before LP 0.
    EXPECT_EQ(b.delivered[0].kind, 99) << "workers=" << workers;
    EXPECT_EQ(b.delivered[1].kind, 42) << "workers=" << workers;
  }
}

TEST(ShardedEngine, MultiGroupDeadlockEndsTheRun) {
  // No events, nothing terminated: every group's stall round runs exactly
  // once (the two-phase global check), then the run ends as deadlocked.
  Engine e;
  RecorderLp lps[4];
  for (LpId i = 0; i < 4; ++i) e.add_process(i, &lps[i]);
  e.set_sharding(sharded(4));
  e.run();
  for (auto& lp : lps) EXPECT_EQ(lp.stall_calls, 1);
  EXPECT_EQ(e.unterminated(), (std::vector<LpId>{0, 1, 2, 3}));
}

TEST(ShardedEngine, StallProgressCrossesGroups) {
  // Progress made by one group's stall hook (a cross-group wakeup) must keep
  // the whole run alive until the woken group finishes.
  Engine e;
  RecorderLp a, b;
  a.stall_action = [&](Engine& eng) {
    eng.schedule(eng.now() + kLookahead, 1, 7, nullptr);
    a.done = true;
    return true;
  };
  b.callback = [&](Engine&, const Event&) { b.done = true; };
  e.add_process(0, &a);
  e.add_process(1, &b);
  e.set_sharding(sharded(2));
  e.run();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].kind, 7);
  EXPECT_TRUE(e.unterminated().empty());
}

TEST(ShardedEngine, WorkerCountClampsToAlignmentBlocks) {
  // 3 LPs in blocks of 2 -> 2 blocks -> at most 2 groups, however many
  // workers were requested.
  Engine e;
  RecorderLp lps[3];
  for (LpId i = 0; i < 3; ++i) {
    lps[i].done = true;
    e.add_process(i, &lps[i]);
  }
  e.schedule(1, 2, 1, nullptr);
  e.set_sharding(Engine::ShardingOptions{8, kLookahead, 2, {}});
  e.run();
  EXPECT_EQ(e.worker_groups(), 2);
  EXPECT_EQ(lps[2].delivered.size(), 1u);
}

TEST(ShardedEngine, ExplicitPartitionOverrideDeliversEverything) {
  Engine e;
  RecorderLp lps[4];
  for (LpId i = 0; i < 4; ++i) {
    lps[i].done = true;
    e.add_process(i, &lps[i]);
  }
  for (LpId i = 0; i < 4; ++i) {
    e.schedule(static_cast<SimTime>(1 + i), i, static_cast<int>(i), nullptr);
  }
  Engine::ShardingOptions opts = sharded(2);
  opts.group_of = [](LpId id) { return static_cast<int>(id) % 2; };  // Striped.
  e.set_sharding(opts);
  e.run();
  EXPECT_EQ(e.worker_groups(), 2);
  for (auto& lp : lps) EXPECT_EQ(lp.delivered.size(), 1u);
}

TEST(ShardedEngine, CausalityViolationThrowsInThrowMode) {
  Engine e;
  e.set_causality_mode(Engine::CausalityMode::kThrow);
  RecorderLp lp;
  lp.done = true;
  lp.callback = [](Engine& eng, const Event& ev) {
    if (ev.kind == 1) eng.schedule(ev.time - 5, 0, 2, nullptr);  // Into the past.
  };
  e.add_process(0, &lp);
  e.schedule(10, 0, 1, nullptr);
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(ShardedEngine, CausalityViolationCountsInCountMode) {
  Engine e;
  e.set_causality_mode(Engine::CausalityMode::kCount);
  RecorderLp lp;
  lp.done = true;
  lp.callback = [](Engine& eng, const Event& ev) {
    if (ev.kind == 1) eng.schedule(ev.time - 5, 0, 2, nullptr);
  };
  e.add_process(0, &lp);
  e.schedule(10, 0, 1, nullptr);
  e.run();
  EXPECT_EQ(e.causality_violations(), 1u);
  EXPECT_EQ(lp.delivered.size(), 2u);  // Still delivered, just late.
}

TEST(EventOrder, OrdersByTimePriositySeq) {
  Event a, b;
  a.time = 1;
  b.time = 2;
  EXPECT_TRUE(EventOrder{}(a, b));
  b.time = 1;
  a.priority = EventPriority::kControl;
  b.priority = EventPriority::kMessage;
  EXPECT_TRUE(EventOrder{}(a, b));
  b.priority = EventPriority::kControl;
  a.source = kExternalSource;  // External schedules order before any LP's.
  b.source = 0;
  EXPECT_TRUE(EventOrder{}(a, b));
  b.source = kExternalSource;
  a.seq = 1;
  b.seq = 2;
  EXPECT_TRUE(EventOrder{}(a, b));
}

// ---- EventQueue (two-level compact-key queue) ------------------------------

Event make_event(SimTime time, EventPriority prio, LpId source, std::uint64_t seq) {
  Event ev;
  ev.time = time;
  ev.priority = prio;
  ev.source = source;
  ev.seq = seq;
  ev.kind = static_cast<int>(seq);
  return ev;
}

/// Drains the queue and checks the pop sequence is exactly `expect` (by key).
void expect_pop_order(EventQueue& q, std::vector<Event>& expect) {
  std::sort(expect.begin(), expect.end(), [](const Event& a, const Event& b) {
    return key_less(key_of(a), key_of(b));
  });
  for (const Event& want : expect) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.min_time(), want.time);
    EXPECT_EQ(key_of(q.peek()).seq, want.seq);
    const Event got = q.pop();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.priority, want.priority);
    EXPECT_EQ(got.source, want.source);
    EXPECT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, KeyTiesPopInPriositySourceSeqOrder) {
  EventQueue q;
  std::vector<Event> expect;
  // All at the same timestamp: priority, then source (kExternalSource first),
  // then per-source seq must decide.
  const std::uint64_t seqs[] = {5, 1, 3, 2, 4};
  for (std::uint64_t s : seqs) {
    expect.push_back(make_event(7, EventPriority::kMessage, 2, s));
    q.push(make_event(7, EventPriority::kMessage, 2, s));
  }
  expect.push_back(make_event(7, EventPriority::kControl, 9, 1));
  q.push(make_event(7, EventPriority::kControl, 9, 1));
  expect.push_back(make_event(7, EventPriority::kMessage, kExternalSource, 8));
  q.push(make_event(7, EventPriority::kMessage, kExternalSource, 8));
  expect.push_back(make_event(7, EventPriority::kTimer, 0, 0));
  q.push(make_event(7, EventPriority::kTimer, 0, 0));
  expect_pop_order(q, expect);
}

TEST(EventQueue, NearFarBoundaryPreservesGlobalOrder) {
  EventQueue q;
  q.set_horizon(100, 64);  // Near slices cover [100, horizon_end).
  const SimTime end = q.horizon_end();
  ASSERT_GT(end, SimTime{100});
  std::vector<Event> expect;
  std::uint64_t seq = 0;
  // Straddle the boundary: below base, inside, exactly at the end, beyond.
  for (SimTime t : {end + 50, SimTime{100}, end - 1, SimTime{17}, end, SimTime{101},
                    end + 1, SimTime{150}}) {
    expect.push_back(make_event(t, EventPriority::kMessage, 0, seq));
    q.push(make_event(t, EventPriority::kMessage, 0, seq));
    ++seq;
  }
  const auto stats_before = q.take_stats();
  (void)stats_before;
  expect_pop_order(q, expect);
  // The in-horizon pops must have been served by the near buckets.
  EXPECT_GE(q.take_stats().near_hits, 5u);
}

TEST(EventQueue, PushBulkMatchesIndividualPushes) {
  Rng rng(23);
  std::vector<Event> plan;
  for (std::uint64_t i = 0; i < 500; ++i) {
    plan.push_back(make_event(rng.next_below(1000),
                              i % 7 == 0 ? EventPriority::kControl : EventPriority::kMessage,
                              static_cast<LpId>(rng.next_below(16)), i));
  }

  EventQueue individual;
  individual.set_horizon(0, 256);
  for (const Event& ev : plan) {
    individual.push(make_event(ev.time, ev.priority, ev.source, ev.seq));
  }

  EventQueue bulk;
  bulk.set_horizon(0, 256);
  std::vector<Event> batch;
  for (const Event& ev : plan) batch.push_back(make_event(ev.time, ev.priority, ev.source, ev.seq));
  bulk.push_bulk(batch);
  EXPECT_TRUE(batch.empty());  // push_bulk drains its input.
  EXPECT_GE(bulk.take_stats().bulk_merges, 1u);

  ASSERT_EQ(individual.size(), bulk.size());
  while (!individual.empty()) {
    const Event a = individual.pop();
    const Event b = bulk.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(bulk.empty());
}

TEST(EventQueue, RandomizedInterleavedOpsMatchReferenceOrder) {
  // Random pushes/bulk-merges/pops with a rolling horizon, cross-checked
  // against a sorted reference of whatever should still be queued.
  Rng rng(31);
  EventQueue q;
  std::vector<Event> reference;  // Unordered mirror of the queue contents.
  std::uint64_t seq = 0;
  SimTime now = 0;
  auto ref_min = [&reference]() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      if (key_less(key_of(reference[i]), key_of(reference[best]))) best = i;
    }
    return best;
  };
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 5) {
      const SimTime t = now + rng.next_below(512);
      const auto src = static_cast<LpId>(rng.next_below(8));
      q.push(make_event(t, EventPriority::kMessage, src, seq));
      reference.push_back(make_event(t, EventPriority::kMessage, src, seq));
      ++seq;
    } else if (dice < 6) {
      std::vector<Event> batch;
      const std::uint64_t n = rng.next_below(64);
      for (std::uint64_t i = 0; i < n; ++i) {
        const SimTime t = now + rng.next_below(2048);
        batch.push_back(make_event(t, EventPriority::kControl, 3, seq));
        reference.push_back(make_event(t, EventPriority::kControl, 3, seq));
        ++seq;
      }
      q.push_bulk(batch);
    } else if (dice < 7) {
      q.set_horizon(now, 1 + rng.next_below(1024));
    } else if (!reference.empty()) {
      ASSERT_FALSE(q.empty());
      const std::size_t want = ref_min();
      const Event got = q.pop();
      EXPECT_EQ(got.time, reference[want].time);
      EXPECT_EQ(got.source, reference[want].source);
      EXPECT_EQ(got.seq, reference[want].seq);
      now = got.time;
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(want));
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  std::vector<Event> rest = std::move(reference);
  expect_pop_order(q, rest);
}

}  // namespace
}  // namespace exasim
