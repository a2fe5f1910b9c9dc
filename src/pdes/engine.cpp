#include "pdes/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "pdes/lp_group.hpp"
#include "pdes/window_sync.hpp"

namespace exasim {

namespace {

/// Identifies the group worker the current thread is driving, so that
/// Engine::schedule / Engine::now called from inside an LP handler resolve
/// against the group-local state without locks.
struct WorkerCtx {
  Engine* engine = nullptr;
  LpGroup* group = nullptr;
};

thread_local WorkerCtx t_worker;

// Process-wide fan-out traffic counters (relaxed: they are statistics, not
// synchronization). Process-wide rather than per-engine so metrics/perf can
// read them without a handle on the Machine's engine.
std::atomic<std::uint64_t> g_fanout_notices{0};
std::atomic<std::uint64_t> g_fanout_relays{0};
std::atomic<std::uint64_t> g_fanout_dead_skips{0};

}  // namespace

FanoutStats fanout_stats() {
  FanoutStats s;
  s.notices = g_fanout_notices.load(std::memory_order_relaxed);
  s.relay_events = g_fanout_relays.load(std::memory_order_relaxed);
  s.dead_skips = g_fanout_dead_skips.load(std::memory_order_relaxed);
  return s;
}

void Engine::add_process(LpId id, LogicalProcess* lp) {
  if (id < 0) throw std::invalid_argument("negative LP id");
  if (static_cast<std::size_t>(id) >= processes_.size()) {
    processes_.resize(static_cast<std::size_t>(id) + 1, nullptr);
  }
  if (processes_[static_cast<std::size_t>(id)] != nullptr) {
    throw std::invalid_argument("duplicate LP id");
  }
  processes_[static_cast<std::size_t>(id)] = lp;
}

void Engine::set_sharding(ShardingOptions opts) {
  if (opts.workers < 1) opts.workers = 1;
  if (opts.lookahead < 1) opts.lookahead = 1;  // windows must make progress
  if (opts.block_alignment < 1) opts.block_alignment = 1;
  sharding_ = std::move(opts);
}

std::uint64_t Engine::next_seq_for(LpId source) {
  const std::size_t idx = static_cast<std::size_t>(source) + 1;
  // Growth only happens pre-run or in sequential mode; parallel runs presize
  // the vector so worker threads only touch their own LPs' slots.
  if (idx >= seq_by_source_.size()) seq_by_source_.resize(idx + 1, 0);
  return seq_by_source_[idx]++;
}

void Engine::note_causality_violation(SimTime time, SimTime local_now) {
  CausalityMode mode = causality_mode_;
  if (mode == CausalityMode::kDefault) {
#ifdef NDEBUG
    mode = CausalityMode::kCount;
#else
    mode = CausalityMode::kThrow;
#endif
  }
  if (mode == CausalityMode::kThrow) {
    throw std::logic_error("causality violation: scheduled event at " +
                           std::to_string(time) + " ns before local time " +
                           std::to_string(local_now) + " ns");
  }
  causality_violations_.fetch_add(1, std::memory_order_relaxed);
  if (!causality_warned_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[exasim] warning: causality violation (event at %" PRIu64
                 " ns before local time %" PRIu64
                 " ns); counting further ones silently\n",
                 static_cast<std::uint64_t>(time),
                 static_cast<std::uint64_t>(local_now));
  }
}

std::uint64_t Engine::schedule(SimTime time, LpId target, int kind,
                               std::unique_ptr<EventPayload> payload,
                               EventPriority priority) {
  LpGroup* grp = (t_worker.engine == this) ? t_worker.group : nullptr;
  const LpId source = grp ? grp->current_source() : current_source_;
  const SimTime local_now = grp ? grp->now() : now_;
  if (time < local_now) note_causality_violation(time, local_now);

  Event ev;
  ev.time = time;
  ev.priority = priority;
  ev.source = source;
  ev.seq = next_seq_for(source);
  ev.target = target;
  ev.kind = kind;
  ev.payload = std::move(payload);

  // Hoisted before the moves below: reading ev.seq after std::move(ev) only
  // worked because moving leaves POD members behind, and reads as a
  // use-after-move either way.
  const std::uint64_t seq = ev.seq;

  if (grp != nullptr) {
    if (target < 0 || static_cast<std::size_t>(target) >= group_of_.size()) {
      throw std::logic_error("event for unknown LP");
    }
    const int dst = group_of_[static_cast<std::size_t>(target)];
    if (dst == grp->index()) {
      grp->queue().push(std::move(ev));
    } else {
      grp->outbox_for(dst).push_back(std::move(ev));
    }
  } else {
    queue_.push(std::move(ev));
  }
  return seq;
}

void Engine::schedule_fanout(const std::vector<FanoutItem>& items, int kind,
                             const FanoutPayloadFn& make_payload,
                             EventPriority priority) {
  LpGroup* grp = (t_worker.engine == this) ? t_worker.group : nullptr;
  const LpId source = grp ? grp->current_source() : current_source_;
  const SimTime local_now = grp ? grp->now() : now_;

  if (grp == nullptr) {
    // Sequential (or pre-run) path: literally the per-item schedule() loop,
    // minus events whose target is already dead.
    for (const FanoutItem& it : items) {
      if (it.time < local_now) note_causality_violation(it.time, local_now);
      if (is_dead(it.target)) {
        ++events_dropped_dead_;
        g_fanout_dead_skips.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Event ev;
      ev.time = it.time;
      ev.priority = priority;
      ev.source = source;
      ev.seq = next_seq_for(source);
      ev.target = it.target;
      ev.kind = kind;
      ev.payload = make_payload(it);
      queue_.push(std::move(ev));
      g_fanout_notices.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  // Parallel path: same-group items go straight to our heap; remote items are
  // grouped into one RelayPayload batch per destination group. Seq values are
  // drawn in item order for exactly the events that are created, so the
  // delivered schedule matches the sequential per-item loop (dead flags are
  // monotonic, hence the skipped set is partition-independent; remote dead
  // targets are filtered at unpack by their owning worker instead of here).
  std::vector<std::unique_ptr<RelayPayload>> batches(
      static_cast<std::size_t>(last_groups_));
  for (const FanoutItem& it : items) {
    if (it.time < local_now) note_causality_violation(it.time, local_now);
    if (it.target < 0 || static_cast<std::size_t>(it.target) >= group_of_.size()) {
      throw std::logic_error("event for unknown LP");
    }
    const int dst = group_of_[static_cast<std::size_t>(it.target)];
    if (dst == grp->index() &&
        dead_[static_cast<std::size_t>(it.target)] != 0) {
      ++grp->events_dropped_dead;
      g_fanout_dead_skips.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Event ev;
    ev.time = it.time;
    ev.priority = priority;
    ev.source = source;
    ev.seq = next_seq_for(source);
    ev.target = it.target;
    ev.kind = kind;
    ev.payload = make_payload(it);
    if (dst == grp->index()) {
      // Remote items are counted at unpack instead, so a notice either
      // shows up in fanout_notices or in fanout_dead_skips — never both.
      g_fanout_notices.fetch_add(1, std::memory_order_relaxed);
      grp->queue().push(std::move(ev));
    } else {
      auto& batch = batches[static_cast<std::size_t>(dst)];
      if (!batch) batch = std::make_unique<RelayPayload>();
      batch->batch.push_back(std::move(ev));
    }
  }
  for (int dst = 0; dst < last_groups_; ++dst) {
    auto& batch = batches[static_cast<std::size_t>(dst)];
    if (!batch) continue;
    // The relay carrier adopts the minimum EventOrder key over its batch
    // (fan-out times are not sorted by rank — gossip detection times depend
    // on the epidemic order), so it is popped and unpacked in the destination
    // group before any batch item could have run.
    const Event* min_ev = &batch->batch.front();
    for (const Event& ev : batch->batch) {
      if (EventOrder{}(ev, *min_ev)) min_ev = &ev;
    }
    Event relay;
    relay.time = min_ev->time;
    relay.priority = min_ev->priority;
    relay.source = min_ev->source;
    relay.seq = min_ev->seq;
    relay.target = min_ev->target;  // Routing address only; never delivered.
    relay.kind = kRelayEventKind;
    relay.payload = std::move(batch);
    grp->outbox_for(dst).push_back(std::move(relay));
    g_fanout_relays.fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::unpack_relay(LpGroup& grp, Event&& relay) {
  auto* payload = static_cast<RelayPayload*>(relay.payload.get());
  std::vector<Event>& batch = payload->batch;
  // Compact the dead-target items out in place, then hand the survivors to
  // the queue as one bulk merge instead of per-event heap sifts.
  std::size_t kept = 0;
  for (Event& ev : batch) {
    if (dead_[static_cast<std::size_t>(ev.target)] != 0) {
      ++grp.events_dropped_dead;
      g_fanout_dead_skips.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    g_fanout_notices.fetch_add(1, std::memory_order_relaxed);
    batch[kept++] = std::move(ev);
  }
  batch.resize(kept);
  grp.queue().push_bulk(batch);
}

void Engine::requeue_relay_items(Event&& relay) {
  // Leftover cross-group batch from a previous parallel run: unpack into the
  // engine's flat queue (the items are re-routed individually on the next
  // distribution — a new partition may split them differently).
  auto* payload = static_cast<RelayPayload*>(relay.payload.get());
  queue_.push_bulk(payload->batch);
}

void Engine::mark_dead(LpId id) {
  if (id < 0) return;
  const std::size_t idx = static_cast<std::size_t>(id);
  // Growth only happens pre-run or in sequential mode; parallel runs presize.
  if (idx >= dead_.size()) dead_.resize(idx + 1, 0);
  dead_[idx] = 1;
}

SimTime Engine::now() const {
  if (t_worker.engine == this) return t_worker.group->now();
  return now_;
}

void Engine::plan_shape(int* workers, int* group_count) const {
  const std::size_t n = processes_.size();
  const std::size_t align = static_cast<std::size_t>(sharding_.block_alignment);
  const std::size_t blocks = (n + align - 1) / align;
  std::size_t w = static_cast<std::size_t>(sharding_.workers);
  if (w > blocks) w = blocks;
  if (w < 1) w = 1;
  // Oversubscription gives finished workers something to steal: the fixed
  // policy keeps one group per worker, the adaptive policy runs 4 (more,
  // smaller groups even out uneven event density).
  const std::size_t per_worker = sharding_.scheduler == SchedulerKind::kAdaptive ? 4 : 1;
  std::size_t g = w * per_worker;
  if (g > blocks) g = blocks;
  if (g < w) g = w;
  *workers = static_cast<int>(w);
  *group_count = static_cast<int>(g);
}

std::vector<int> Engine::plan_partition(int group_count) const {
  const std::size_t n = processes_.size();
  std::vector<int> map(n, 0);
  if (sharding_.group_of) {
    for (std::size_t id = 0; id < n; ++id) {
      const int g = sharding_.group_of(static_cast<LpId>(id));
      if (g < 0 || g >= group_count) {
        throw std::invalid_argument("ShardingOptions::group_of returned a group out of range");
      }
      map[id] = g;
    }
    return map;
  }
  // Contiguous blocks of `align` LPs, distributed over the groups as evenly
  // as possible with the first `rem` groups holding one extra block.
  const std::size_t align = static_cast<std::size_t>(sharding_.block_alignment);
  const std::size_t blocks = (n + align - 1) / align;
  const std::size_t groups = static_cast<std::size_t>(group_count);
  const std::size_t base = blocks / groups;
  const std::size_t rem = blocks % groups;
  for (std::size_t id = 0; id < n; ++id) {
    const std::size_t b = id / align;
    std::size_t g;
    if (b < rem * (base + 1)) {
      g = b / (base + 1);
    } else {
      g = rem + (b - rem * (base + 1)) / base;
    }
    map[id] = static_cast<int>(g);
  }
  return map;
}

void Engine::run() {
  int workers = 1;
  int group_count = 1;
  plan_shape(&workers, &group_count);
  last_groups_ = group_count;
  if (group_count <= 1) {
    run_sequential();
  } else {
    run_parallel(workers, group_count);
  }
  queue_note(queue_.take_stats());
}

void Engine::run_sequential() {
  stop_requested_.store(false, std::memory_order_relaxed);
  // Rolling near-horizon: 64 lookahead-wide bucket slices starting at the
  // current event time, rebased whenever delivery crosses the horizon. New
  // schedules land in the buckets; the pre-run backlog drains from the far
  // heap as the horizon sweeps over it.
  const SimTime horizon_span = sharding_.lookahead < (kSimTimeNever >> 7)
                                   ? sharding_.lookahead * 64
                                   : sharding_.lookahead;
  for (;;) {
    while (!queue_.empty() && !stop_requested_.load(std::memory_order_relaxed)) {
      Event ev = queue_.pop();
      if (ev.time >= queue_.horizon_end()) {
        // The popped event is the global minimum, so every pending event is
        // at or past it — rebasing never strands anything below the base.
        queue_.set_horizon(ev.time, horizon_span);
      }
      if (ev.kind == kRelayEventKind) {
        requeue_relay_items(std::move(ev));
        continue;
      }
      if (is_dead(ev.target)) {
        ++events_dropped_dead_;
        continue;
      }
      if (ev.target < 0 || static_cast<std::size_t>(ev.target) >= processes_.size() ||
          processes_[static_cast<std::size_t>(ev.target)] == nullptr) {
        throw std::logic_error("event for unknown LP");
      }
      now_ = ev.time;
      ++events_processed_;
      current_source_ = ev.target;
      processes_[static_cast<std::size_t>(ev.target)]->on_event(*this, std::move(ev));
      current_source_ = kExternalSource;
    }
    if (stop_requested_.load(std::memory_order_relaxed)) return;

    // Quiescence: give stalled LPs a chance to make progress (release failed
    // ANY_SOURCE waits etc.). If nobody progresses, stop — unterminated()
    // then reports the deadlocked set.
    bool progressed = false;
    for (std::size_t id = 0; id < processes_.size(); ++id) {
      LogicalProcess* lp = processes_[id];
      if (lp == nullptr || lp->terminated() || is_dead(static_cast<LpId>(id))) {
        continue;
      }
      current_source_ = static_cast<LpId>(id);
      if (lp->on_stall(*this)) progressed = true;
      current_source_ = kExternalSource;
    }
    if (!progressed && queue_.empty()) return;
  }
}

/// Shared state of one run_parallel invocation, handed to every worker.
struct Engine::WorkerPlan {
  std::vector<std::unique_ptr<LpGroup>> groups;
  std::vector<int> home;                ///< Group id → home worker.
  WindowSync* sync = nullptr;
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::vector<std::uint64_t> steals_by_worker;
  std::vector<std::uint64_t> idle_ns_by_worker;
};

void Engine::run_parallel(int workers, int group_count) {
  stop_requested_.store(false, std::memory_order_relaxed);
  const std::size_t n = processes_.size();
  group_of_ = plan_partition(group_count);
  // Presize shared vectors so worker threads never reallocate them.
  if (dead_.size() < n) dead_.resize(n, 0);
  if (seq_by_source_.size() < n + 1) seq_by_source_.resize(n + 1, 0);

  WorkerPlan plan;
  plan.groups.reserve(static_cast<std::size_t>(group_count));
  for (int g = 0; g < group_count; ++g) {
    plan.groups.push_back(std::make_unique<LpGroup>(g, group_count));
  }
  for (std::size_t id = 0; id < n; ++id) {
    plan.groups[static_cast<std::size_t>(group_of_[id])]->members().push_back(
        static_cast<LpId>(id));
  }
  while (!queue_.empty()) {
    Event ev = queue_.pop();
    if (ev.kind == kRelayEventKind) {
      requeue_relay_items(std::move(ev));
      continue;
    }
    if (ev.target < 0 || static_cast<std::size_t>(ev.target) >= n) {
      throw std::logic_error("event for unknown LP");
    }
    plan.groups[static_cast<std::size_t>(group_of_[static_cast<std::size_t>(ev.target)])]
        ->queue()
        .push(std::move(ev));
  }
  // Carry the engine clock into every group (relevant when run() is called
  // again after a previous run advanced the clock).
  for (auto& grp : plan.groups) grp->advance_now(now_);

  // Contiguous monotone home assignment: groups g with home[g] == w are
  // worker w's first claim targets each phase.
  plan.home.resize(static_cast<std::size_t>(group_count));
  for (int g = 0; g < group_count; ++g) {
    plan.home[static_cast<std::size_t>(g)] =
        static_cast<int>((static_cast<long long>(g) * workers) / group_count);
  }
  plan.steals_by_worker.assign(static_cast<std::size_t>(workers), 0);
  plan.idle_ns_by_worker.assign(static_cast<std::size_t>(workers), 0);

  const std::unique_ptr<SchedulerPolicy> policy = make_scheduler(sharding_.scheduler);
  WindowSync sync(workers, group_count, sharding_.lookahead, policy.get(), &stop_requested_);
  plan.sync = &sync;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back([this, &plan, w] { worker_main(plan, w); });
  }
  worker_main(plan, 0);
  for (std::thread& t : threads) t.join();

  // Fold group-local state back into the engine for the post-run accessors,
  // and the run's scheduler bookkeeping into the process-wide counters.
  for (auto& grp : plan.groups) {
    events_processed_ += grp->events_processed;
    events_dropped_dead_ += grp->events_dropped_dead;
    if (grp->now() > now_) now_ = grp->now();
    queue_note(grp->queue().take_stats());
    while (!grp->queue().empty()) queue_.push(grp->queue().pop());
    for (int dst = 0; dst < group_count; ++dst) {
      for (Event& ev : grp->outbox_for(dst)) queue_.push(std::move(ev));
      grp->outbox_for(dst).clear();
    }
  }
  std::uint64_t steals = 0;
  std::uint64_t idle_ns = 0;
  for (std::uint64_t s : plan.steals_by_worker) steals += s;
  for (std::uint64_t ns : plan.idle_ns_by_worker) idle_ns += ns;
  sched_note_run(steals, idle_ns);
  group_of_.clear();
  if (plan.first_error) std::rethrow_exception(plan.first_error);
}

void Engine::worker_main(WorkerPlan& plan, int worker) {
  WindowSync& sync = *plan.sync;
  const int group_count = static_cast<int>(plan.groups.size());
  // Claim scan order: home groups first, then everyone else's — both in
  // ascending group id, so the steal *order* is deterministic even though
  // which claims this worker wins depends on host timing.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(group_count));
  for (int g = 0; g < group_count; ++g) {
    if (plan.home[static_cast<std::size_t>(g)] == worker) order.push_back(g);
  }
  for (int g = 0; g < group_count; ++g) {
    if (plan.home[static_cast<std::size_t>(g)] != worker) order.push_back(g);
  }

  using Clock = std::chrono::steady_clock;
  std::uint64_t idle_ns = 0;        ///< Barrier wait since last publication.
  std::uint64_t idle_total = 0;
  std::uint64_t steals = 0;
  auto timed_wait = [&idle_ns](auto&& wait) {
    const Clock::time_point t0 = Clock::now();
    wait();
    idle_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  };

  try {
    for (;;) {
      timed_wait([&sync] { sync.sync_outboxes(); });
      for (int g : order) {
        if (!sync.try_claim_merge(g)) continue;
        LpGroup& grp = *plan.groups[static_cast<std::size_t>(g)];
        merge_group(plan.groups, grp);
        sync.publish_min(g, grp.queue().min_time());
        sync.publish_window_events(g, grp.window_events_last);
        sync.publish_progressed(g, grp.stall_progressed);
      }
      sync.publish_idle_ns(worker, idle_ns);
      idle_total += idle_ns;
      idle_ns = 0;
      timed_wait([&sync] { sync.sync_decide(); });
      switch (sync.phase()) {
        case WindowSync::Phase::kWindow:
          for (int g : order) {
            if (!sync.try_claim_exec(g)) continue;
            if (plan.home[static_cast<std::size_t>(g)] != worker) ++steals;
            LpGroup& grp = *plan.groups[static_cast<std::size_t>(g)];
            t_worker = WorkerCtx{this, &grp};
            run_window(grp, sync.bound(g));
            grp.stall_progressed = false;
            t_worker = WorkerCtx{};
          }
          break;
        case WindowSync::Phase::kStall:
          for (int g : order) {
            if (!sync.try_claim_exec(g)) continue;
            LpGroup& grp = *plan.groups[static_cast<std::size_t>(g)];
            t_worker = WorkerCtx{this, &grp};
            grp.stall_progressed = run_stall(grp);
            t_worker = WorkerCtx{};
          }
          break;
        case WindowSync::Phase::kExit:
          plan.steals_by_worker[static_cast<std::size_t>(worker)] = steals;
          plan.idle_ns_by_worker[static_cast<std::size_t>(worker)] = idle_total + idle_ns;
          return;
      }
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(plan.error_mu);
      if (!plan.first_error) plan.first_error = std::current_exception();
    }
    // Stop before withdrawing so the next decide() already observes it; the
    // early barrier arrivals then stand in for this worker's missing ones.
    stop_requested_.store(true, std::memory_order_release);
    sync.withdraw();
    plan.steals_by_worker[static_cast<std::size_t>(worker)] = steals;
    plan.idle_ns_by_worker[static_cast<std::size_t>(worker)] = idle_total + idle_ns;
    t_worker = WorkerCtx{};
  }
}

void Engine::merge_group(std::vector<std::unique_ptr<LpGroup>>& groups, LpGroup& grp) {
  for (auto& src : groups) {
    if (src.get() != &grp) grp.merge_inbox(src->outbox_for(grp.index()));
  }
}

void Engine::run_window(LpGroup& grp, SimTime bound) {
  EventQueue& q = grp.queue();
  std::uint64_t delivered = 0;
  // The window bound is the natural O(1) near-horizon for this group's
  // queue: everything deliverable this window lands in the buckets, the rest
  // falls back to the far heap.
  const SimTime base = grp.now();
  q.set_horizon(base, bound > base ? bound - base : 1);
  // Deliberately no stop check inside the window: every group finishes the
  // full window, so the delivered set stays deterministic per worker count.
  while (q.min_time() < bound) {
    Event ev = q.pop();
    if (ev.kind == kRelayEventKind) {
      // The carrier's key is the minimum over its batch, so every item lands
      // in the heap before it could have been due; relays are transport, not
      // delivery — no clock advance, no events_processed.
      unpack_relay(grp, std::move(ev));
      continue;
    }
    if (dead_[static_cast<std::size_t>(ev.target)] != 0) {
      ++grp.events_dropped_dead;
      continue;
    }
    LogicalProcess* lp = processes_[static_cast<std::size_t>(ev.target)];
    if (lp == nullptr) throw std::logic_error("event for unknown LP");
    grp.advance_now(ev.time);
    ++grp.events_processed;
    ++delivered;
    grp.set_current_source(ev.target);
    lp->on_event(*this, std::move(ev));
    grp.set_current_source(kExternalSource);
  }
  grp.window_events_last = delivered;
}

bool Engine::run_stall(LpGroup& grp) {
  bool progressed = false;
  for (LpId id : grp.members()) {
    LogicalProcess* lp = processes_[static_cast<std::size_t>(id)];
    if (lp == nullptr || lp->terminated() || dead_[static_cast<std::size_t>(id)] != 0) {
      continue;
    }
    grp.set_current_source(id);
    if (lp->on_stall(*this)) progressed = true;
    grp.set_current_source(kExternalSource);
  }
  return progressed;
}

std::vector<LpId> Engine::unterminated() const {
  std::vector<LpId> out;
  for (std::size_t id = 0; id < processes_.size(); ++id) {
    LogicalProcess* lp = processes_[id];
    if (lp != nullptr && !lp->terminated() && !is_dead(static_cast<LpId>(id))) {
      out.push_back(static_cast<LpId>(id));
    }
  }
  return out;
}

}  // namespace exasim
