#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "pdes/event.hpp"
#include "pdes/event_queue.hpp"
#include "pdes/scheduler.hpp"
#include "util/time.hpp"

namespace exasim {

class Engine;
class LpGroup;
class WindowSync;

/// A logical process driven by the engine. The simulated MPI layer implements
/// one LP per simulated MPI process; the LP reacts to message arrivals,
/// simulator-internal notifications, and timer wakeups.
class LogicalProcess {
 public:
  virtual ~LogicalProcess() = default;

  /// Delivers an event. The LP may advance its local state, switch into its
  /// application fiber, and schedule further events on the engine.
  virtual void on_event(Engine& engine, Event&& ev) = 0;

  /// Invoked when the event queue drains while this LP has not terminated —
  /// the conservative-PDES deadlock-detection hook ("synchronization
  /// mechanism", paper §IV-C). Return true if the LP made progress (scheduled
  /// new events or terminated); returning false from every stalled LP ends
  /// the run with those LPs reported as deadlocked.
  virtual bool on_stall(Engine& engine) { (void)engine; return false; }

  /// True once the LP needs no more events (finished, failed, or aborted).
  virtual bool terminated() const = 0;
};

/// Conservative discrete-event engine, sharded over LP groups.
///
/// Events execute in deterministic (time, priority, source, per-source seq)
/// order — a key that does not depend on cross-LP scheduling interleaving, so
/// the delivered schedule is a pure function of the simulated communication
/// plan. With `ShardingOptions::workers == 1` (the default) the engine is the
/// original sequential loop: all simulated processes interleaved on one
/// native thread using a schedule based on message receive time stamps
/// (paper §IV-A). With N > 1 workers the LPs are partitioned into contiguous
/// groups (aligned to `block_alignment`, normally ranks-per-node, so
/// intra-node traffic stays group-local) — at least one group per worker,
/// more when the scheduler oversubscribes for work-stealing — each group has
/// its own event heap, and the groups advance in lock-step conservative
/// windows bounded below `lookahead` — the minimum cross-node delivery
/// latency — past the global minimum (the SchedulerPolicy may widen a
/// group's bound inside the provably safe per-group envelope; DESIGN.md
/// §11). Each cycle, worker threads claim ready groups home-first and then
/// steal leftovers in group-id order. Cross-group events ride per-(source →
/// target) mailboxes merged at the window barrier; because the safe window
/// bounds and the ordering key are both partition-independent, every worker
/// count and scheduler policy delivers the identical event schedule.
class Engine {
 public:
  /// How to shard the LPs over worker threads. Applies to the next run().
  struct ShardingOptions {
    /// Worker threads. 1 selects the sequential engine (with the fixed
    /// policy); clamped down to the number of alignment blocks.
    int workers = 1;
    /// Conservative window width, normally
    /// NetworkModel::min_remote_latency() — a provable lower bound over any
    /// route/variant of the network model (contention waits and per-link
    /// timeouts only ever add delay, so the bound survives the link-level
    /// layers; DESIGN.md §12). Clamped up to 1 ns so windows always make
    /// progress.
    SimTime lookahead = 1;
    /// Partition granularity in LPs: groups are unions of contiguous blocks
    /// of this many LPs (normally ranks-per-node, keeping sub-lookahead
    /// intra-node traffic inside one group).
    int block_alignment = 1;
    /// Optional explicit partition override mapping LP id → group index in
    /// [0, groups); when set it replaces the contiguous-block partition.
    std::function<int(LpId)> group_of;
    /// Window scheduling policy. It also fixes the group count: fixed runs
    /// one LP group per worker, adaptive four so finished workers can steal.
    SchedulerKind scheduler = SchedulerKind::kFixed;
  };

  /// What Engine::schedule does when an event is scheduled before the
  /// scheduling group's local clock (a causality violation — conservative
  /// windows only stay exact for events at or after "now").
  enum class CausalityMode : std::uint8_t {
    kDefault,  ///< kThrow in debug builds, kCount when NDEBUG.
    kThrow,    ///< Throw std::logic_error at the offending schedule() call.
    kCount,    ///< Count (see causality_violations()) and warn once.
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an LP. Ids must be dense [0, n) for process LPs; the engine
  /// does not own the LP.
  void add_process(LpId id, LogicalProcess* lp);

  /// Schedules an event; returns its per-source sequence number. Callable
  /// from any worker thread during a parallel run: the event is routed to
  /// the target's group-local heap or, cross-group, to the scheduling
  /// group's outbox for merge at the next window barrier.
  std::uint64_t schedule(SimTime time, LpId target, int kind,
                         std::unique_ptr<EventPayload> payload,
                         EventPriority priority = EventPriority::kMessage);

  /// One destination of a schedule_fanout() call.
  struct FanoutItem {
    SimTime time = 0;
    LpId target = 0;
  };

  /// Builds the payload for one fan-out item. Invoked once per live item, in
  /// item order, on the scheduling thread.
  using FanoutPayloadFn = std::function<std::unique_ptr<EventPayload>(const FanoutItem&)>;

  /// Schedules one event per item — semantically identical to calling
  /// schedule() per item (same per-source seq draw order, so the delivered
  /// schedule is bit-identical) — but batched for the sharded engine: items
  /// for the scheduling group's own LPs go straight to its heap, while all
  /// items bound for another group travel as ONE relay event per destination
  /// group (kind kRelayEventKind, RelayPayload carrying the batch), unpacked
  /// into the group's heap on arrival. A ranks-wide failure broadcast thus
  /// costs O(groups) cross-group mailbox events instead of O(ranks). Items
  /// whose target is already dead are skipped where the dead flag is safely
  /// readable (scheduler's own group at enqueue, destination group at
  /// unpack) and counted in events_dropped_dead either way, so the delivered
  /// set and every counter are partition-independent.
  void schedule_fanout(const std::vector<FanoutItem>& items, int kind,
                       const FanoutPayloadFn& make_payload,
                       EventPriority priority = EventPriority::kControl);

  /// Marks an LP dead: all pending and future events targeted at it are
  /// dropped at delivery ("all messages directed to this simulated MPI
  /// process are deleted", paper §IV-B).
  void mark_dead(LpId id);
  bool is_dead(LpId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < dead_.size() &&
           dead_[static_cast<std::size_t>(id)] != 0;
  }

  void set_sharding(ShardingOptions opts);
  void set_causality_mode(CausalityMode mode) { causality_mode_ = mode; }

  /// Number of schedule() calls that targeted a time before the scheduler's
  /// local clock (only counted in CausalityMode::kCount).
  std::uint64_t causality_violations() const {
    return causality_violations_.load(std::memory_order_relaxed);
  }

  /// Group count the most recent run() used (1 = sequential loop).
  int worker_groups() const { return last_groups_; }

  /// Runs until every queue drains and no stalled LP makes progress.
  void run();

  /// Requests run() to stop (used once every simulated process has aborted
  /// and the simulator shuts down). Sequential runs stop after the current
  /// event; parallel runs stop at the next window boundary, so that the set
  /// of delivered events stays deterministic for a given worker count.
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }

  /// Time of the most recently delivered event — group-local when called
  /// from a worker thread during a parallel run, the global maximum after
  /// run() returns.
  SimTime now() const;

  /// LPs that had not terminated when run() returned (deadlock diagnostics).
  std::vector<LpId> unterminated() const;

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t events_pending() const { return queue_.size(); }
  std::uint64_t events_dropped_dead() const { return events_dropped_dead_; }

 private:
  struct WorkerPlan;  // Shared state of one run_parallel (defined in .cpp).

  void run_sequential();
  void run_parallel(int workers, int group_count);
  void worker_main(WorkerPlan& plan, int worker);
  void merge_group(std::vector<std::unique_ptr<LpGroup>>& groups, LpGroup& grp);
  void run_window(LpGroup& grp, SimTime bound);
  void unpack_relay(LpGroup& grp, Event&& relay);
  void requeue_relay_items(Event&& relay);
  bool run_stall(LpGroup& grp);
  void plan_shape(int* workers, int* group_count) const;
  std::vector<int> plan_partition(int group_count) const;
  std::uint64_t next_seq_for(LpId source);
  void note_causality_violation(SimTime time, SimTime local_now);

  ShardingOptions sharding_;
  CausalityMode causality_mode_ = CausalityMode::kDefault;
  std::vector<LogicalProcess*> processes_;
  EventQueue queue_;  ///< Sequential heap; staging/leftover area otherwise.
  /// Liveness flags indexed by LP id. Preallocated before worker threads
  /// start; each slot is then written only by the owning group's worker.
  std::vector<std::uint8_t> dead_;
  /// Per-source sequence counters, indexed source + 1 (slot 0 is
  /// kExternalSource). Preallocated before worker threads start; each LP
  /// slot is then touched only by the owning group's worker.
  std::vector<std::uint64_t> seq_by_source_;
  std::vector<int> group_of_;  ///< LP id → group index; set during run().
  SimTime now_ = 0;
  LpId current_source_ = kExternalSource;  ///< Sequential-mode source tracking.
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_dropped_dead_ = 0;
  int last_groups_ = 1;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> causality_violations_{0};
  std::atomic<bool> causality_warned_{false};
};

/// Process-wide counters for schedule_fanout traffic (src/metrics/perf
/// surfaces them next to the pool counters): notice events created, relay
/// carrier events used for cross-group batches, and dead-destination items
/// skipped.
struct FanoutStats {
  std::uint64_t notices = 0;
  std::uint64_t relay_events = 0;
  std::uint64_t dead_skips = 0;
};
FanoutStats fanout_stats();

}  // namespace exasim
