#pragma once

#include <cstdint>
#include <vector>

#include "pdes/event.hpp"
#include "pdes/event_queue.hpp"
#include "util/time.hpp"

namespace exasim {

/// One shard of the sharded engine: a contiguous block of LPs, their event
/// heap, and the per-(this-group → target-group) outbox mailboxes — xSim's
/// partitioning of simulated MPI processes over native processes (§IV-A),
/// here over native threads.
///
/// Engine-internal. Threading contract: everything in an LpGroup (queue,
/// outboxes, counters, clock) is touched only by the single worker
/// thread currently holding the group's claim token (WindowSync); claim
/// hand-offs between workers are separated by the window barriers. Within
/// one cycle, the worker that merged a group's mailboxes may differ from the
/// worker that executes its window — the merge/execute claims are distinct —
/// and other groups' workers drain `outbox_for(their group)` during their own
/// merge step, again across a barrier from this group's writes.
class LpGroup {
 public:
  LpGroup(int index, int group_count) : index_(index), outbox_(group_count) {}

  LpGroup(const LpGroup&) = delete;
  LpGroup& operator=(const LpGroup&) = delete;

  int index() const { return index_; }

  EventQueue& queue() { return queue_; }

  /// Mailbox of cross-group events this group scheduled for group `dst`.
  std::vector<Event>& outbox_for(int dst) { return outbox_[dst]; }

  /// Drains the inbound mailbox `src` filled for this group into the heap as
  /// one bulk merge (EventQueue::push_bulk: Floyd heapify when the inbox is
  /// large relative to the heap). Runs on this group's worker, after the
  /// pre-merge barrier.
  void merge_inbox(std::vector<Event>& inbox) {
    if (!inbox.empty()) queue_.push_bulk(inbox);
  }

  /// Group-local clock: maximum timestamp delivered by this group. Used as
  /// the reference time of the causality guard for schedules made from this
  /// group's LPs.
  SimTime now() const { return now_; }
  void advance_now(SimTime t) { if (t > now_) now_ = t; }

  /// LP whose on_event/on_stall handler is currently executing on this
  /// group's worker (kExternalSource between deliveries) — the `source` half
  /// of the deterministic ordering key.
  LpId current_source() const { return current_source_; }
  void set_current_source(LpId id) { current_source_ = id; }

  /// LPs owned by this group, ascending id order.
  std::vector<LpId>& members() { return members_; }
  const std::vector<LpId>& members() const { return members_; }

  std::uint64_t events_processed = 0;
  std::uint64_t events_dropped_dead = 0;
  /// Events delivered in the most recent window phase — the per-group
  /// event-density feedback of the adaptive scheduler policy.
  std::uint64_t window_events_last = 0;
  /// Whether the most recent stall phase made progress (published to the
  /// window synchronizer for the global two-phase deadlock check).
  bool stall_progressed = false;

 private:
  int index_;
  EventQueue queue_;
  std::vector<std::vector<Event>> outbox_;
  std::vector<LpId> members_;
  SimTime now_ = 0;
  LpId current_source_ = kExternalSource;
};

}  // namespace exasim
