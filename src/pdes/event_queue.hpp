#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pdes/event.hpp"
#include "util/time.hpp"

namespace exasim {

/// Min-priority queue of events under EventOrder — the per-LP-group event
/// heap of the sharded engine (one per group; the sequential engine is the
/// one-group degenerate case). Not thread-safe: each queue is owned by
/// exactly one worker thread.
///
/// Two-level structure (DESIGN.md §13). Full Event structs live in a
/// slot-stable slab (vector + free list); the orderings only ever move
/// 24-byte Entry keys (time, packed priority|source, slab slot), so heap
/// sifts stop shuffling 56-byte events and their unique_ptr payloads around.
/// Entries inside the current conservative window land in a 64-bucket
/// near-horizon array — each bucket a small binary heap covering a
/// power-of-two time slice — while everything at or past the horizon falls
/// back to one big far heap. The engine sets the horizon from the window
/// bound (WindowSync) or, sequentially, as a rolling lookahead-sized window,
/// so the bucket a pop comes from is almost always the first occupied one
/// and its heap holds only a sliver of the pending set. Bucket routing is a
/// placement heuristic only: pop/peek/min_time compare the best near entry
/// against the far-heap root under the full key, so any horizon (including
/// none — the initial state routes everything far) delivers the exact
/// EventOrder sequence.
///
/// The per-source `seq` tie-break is not packed into the entry: the
/// comparator dereferences the slab only when (time, priority, source) tie,
/// which keeps the common compare at two branch-free word compares.
class EventQueue {
 public:
  void push(Event&& ev);

  /// Drains `evs` into the queue — the bulk half of a mailbox merge or relay
  /// unpack. Entries bound for the far heap are appended and re-heapified in
  /// one Floyd pass when the batch is large relative to the heap (>= 1/8 of
  /// its size), which beats per-event sifts for inbox-sized batches.
  void push_bulk(std::vector<Event>& evs);

  /// Pops the earliest event; undefined on an empty queue.
  Event pop();

  /// Timestamp of the earliest event, kSimTimeNever when empty — the value a
  /// group publishes for the conservative window-bound computation.
  SimTime min_time() const;

  /// The earliest event without removing it; undefined on an empty queue.
  const Event& peek() const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Points the near-horizon bucket array at [base, base + span'): span is
  /// rounded up so the 64 buckets have a power-of-two width. Events already
  /// queued are re-routed between levels lazily (near leftovers re-bucket
  /// now; far entries stay far) — placement is a heuristic, never a
  /// correctness input. Called by the engine once per conservative window
  /// (bound from WindowSync) or per rolling sequential window.
  void set_horizon(SimTime base, SimTime span);

  /// Exclusive upper time bound of the near buckets (0 until the first
  /// set_horizon: everything routes to the far heap).
  SimTime horizon_end() const { return near_end_; }

  /// Queue-local traffic counters, folded into the process-wide stats
  /// (queue_note) by the engine at the end of a run.
  struct LocalStats {
    std::uint64_t near_hits = 0;    ///< Pops served from a near bucket.
    std::uint64_t bulk_merges = 0;  ///< push_bulk calls.
  };
  LocalStats take_stats() {
    LocalStats s = stats_;
    stats_ = LocalStats{};
    return s;
  }

 private:
  /// Compact ordering key + slab slot. `ps` packs (priority << 32) |
  /// sign-biased source so one unsigned compare orders both fields.
  struct Entry {
    SimTime time = 0;
    std::uint64_t ps = 0;
    std::uint32_t slot = 0;
  };

  static constexpr int kBuckets = 64;

  static std::uint64_t pack_ps(EventPriority priority, LpId source) {
    return (static_cast<std::uint64_t>(priority) << 32) |
           (static_cast<std::uint32_t>(source) ^ 0x80000000u);
  }

  bool entry_less(const Entry& a, const Entry& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.ps != b.ps) return a.ps < b.ps;
    return slab_[a.slot].seq < slab_[b.slot].seq;
  }

  std::uint32_t slab_put(Event&& ev);
  Event slab_take(std::uint32_t slot);

  void heap_up(std::vector<Entry>& h, std::size_t i);
  void heap_down(std::vector<Entry>& h, std::size_t i);
  Entry heap_pop_root(std::vector<Entry>& h);

  /// Bucket index for time t under the current horizon; -1 = far heap.
  /// Times below the base clamp into bucket 0, so every bucket still covers
  /// a contiguous ascending time range.
  int bucket_of(SimTime t) const;
  void route(Entry e);

  /// Locates the minimum entry under the full key: pointer to the winning
  /// heap (a near bucket or the far heap), or nullptr when empty.
  const std::vector<Entry>* min_heap(int* bucket) const;

  std::vector<Event> slab_;          ///< Slot-stable event storage.
  std::vector<std::uint32_t> free_;  ///< Recyclable slab slots.
  std::vector<Entry> far_;           ///< Heap of entries at/past the horizon.
  std::array<std::vector<Entry>, kBuckets> near_;  ///< Per-slice mini-heaps.
  std::uint64_t occupied_ = 0;       ///< Bit g set <=> near_[g] nonempty.
  SimTime near_base_ = 0;
  SimTime near_end_ = 0;             ///< 0 = near level disabled.
  int width_shift_ = 0;              ///< Bucket width = 1 << width_shift_.
  std::size_t size_ = 0;
  std::vector<Entry> scratch_;       ///< push_bulk staging (reused).
  LocalStats stats_;
};

/// Process-wide queue traffic counters (metrics/perf surfaces them next to
/// the pool and fan-out counters); engines fold per-queue LocalStats in at
/// the end of each run.
struct QueueStats {
  std::uint64_t near_hits = 0;
  std::uint64_t bulk_merges = 0;
};
QueueStats queue_stats();
void queue_note(const EventQueue::LocalStats& s);

}  // namespace exasim
