#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "util/pool.hpp"
#include "util/time.hpp"

namespace exasim {

/// Identifies a logical process (LP). For the simulated MPI layer, LP id ==
/// simulated MPI rank. Negative ids are reserved for engine-internal LPs.
using LpId = std::int32_t;

/// Event source for schedules made from outside any LP's event handler
/// (machine setup, tests). Sorts before every real LP at equal
/// (time, priority), so pre-run setup events keep their schedule order.
inline constexpr LpId kExternalSource = -1;

/// Event delivery class at equal timestamps. Control events (simulator-
/// internal failure/abort notifications) sort before regular messages so a
/// process learns of a peer's death before it would match a message that was
/// in flight at the same instant.
enum class EventPriority : std::uint8_t {
  kControl = 0,
  kMessage = 1,
  kTimer = 2,
};

/// Base class for event payloads. Layers above the engine (the simulated MPI
/// layer, timers) derive their own payload types and dispatch on Event::kind.
///
/// Payloads are the per-event heap traffic of the hot path, so allocation is
/// routed through the thread-local slab pool (util::pool_alloc — thread-local
/// means LP-group-local under the sharded engine; DESIGN.md §9). Derived
/// classes inherit the class-level operator new/delete; deletion through the
/// base pointer resolves to them via the virtual destructor.
struct EventPayload {
  virtual ~EventPayload() = default;

  static void* operator new(std::size_t bytes) { return util::pool_alloc(bytes); }
  static void operator delete(void* p) { util::pool_free(p); }
};

/// A scheduled simulation event. Ordering is (time, priority, source, seq):
/// `source` is the LP whose handler scheduled the event (kExternalSource for
/// setup events) and `seq` is a per-source sequence number. The key is a pure
/// function of the simulation plan — independent of how LP groups interleave
/// on native threads — which is what makes the sharded engine's schedule
/// bit-reproducible for any worker count (paper §V-E requires repeatable
/// experiments).
struct Event {
  SimTime time = 0;
  EventPriority priority = EventPriority::kMessage;
  LpId source = kExternalSource;
  std::uint64_t seq = 0;
  LpId target = 0;
  int kind = 0;
  std::unique_ptr<EventPayload> payload;
};

/// The ordering key of an Event, detached from its payload — copyable, so
/// keys can be compared and kept without copying events.
struct EventKey {
  SimTime time = 0;
  EventPriority priority = EventPriority::kMessage;
  LpId source = kExternalSource;
  std::uint64_t seq = 0;
};

inline EventKey key_of(const Event& e) { return EventKey{e.time, e.priority, e.source, e.seq}; }

inline bool key_less(const EventKey& a, const EventKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.source != b.source) return a.source < b.source;
  return a.seq < b.seq;
}

struct EventOrder {
  bool operator()(const Event& a, const Event& b) const { return key_less(key_of(a), key_of(b)); }
};

/// Engine-internal event kind for a batched cross-group fan-out relay
/// (Engine::schedule_fanout). Reserved: layers above the engine must not use
/// it. Chosen outside any plausible user kind range.
inline constexpr int kRelayEventKind = std::numeric_limits<int>::min();

/// Payload of a kRelayEventKind event: the per-destination-group batch of a
/// fan-out. The carrier event adopts the minimum EventOrder key over the
/// batch, so the relay is unpacked into the destination group's queue before
/// any of its items could run; the batch items then sort normally.
struct RelayPayload final : EventPayload {
  std::vector<Event> batch;
};

}  // namespace exasim
