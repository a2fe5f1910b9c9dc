#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/intrusive_list.hpp"
#include "util/pool.hpp"
#include "util/slab.hpp"
#include "util/time.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

struct PostedQueue;

/// Nonblocking operation state. Owned by the process (RequestTable);
/// applications hold opaque handles via the Context API.
struct Request {
  enum class Kind : std::uint8_t { kSend, kRecv };
  enum class Stage : std::uint8_t {
    kPosted,        ///< Recv: unmatched. Send: eager in flight / RTS sent.
    kAwaitingCts,   ///< Rendezvous send waiting for clear-to-send.
    kAwaitingData,  ///< Rendezvous recv matched RTS, waiting for bulk data.
    kDone,          ///< Terminal: complete_time and error are valid.
  };

  std::uint64_t serial = 0;  ///< Post order within the process; never reused.
  std::uint32_t slot = 0;    ///< Storage slot in the owning RequestTable.
  Kind kind = Kind::kRecv;
  Stage stage = Stage::kPosted;

  int comm_id = 0;
  Rank peer_comm_rank = kAnySource;  ///< Dest (send) or source (recv; may be kAnySource).
  Rank peer_world_rank = -1;         ///< Resolved world rank; -1 for kAnySource until match.
  int tag = kAnyTag;
  std::size_t bytes = 0;             ///< Send size / recv capacity.

  /// Receive destination; nullptr for modeled (size-only) transfers.
  void* recv_buffer = nullptr;

  /// Send payload (captured at post time); empty for modeled sends.
  util::PayloadBuf send_data;

  std::uint64_t rdv_id = 0;          ///< Rendezvous transaction, if any.
  SimTime post_time = 0;

  /// Terminal state.
  SimTime complete_time = 0;
  MsgStatus status;

  /// Guards against scheduling duplicate timeout releases for one request.
  bool error_wakeup_scheduled = false;

  /// ULFM recovery traffic (shrink/agree) is not failed by a revoke notice.
  bool survives_revoke = false;

  /// The process fiber is blocked in a wait_all that includes this request —
  /// its completion must wake the fiber (SimProcess wakeup filter).
  bool waited = false;

  /// Intrusive links, maintained by the owning process: every live request
  /// in post order, and — while an unmatched receive is indexed for matching
  /// — the posted-receive queue it sits in (`posted_in`, else nullptr).
  Request* live_prev = nullptr;
  Request* live_next = nullptr;
  Request* post_prev = nullptr;
  Request* post_next = nullptr;
  PostedQueue* posted_in = nullptr;

  bool done() const { return stage == Stage::kDone; }
};

/// Opaque request handle returned to applications. `slot` locates the
/// request in O(1); `serial` must still match, so a handle whose request was
/// released never reaches a newer request recycled into the same slot.
struct RequestHandle {
  std::uint64_t serial = 0;
  std::uint32_t slot = 0;
  bool valid() const { return serial != 0; }
};

/// A process's live requests (DESIGN.md §9): slab storage recycled on
/// release, O(1) handle lookup, and iteration in post order. Single-owner,
/// like the process that holds it.
class RequestTable {
 public:
  /// A fresh request with the next serial, appended to the live list.
  Request& create(Request::Kind kind) {
    const std::uint32_t slot = slab_.acquire();
    if (slot == serial_of_slot_.size()) {
      serial_of_slot_.reserve(slab_.capacity());
      serial_of_slot_.push_back(0);
    }
    Request& r = slab_[slot];
    r.serial = next_serial_++;
    r.slot = slot;
    r.kind = kind;
    serial_of_slot_[slot] = r.serial;
    live_.push_back(&r);
    return r;
  }

  /// The live request behind h, or nullptr if h was released or never
  /// issued. Reads only the side table, never a parked slot.
  Request* find(RequestHandle h) {
    if (h.serial == 0 || h.slot >= serial_of_slot_.size() ||
        serial_of_slot_[h.slot] != h.serial) {
      return nullptr;
    }
    return &slab_[h.slot];
  }

  /// Parks r's slot; r must be live and no longer indexed for matching.
  void release(Request& r) {
    live_.erase(&r);
    serial_of_slot_[r.slot] = 0;
    slab_.release(r.slot);
  }

  /// Oldest live request; continue with Request::live_next.
  Request* first() const { return live_.front(); }

  static RequestHandle handle(const Request& r) { return RequestHandle{r.serial, r.slot}; }

 private:
  util::Slab<Request> slab_;
  std::vector<std::uint64_t> serial_of_slot_;  ///< 0 = parked.
  util::IntrusiveList<Request, &Request::live_prev, &Request::live_next> live_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace exasim::vmpi
