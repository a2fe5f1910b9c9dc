#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/intrusive_list.hpp"
#include "util/pool.hpp"
#include "util/slab.hpp"
#include "util/time.hpp"
#include "vmpi/message.hpp"
#include "vmpi/request.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

/// Unmatched posted receives in post order.
struct PostedQueue
    : util::IntrusiveList<Request, &Request::post_prev, &Request::post_next> {};

struct SourceArrivals;
struct CommArrivals;

/// A message sitting in a process's unexpected queue (arrived before a
/// matching receive was posted). It is linked into two arrival-ordered
/// lists: its (comm, source) bucket's and its communicator's.
struct UnexpectedMsg {
  Envelope env;
  util::PayloadBuf data;
  SimTime arrival_time = 0;
  std::uint32_t slot = 0;
  UnexpectedMsg* source_prev = nullptr;
  UnexpectedMsg* source_next = nullptr;
  UnexpectedMsg* comm_prev = nullptr;
  UnexpectedMsg* comm_next = nullptr;
  SourceArrivals* by_source = nullptr;
  CommArrivals* by_comm = nullptr;
};

struct SourceArrivals : util::IntrusiveList<UnexpectedMsg, &UnexpectedMsg::source_prev,
                                            &UnexpectedMsg::source_next> {};
struct CommArrivals
    : util::IntrusiveList<UnexpectedMsg, &UnexpectedMsg::comm_prev, &UnexpectedMsg::comm_next> {};

/// One process's message-matching state (DESIGN.md §9): posted receives and
/// unexpected messages, bucketed by (comm id, source comm rank) so that a
/// linear collective's root, holding thousands of unexpected messages, still
/// matches each receive in O(1). Buckets are kept once created, so steady-
/// state traffic between the same peers never allocates; unexpected
/// messages live in a recycling slab.
///
/// MPI match order is kept exactly:
///  - an arriving message goes to the earliest-posted matching receive,
///    whether it sits in the message's (comm, source) bucket or in the
///    process-wide ANY_SOURCE queue (serials are post-ordered);
///  - a receive takes the earliest-arrived matching message, from its
///    source's bucket, or — for ANY_SOURCE — from its communicator's
///    arrival list.
///
/// Every indexed request is an unmatched (kPosted) receive: callers unpost a
/// receive before changing its stage.
class MatchIndex {
 public:
  /// Indexes an unmatched receive.
  void post(Request& r);
  /// Removes a receive from the index; no-op if it is not indexed.
  static void unpost(Request& r);
  /// The earliest-posted indexed receive matching env, or nullptr.
  Request* earliest_posted(const Envelope& env) const;

  /// Queues a message no posted receive matched.
  void push_unexpected(const Envelope& env, util::PayloadBuf&& data, SimTime arrival);
  /// The earliest-arrived unexpected message on comm_id matching (src, tag)
  /// — either may be a wildcard — or nullptr.
  UnexpectedMsg* earliest_unexpected(int comm_id, Rank src, int tag) const;
  /// Dequeues m and recycles its storage.
  void consume(UnexpectedMsg& m);

 private:
  struct Bucket {
    PostedQueue posted;         ///< Explicit-source receives, post order.
    SourceArrivals unexpected;  ///< This source's messages, arrival order.
  };
  static std::uint64_t key(int comm_id, Rank src) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm_id)) << 32) |
           static_cast<std::uint32_t>(src);
  }
  const Bucket* find_bucket(int comm_id, Rank src) const;

  std::unordered_map<std::uint64_t, Bucket> buckets_;
  std::unordered_map<int, CommArrivals> arrivals_;  ///< Per comm id, arrival order.
  PostedQueue posted_any_;                          ///< ANY_SOURCE receives, post order.
  util::Slab<UnexpectedMsg> messages_;
};

}  // namespace exasim::vmpi
