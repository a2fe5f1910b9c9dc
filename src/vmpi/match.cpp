#include "vmpi/match.hpp"

namespace exasim::vmpi {

namespace {

bool tag_matches(int wanted, int tag) { return wanted == kAnyTag || wanted == tag; }

}  // namespace

const MatchIndex::Bucket* MatchIndex::find_bucket(int comm_id, Rank src) const {
  const auto it = buckets_.find(key(comm_id, src));
  return it == buckets_.end() ? nullptr : &it->second;
}

void MatchIndex::post(Request& r) {
  PostedQueue* q = r.peer_comm_rank == kAnySource
                       ? &posted_any_
                       : &buckets_[key(r.comm_id, r.peer_comm_rank)].posted;
  q->push_back(&r);
  r.posted_in = q;
}

void MatchIndex::unpost(Request& r) {
  if (r.posted_in == nullptr) return;
  r.posted_in->erase(&r);
  r.posted_in = nullptr;
}

Request* MatchIndex::earliest_posted(const Envelope& env) const {
  // The winner is the lower-serial of the first tag-compatible receive in
  // the explicit bucket and the first compatible one in the ANY_SOURCE
  // queue: both queues are post-ordered.
  Request* best = nullptr;
  if (const Bucket* b = find_bucket(env.comm_id, env.src_comm_rank)) {
    for (Request* r = b->posted.front(); r != nullptr; r = r->post_next) {
      if (tag_matches(r->tag, env.tag)) {
        best = r;
        break;
      }
    }
  }
  for (Request* r = posted_any_.front(); r != nullptr; r = r->post_next) {
    if (best != nullptr && r->serial >= best->serial) break;
    if (r->comm_id == env.comm_id && tag_matches(r->tag, env.tag)) return r;
  }
  return best;
}

void MatchIndex::push_unexpected(const Envelope& env, util::PayloadBuf&& data,
                                 SimTime arrival) {
  const std::uint32_t slot = messages_.acquire();
  UnexpectedMsg& m = messages_[slot];
  m.env = env;
  m.data = std::move(data);
  m.arrival_time = arrival;
  m.slot = slot;
  m.by_source = &buckets_[key(env.comm_id, env.src_comm_rank)].unexpected;
  m.by_comm = &arrivals_[env.comm_id];
  m.by_source->push_back(&m);
  m.by_comm->push_back(&m);
}

UnexpectedMsg* MatchIndex::earliest_unexpected(int comm_id, Rank src, int tag) const {
  if (src != kAnySource) {
    const Bucket* b = find_bucket(comm_id, src);
    if (b == nullptr) return nullptr;
    for (UnexpectedMsg* m = b->unexpected.front(); m != nullptr; m = m->source_next) {
      if (tag_matches(tag, m->env.tag)) return m;
    }
    return nullptr;
  }
  const auto it = arrivals_.find(comm_id);
  if (it == arrivals_.end()) return nullptr;
  for (UnexpectedMsg* m = it->second.front(); m != nullptr; m = m->comm_next) {
    if (tag_matches(tag, m->env.tag)) return m;
  }
  return nullptr;
}

void MatchIndex::consume(UnexpectedMsg& m) {
  m.by_source->erase(&m);
  m.by_comm->erase(&m);
  messages_.release(m.slot);
}

}  // namespace exasim::vmpi
