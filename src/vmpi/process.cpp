#include "vmpi/process.hpp"

#include <ctime>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "resilience/policy.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "vmpi/context.hpp"

namespace exasim::vmpi {

namespace {

std::atomic<bool> g_eager_wakeup{[] {
  const char* env = std::getenv("EXASIM_EAGER_WAKEUP");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

}  // namespace

bool eager_wakeup_enabled() { return g_eager_wakeup.load(std::memory_order_relaxed); }

void set_eager_wakeup(bool eager) { g_eager_wakeup.store(eager, std::memory_order_relaxed); }

SimProcess::SimProcess(Rank world_rank, int world_size, Engine* engine, const Fabric* fabric,
                       const ProcessorModel* proc_model, SystemHooks* hooks,
                       CommRegistry* registry, AppMain app, ProcessConfig config,
                       SimTime initial_clock)
    : world_rank_(world_rank),
      world_size_(world_size),
      engine_(engine),
      fabric_(fabric),
      proc_model_(proc_model),
      hooks_(hooks),
      registry_(registry),
      app_(std::move(app)),
      config_(config),
      clock_(initial_clock) {
  if (engine_ == nullptr || fabric_ == nullptr || proc_model_ == nullptr || hooks_ == nullptr ||
      registry_ == nullptr) {
    throw std::invalid_argument("null wiring");
  }
  context_ = std::make_unique<Context>(this);

  auto world = std::make_unique<Comm>();
  world->id = CommRegistry::kWorldId;
  world->set_identity_members(world_size_);  // O(1): no per-process member list.
  world->my_rank = world_rank_;
  comms_.push_back(std::move(world));

  fiber_ = std::make_unique<Fiber>([this] { fiber_body(); }, config_.fiber_stack_bytes);
}

SimProcess::~SimProcess() = default;

// ---------------------------------------------------------------------------
// Fiber lifecycle
// ---------------------------------------------------------------------------

void SimProcess::fiber_body() {
  try {
    check_signals();  // "fail immediately" schedules activate before any work.
    app_(*context_);
    if (!finalized_) {
      // Returning from the application main without MPI_Finalize is a
      // failure-injection trigger (paper §IV-B).
      throw ProcessFailedSignal{};
    }
    terminate(ProcOutcome::kFinished, clock_);
  } catch (const ProcessFailedSignal&) {
    terminate(ProcOutcome::kFailed, clock_);
  } catch (const ProcessAbortSignal&) {
    terminate(ProcOutcome::kAborted, clock_);
  }
}

namespace {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

void SimProcess::fold_native_time() {
  if (!config_.measured_compute) return;
  const std::uint64_t now = thread_cpu_ns();
  if (last_native_ns_ != 0 && now > last_native_ns_) {
    advance_clock(proc_model_->scale_native(now - last_native_ns_));
  }
  last_native_ns_ = now;
}

void SimProcess::run_fiber() {
  if (terminated() || fiber_->finished()) return;
  if (config_.measured_compute) last_native_ns_ = thread_cpu_ns();
  in_fiber_ = true;
  fiber_->resume();
  in_fiber_ = false;
}

void SimProcess::maybe_run_fiber() {
  if (!started_ || in_fiber_) return;
  // Resume unless a recorded block condition says this wake cannot matter.
  // kNone (blocked outside a registered wait, or not blocked at all) always
  // resumes — the filter only ever skips provably spurious wakes.
  if (eager_wakeup_enabled() || wait_kind_ == WaitKind::kNone || wake_pending_) {
    wake_pending_ = false;
    run_fiber();
    return;
  }
  fiber_note_wakeup_suppressed();
}

void SimProcess::register_probe_wait(int comm_id, Rank src, Rank src_world, int tag) {
  wait_kind_ = WaitKind::kProbe;
  wait_comm_id_ = comm_id;
  wait_src_ = src;
  wait_src_world_ = src_world;
  wait_tag_ = tag;
}

void SimProcess::clear_wait() {
  wait_kind_ = WaitKind::kNone;
  wake_pending_ = false;
  wait_pending_ = 0;
}

void SimProcess::note_request_done(Request& r) {
  // Only the last outstanding waited request can satisfy a wait-all.
  if (r.waited && wait_pending_ > 0 && --wait_pending_ == 0) wake_pending_ = true;
}

void SimProcess::note_unexpected(const Envelope& env) {
  // Mirrors the probe() scan: a blocked probe observes exactly the messages
  // matching its (comm, source, tag) spec.
  if (wait_kind_ != WaitKind::kProbe) return;
  if (env.comm_id != wait_comm_id_) return;
  if (wait_src_ != kAnySource && env.src_comm_rank != wait_src_) return;
  if (wait_tag_ != kAnyTag && env.tag != wait_tag_) return;
  wake_pending_ = true;
}

template <class Ready>
void SimProcess::block_until(Ready&& ready) {
  for (;;) {
    if (fault_.forced_failure != kSimTimeNever) {
      clock_ = std::max(clock_, fault_.forced_failure);
      fault_.forced_failure = kSimTimeNever;
      throw ProcessFailedSignal{};
    }
    if (fault_.forced_abort != kSimTimeNever) {
      clock_ = std::max(clock_, fault_.forced_abort);
      fault_.forced_abort = kSimTimeNever;
      throw ProcessAbortSignal{};
    }
    if (ready()) return;
    Fiber::yield();
  }
}

void SimProcess::terminate(ProcOutcome outcome, SimTime when) {
  assert(outcome != ProcOutcome::kRunning);
  outcome_ = outcome;
  end_time_ = when;
  if (outcome == ProcOutcome::kFailed) {
    hooks_->process_failed(*this, when);
  }
  hooks_->process_terminated(*this);
}

// ---------------------------------------------------------------------------
// Clock & signals
// ---------------------------------------------------------------------------

void SimProcess::advance_clock(SimTime dt, bool busy) {
  if (busy) {
    busy_time_ += dt;
  } else {
    comm_time_ += dt;
  }
  if (energy_ != nullptr && dt > 0) {
    if (busy) {
      energy_->add_busy(world_rank_, dt);
    } else {
      energy_->add_comm(world_rank_, dt);
    }
  }
  clock_ += dt;
  if (soft_errors_.pending()) soft_errors_.apply_due(clock_);
  check_signals();
}

void SimProcess::register_memory(const std::string& name, void* ptr, std::size_t bytes) {
  soft_errors_.register_region(name, ptr, bytes);
}

void SimProcess::unregister_memory(const std::string& name) {
  soft_errors_.unregister_region(name);
}

std::size_t SimProcess::registered_bytes() const { return soft_errors_.registered_bytes(); }

void SimProcess::schedule_bit_flip(SimTime t, std::uint64_t bit_index) {
  soft_errors_.schedule_flip(t, bit_index);
}

void SimProcess::raise_clock_to(SimTime t, bool busy) {
  if (t > clock_) advance_clock(t - clock_, busy);
}

void SimProcess::check_signals() {
  // Failure takes precedence over abort at the same activation point.
  if (clock_ >= fault_.time_of_failure) throw ProcessFailedSignal{};
  if (clock_ >= fault_.pending_abort) throw ProcessAbortSignal{};
}

void SimProcess::fail_now() {
  fault_.time_of_failure = std::min(fault_.time_of_failure, clock_);
  throw ProcessFailedSignal{};
}

void SimProcess::abort_now() {
  // Paper §IV-D: informational message, then simulator-internal broadcast of
  // the abort and its time.
  hooks_->abort_called(*this, clock_);
  throw ProcessAbortSignal{};
}

Err SimProcess::apply_error_handler(Comm& comm, Err e) {
  if (e == Err::kSuccess) return e;
  using resilience::ErrorAction;
  switch (resilience::ErrorHandlerPolicy::dispatch(comm.handler,
                                                   static_cast<bool>(comm.user_handler))) {
    case ErrorAction::kAbort:
      abort_now();  // does not return
    case ErrorAction::kInvokeUserThenReturn:
      comm.user_handler(*context_, comm, e);
      return e;
    case ErrorAction::kReturn:
      return e;
  }
  return e;
}

// ---------------------------------------------------------------------------
// Engine-side event handling
// ---------------------------------------------------------------------------

void SimProcess::on_event(Engine& engine, Event&& ev) {
  (void)engine;
  if (ev.kind == kEvStart) {
    if (terminated()) return;
    started_ = true;
    run_fiber();
    return;
  }
  if (terminated()) return;  // Late arrivals to finished/aborted processes.

  switch (ev.kind) {
    case kEvMsgArrival:
      handle_msg_arrival(static_cast<MsgPayload&>(*ev.payload), ev.time);
      break;
    case kEvCtsArrival:
      handle_cts(static_cast<CtsPayload&>(*ev.payload), ev.time);
      break;
    case kEvDataArrival:
      handle_data(static_cast<DataPayload&>(*ev.payload), ev.time);
      break;
    case kEvFailureActivation:
      handle_failure_activation(ev.time);
      break;
    case kEvFailureNotice:
      handle_failure_notice(static_cast<FailureNoticePayload&>(*ev.payload), ev.time);
      break;
    case kEvAbortNotice:
      handle_abort_notice(static_cast<AbortNoticePayload&>(*ev.payload), ev.time);
      break;
    case kEvErrorWakeup:
      handle_error_wakeup(static_cast<ErrorWakeupPayload&>(*ev.payload));
      break;
    case kEvRevokeNotice: {
      auto& p = static_cast<RevokeNoticePayload&>(*ev.payload);
      apply_revoke(p.comm_id, p.time);
      break;
    }
    default:
      throw std::logic_error("unknown event kind");
  }
}

void SimProcess::handle_msg_arrival(MsgPayload& p, SimTime t) {
  if (!try_match_posted(p.env, p.data, t)) {
    // No matching posted receive yet: unexpected queue (normal MPI behavior).
    note_unexpected(p.env);
    match_.push_unexpected(p.env, std::move(p.data), t);
  }
  maybe_run_fiber();
}

void SimProcess::handle_cts(CtsPayload& p, SimTime t) {
  for (Request* r = requests_.first(); r != nullptr; r = r->live_next) {
    if (r->kind == Request::Kind::kSend && r->stage == Request::Stage::kAwaitingCts &&
        r->rdv_id == p.rdv_id) {
      // Clear-to-send: the NIC injects the payload now. The sender's request
      // completes once injection finishes; the receiver gets the bulk data
      // after the in-flight time.
      const SimTime inject_done = t + fabric_->occupancy(r->bytes);
      auto data = std::make_unique<DataPayload>();
      data->rdv_id = r->rdv_id;
      data->bytes = r->bytes;
      data->data = std::move(r->send_data);
      engine_->schedule(t + fabric_->delivery_at(t, world_rank_, r->peer_world_rank, r->bytes),
                        r->peer_world_rank, kEvDataArrival, std::move(data));
      if (energy_ != nullptr) energy_->add_traffic(world_rank_, r->bytes);
      r->stage = Request::Stage::kDone;
      r->complete_time = inject_done;
      r->status.error = Err::kSuccess;
      note_request_done(*r);
      maybe_run_fiber();
      return;
    }
  }
  // Sender request vanished (errored out via timeout release) — drop the CTS.
}

void SimProcess::handle_data(DataPayload& p, SimTime t) {
  for (Request* r = requests_.first(); r != nullptr; r = r->live_next) {
    if (r->kind == Request::Kind::kRecv && r->stage == Request::Stage::kAwaitingData &&
        r->rdv_id == p.rdv_id) {
      if (r->recv_buffer != nullptr && !p.data.empty()) {
        std::memcpy(r->recv_buffer, p.data.data(), std::min(r->bytes, p.data.size()));
      }
      r->status.bytes = p.bytes;
      r->status.error = p.bytes > r->bytes ? Err::kTruncate : Err::kSuccess;
      r->stage = Request::Stage::kDone;
      r->complete_time = t + fabric_->receiver_overhead();
      note_request_done(*r);
      maybe_run_fiber();
      return;
    }
  }
}

void SimProcess::inject_failure_at(SimTime t) {
  const SimTime when = std::max(t, clock_);
  fault_.time_of_failure = std::min(fault_.time_of_failure, when);
  engine_->schedule(when, world_rank_, kEvFailureActivation, nullptr, EventPriority::kControl);
}

void SimProcess::handle_failure_activation(SimTime t) {
  // The scheduled time is the *earliest* failure time; the process actually
  // fails when the simulator has control with clock >= that time (§IV-B).
  if (fault_.time_of_failure == kSimTimeNever) fault_.time_of_failure = t;
  if (!started_) {
    // Failure before the process ever ran.
    terminate(ProcOutcome::kFailed, std::max(clock_, t));
    return;
  }
  // The process is blocked (a started, non-terminated process is always
  // parked in block_until between events). Force the unwind at
  // max(clock, scheduled time).
  fault_.forced_failure = std::max(clock_, t);
  run_fiber();
}

void SimProcess::handle_failure_notice(FailureNoticePayload& p, SimTime t) {
  if (notice_log_ != nullptr) {
    notice_log_->record(world_rank_, p.failed_rank, p.time_of_failure, t);
  }
  fault_.record_peer_failure(p.failed_rank, p.time_of_failure, p.detect_time);
  fail_requests_on_notice(p.failed_rank, p.time_of_failure, p.detect_time);
  // A probe on the failed rank can now return kProcFailed. Notices never
  // resume the fiber themselves (eager mode doesn't either); mark the flip so
  // the next wake site lets the probe re-scan.
  if (wait_kind_ == WaitKind::kProbe && wait_src_world_ == p.failed_rank) {
    wake_pending_ = true;
  }
}

void SimProcess::fail_requests_on_notice(Rank failed_rank, SimTime t_fail, SimTime t_detect) {
  // Release (and fail) blocked requests involving the failed process after a
  // simulated communication timeout (paper §IV-C).
  for (Request* r = requests_.first(); r != nullptr; r = r->live_next) {
    if (r->done() || r->error_wakeup_scheduled) continue;
    const bool unmatched_recv = r->kind == Request::Kind::kRecv &&
                                r->stage == Request::Stage::kPosted &&
                                r->peer_world_rank == failed_rank;
    const bool rendezvous_recv = r->kind == Request::Kind::kRecv &&
                                 r->stage == Request::Stage::kAwaitingData &&
                                 r->peer_world_rank == failed_rank;
    const bool waiting_send = r->kind == Request::Kind::kSend &&
                              r->stage == Request::Stage::kAwaitingCts &&
                              r->peer_world_rank == failed_rank;
    if (unmatched_recv || rendezvous_recv || waiting_send) {
      schedule_error_wakeup(*r, t_fail, failed_rank, t_detect);
    }
  }
}

void SimProcess::schedule_error_wakeup(Request& r, SimTime t_fail, Rank peer_world,
                                       SimTime t_detect) {
  auto p = std::make_unique<ErrorWakeupPayload>();
  p->request = RequestTable::handle(r);
  p->error = Err::kProcFailed;
  // §IV-C timeout release, floored at the detector's notice delivery time:
  // the error cannot surface before this process learned of the failure.
  // With the paper-instant detector t_detect == t_fail and the floor is a
  // no-op, preserving the paper's exact release times.
  p->error_time = std::max(
      std::max(r.post_time, t_fail) + fabric_->failure_timeout(world_rank_, peer_world),
      t_detect);
  r.error_wakeup_scheduled = true;
  // Read the time out before std::move(p): parameter construction order is
  // unspecified, and moving first would null p under this call.
  const SimTime when = p->error_time;
  engine_->schedule(when, world_rank_, kEvErrorWakeup, std::move(p),
                    EventPriority::kControl);
}

void SimProcess::handle_error_wakeup(ErrorWakeupPayload& p) {
  Request* r = requests_.find(p.request);
  if (r == nullptr || r->done()) return;  // Completed successfully in the meantime.
  MatchIndex::unpost(*r);
  r->stage = Request::Stage::kDone;
  r->complete_time = p.error_time;
  r->status.error = p.error;
  note_request_done(*r);
  maybe_run_fiber();
}

void SimProcess::handle_abort_notice(AbortNoticePayload& p, SimTime t) {
  (void)t;
  // Abort activates when the process's clock reaches/passes the abort time
  // (§IV-D). A process with a completion in flight finishes that operation
  // first; one blocked with nothing coming is released at engine stall.
  fault_.pending_abort = std::min(fault_.pending_abort, p.time_of_abort);
  if (started_ && !in_fiber_) run_fiber();  // Re-evaluate wait predicates.
}

bool SimProcess::on_stall(Engine& engine) {
  (void)engine;
  if (!started_ || terminated()) return false;

  // Pending abort with nothing left in flight: abort now at
  // max(clock, time of abort).
  if (fault_.pending_abort != kSimTimeNever) {
    fault_.forced_abort = std::max(clock_, fault_.pending_abort);
    run_fiber();
    return true;
  }

  // Scheduled failure whose activation event was consumed... cannot happen
  // (activation resumes us). What can strand us: unmatched MPI_ANY_SOURCE
  // receives (and probes) whose peers failed — released here through the
  // conservative-sync deadlock detection (paper §IV-C).
  bool progressed = false;
  for (Request* r = requests_.first(); r != nullptr; r = r->live_next) {
    if (r->done() || r->kind != Request::Kind::kRecv ||
        r->stage != Request::Stage::kPosted || r->peer_comm_rank != kAnySource) {
      continue;
    }
    // Earliest failed member of the request's communicator.
    const Comm* comm = nullptr;
    for (const auto& c : comms_) {
      if (c->id == r->comm_id) {
        comm = c.get();
        break;
      }
    }
    if (comm == nullptr) continue;
    Rank failed = -1;
    SimTime t_fail = kSimTimeNever;
    for (const auto& [peer, when] : fault_.failed_peers()) {
      if (comm->rank_of_world(peer) >= 0 && when < t_fail) {
        failed = peer;
        t_fail = when;
      }
    }
    if (failed < 0) continue;
    MatchIndex::unpost(*r);
    r->stage = Request::Stage::kDone;
    r->complete_time = std::max(
        std::max(r->post_time, t_fail) + fabric_->failure_timeout(world_rank_, failed),
        fault_.peer_detect_time(failed));
    r->status.error = Err::kProcFailed;
    progressed = true;
  }
  if (progressed) {
    run_fiber();
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Matching engine
// ---------------------------------------------------------------------------

void SimProcess::complete_recv_from_msg(Request& r, const Envelope& env,
                                        const util::PayloadBuf& data, SimTime arrival) {
  MatchIndex::unpost(r);
  if (r.recv_buffer != nullptr && !data.empty()) {
    std::memcpy(r.recv_buffer, data.data(), std::min(r.bytes, data.size()));
  }
  r.stage = Request::Stage::kDone;
  r.complete_time = std::max(r.post_time, arrival) + fabric_->receiver_overhead();
  r.status.source = env.src_comm_rank;
  r.status.tag = env.tag;
  r.status.bytes = env.bytes;
  r.status.error = env.bytes > r.bytes ? Err::kTruncate : Err::kSuccess;
  r.peer_world_rank = env.src_world_rank;
  note_request_done(r);
}

void SimProcess::start_rendezvous_recv(Request& r, const Envelope& env, SimTime arrival) {
  MatchIndex::unpost(r);
  // Match time: when this receiver processes the RTS. CTS flies back to the
  // sender; the bulk data will arrive as a kEvDataArrival.
  const SimTime match_time = std::max(r.post_time, arrival) + fabric_->receiver_overhead();
  auto cts = std::make_unique<CtsPayload>();
  cts->rdv_id = env.rdv_id;
  engine_->schedule(
      match_time + fabric_->delivery_at(match_time, world_rank_, env.src_world_rank, 0),
      env.src_world_rank, kEvCtsArrival, std::move(cts));
  r.stage = Request::Stage::kAwaitingData;
  r.rdv_id = env.rdv_id;
  r.peer_world_rank = env.src_world_rank;
  r.status.source = env.src_comm_rank;
  r.status.tag = env.tag;
}

bool SimProcess::try_match_posted(const Envelope& env, const util::PayloadBuf& data,
                                  SimTime arrival) {
  // MPI matching order: the earliest-posted matching receive wins.
  Request* best = match_.earliest_posted(env);
  if (best == nullptr) return false;
  if (env.rendezvous) {
    start_rendezvous_recv(*best, env, arrival);
  } else {
    complete_recv_from_msg(*best, env, data, arrival);
  }
  return true;
}

bool SimProcess::try_match_unexpected(Request& r) {
  // The earliest-arrived matching message (deterministic: arrival order).
  UnexpectedMsg* m = match_.earliest_unexpected(r.comm_id, r.peer_comm_rank, r.tag);
  if (m == nullptr) return false;
  if (m->env.rendezvous) {
    start_rendezvous_recv(r, m->env, m->arrival_time);
  } else {
    complete_recv_from_msg(r, m->env, m->data, m->arrival_time);
  }
  match_.consume(*m);
  return true;
}

void SimProcess::record_trace(const Request& r) {
  TraceRecord rec;
  rec.op = r.kind == Request::Kind::kSend ? TraceRecord::Op::kSend : TraceRecord::Op::kRecv;
  rec.rank = world_rank_;
  rec.start = r.post_time;
  rec.end = r.complete_time;
  rec.peer = r.kind == Request::Kind::kSend ? r.peer_world_rank
                                            : (r.peer_world_rank >= 0 ? r.peer_world_rank
                                                                      : kAnySource);
  rec.tag = r.kind == Request::Kind::kSend ? r.tag : r.status.tag;
  rec.bytes = r.kind == Request::Kind::kSend ? r.bytes : r.status.bytes;
  rec.error = r.status.error;
  trace_->record(rec);
}

void SimProcess::release_request(Request& r) {
  MatchIndex::unpost(r);
  requests_.release(r);
}

// ---------------------------------------------------------------------------
// Posting & waiting (application-fiber side)
// ---------------------------------------------------------------------------

RequestHandle SimProcess::post_send(Comm& comm, Rank dest, int tag, const void* data,
                                    std::size_t bytes, bool allow_revoked) {
  if (dest < 0 || dest >= comm.size()) throw std::invalid_argument("bad destination rank");
  if (tag == kAnyTag) throw std::invalid_argument("kAnyTag invalid for sends");

  Request* req = &requests_.create(Request::Kind::kSend);
  req->comm_id = comm.id;
  req->peer_comm_rank = dest;
  req->peer_world_rank = comm.world_of(dest);
  req->tag = tag;
  req->bytes = bytes;
  req->post_time = clock_;

  if (comm.revoked && !allow_revoked) {
    req->stage = Request::Stage::kDone;
    req->complete_time = clock_;
    req->status.error = Err::kRevoked;
    return RequestTable::handle(*req);
  }
  req->survives_revoke = allow_revoked;

  Envelope env;
  env.comm_id = comm.id;
  env.src_comm_rank = comm.my_rank;
  env.src_world_rank = world_rank_;
  env.tag = tag;
  env.bytes = bytes;

  const SimTime t0 = clock_;
  if (fabric_->protocol_for(bytes) == Protocol::kEager) {
    // Eager: payload is buffered into the network; the send request is
    // locally complete after NIC injection.
    advance_clock(fabric_->occupancy(bytes), /*busy=*/false);
    auto msg = std::make_unique<MsgPayload>();
    msg->env = env;
    if (data != nullptr && bytes > 0) msg->data.assign(data, bytes);
    engine_->schedule(t0 + fabric_->delivery_at(t0, world_rank_, req->peer_world_rank, bytes),
                      req->peer_world_rank, kEvMsgArrival, std::move(msg));
    if (energy_ != nullptr) energy_->add_traffic(world_rank_, bytes);
    req->stage = Request::Stage::kDone;
    req->complete_time = clock_;
    req->status.error = Err::kSuccess;
  } else {
    // Rendezvous: a zero-byte RTS goes out; the payload is captured so the
    // data can be injected when the CTS comes back (also for isend).
    env.rendezvous = true;
    env.rdv_id = (static_cast<std::uint64_t>(world_rank_) << 32) | next_rdv_++;
    req->rdv_id = env.rdv_id;
    if (data != nullptr && bytes > 0) req->send_data.assign(data, bytes);
    advance_clock(fabric_->occupancy(0), /*busy=*/false);
    auto rts = std::make_unique<MsgPayload>();
    rts->env = env;
    engine_->schedule(t0 + fabric_->delivery_at(t0, world_rank_, req->peer_world_rank, 0),
                      req->peer_world_rank, kEvMsgArrival, std::move(rts));
    req->stage = Request::Stage::kAwaitingCts;

    // Sending to a peer already known failed: the RTS will be dropped;
    // schedule the timeout release right away (§IV-C: "any message send
    // requests waited on after receiving the ... notification fail based on
    // this list").
    if (fault_.knows_failed(req->peer_world_rank)) {
      schedule_error_wakeup(*req, fault_.peer_failure_time(req->peer_world_rank),
                            req->peer_world_rank,
                            fault_.peer_detect_time(req->peer_world_rank));
    }
  }

  return RequestTable::handle(*req);
}

RequestHandle SimProcess::post_recv(Comm& comm, Rank src, int tag, void* buffer,
                                    std::size_t capacity, bool allow_revoked) {
  if (src != kAnySource && (src < 0 || src >= comm.size())) {
    throw std::invalid_argument("bad source rank");
  }

  Request* req = &requests_.create(Request::Kind::kRecv);
  req->comm_id = comm.id;
  req->peer_comm_rank = src;
  req->peer_world_rank = src == kAnySource ? -1 : comm.world_of(src);
  req->tag = tag;
  req->bytes = capacity;
  req->recv_buffer = buffer;
  req->post_time = clock_;

  req->survives_revoke = allow_revoked;
  if (comm.revoked && !allow_revoked) {
    req->stage = Request::Stage::kDone;
    req->complete_time = clock_;
    req->status.error = Err::kRevoked;
  } else if (!try_match_unexpected(*req)) {
    // Unmatched: if the explicit source is already known failed, the receive
    // can only ever time out (§IV-C).
    if (src != kAnySource && fault_.knows_failed(req->peer_world_rank)) {
      schedule_error_wakeup(*req, fault_.peer_failure_time(req->peer_world_rank),
                            req->peer_world_rank,
                            fault_.peer_detect_time(req->peer_world_rank));
    }
  } else if (req->stage == Request::Stage::kAwaitingData) {
    // Matched a rendezvous RTS from a sender that already failed (the
    // failure notice predates this post): the CTS goes to a dead process and
    // the data will never come -- release by timeout like any other wait on
    // a failed peer.
    if (fault_.knows_failed(req->peer_world_rank)) {
      schedule_error_wakeup(*req, fault_.peer_failure_time(req->peer_world_rank),
                            req->peer_world_rank,
                            fault_.peer_detect_time(req->peer_world_rank));
    }
  }

  // Still unmatched: make it findable by future arrivals.
  if (req->stage == Request::Stage::kPosted) match_.post(*req);
  return RequestTable::handle(*req);
}

Err SimProcess::wait_all(std::span<const RequestHandle> handles, MsgStatus* statuses) {
  // Record the wait-set once: event handlers tell a completion of this wait
  // from unrelated traffic by Request::waited and count the waited requests
  // down, waking the fiber when the last one completes (wakeup filter); each
  // wake only drops the entries that completed since. Waited requests stay
  // live while the fiber is blocked: only this fiber releases requests.
  wait_kind_ = WaitKind::kRequests;
  wait_set_.clear();
  if (wait_set_.capacity() < handles.size()) wait_set_.reserve(handles.size());
  for (const auto& h : handles) {
    Request* r = requests_.find(h);
    if (r != nullptr && !r->done() && !r->waited) {
      r->waited = true;
      wait_set_.push_back(r);
    }
  }
  wait_pending_ = wait_set_.size();
  block_until([this] {
    std::erase_if(wait_set_, [](const Request* r) { return r->done(); });
    // Re-sync the count: completions that resume the fiber directly (the
    // stall-time ANY_SOURCE release) never passed note_request_done.
    wait_pending_ = wait_set_.size();
    return wait_set_.empty();
  });
  clear_wait();

  // Raise the clock to the latest completion among the waited requests (the
  // time the whole wait set is satisfied), then report.
  SimTime latest = clock_;
  Err first_error = Err::kSuccess;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    Request* r = requests_.find(handles[i]);
    if (r == nullptr) {
      // Already released (double wait): report an empty success status.
      if (statuses != nullptr) statuses[i] = MsgStatus{};
      continue;
    }
    latest = std::max(latest, r->complete_time);
    if (statuses != nullptr) statuses[i] = r->status;
    if (first_error == Err::kSuccess && r->status.error != Err::kSuccess) {
      first_error = r->status.error;
    }
    if (trace_ != nullptr) record_trace(*r);
  }
  for (const auto& h : handles) {
    if (Request* r = requests_.find(h)) release_request(*r);
  }
  raise_clock_to(latest, /*busy=*/false);
  return first_error;
}

bool SimProcess::test(RequestHandle h, MsgStatus* status, Err* err) {
  advance_clock(0);  // Clock-update point: failure/abort activation (§IV-A).
  Request* r = requests_.find(h);
  if (r == nullptr) {
    if (err != nullptr) *err = Err::kInvalidArg;
    return true;
  }
  if (!r->done()) return false;
  if (trace_ != nullptr) record_trace(*r);
  raise_clock_to(r->complete_time, /*busy=*/false);
  if (status != nullptr) *status = r->status;
  if (err != nullptr) *err = r->status.error;
  release_request(*r);
  return true;
}

Err SimProcess::probe(Comm& comm, Rank src, int tag, MsgStatus* status) {
  const SimTime post_time = clock_;
  const UnexpectedMsg* found = nullptr;
  Rank failed_peer = -1;
  SimTime t_fail = kSimTimeNever;

  auto scan = [&]() -> bool {
    found = match_.earliest_unexpected(comm.id, src, tag);
    if (found != nullptr) return true;
    if (src != kAnySource && fault_.knows_failed(comm.world_of(src))) {
      failed_peer = comm.world_of(src);
      t_fail = fault_.peer_failure_time(failed_peer);
      return true;
    }
    return false;
  };

  register_probe_wait(comm.id, src, src == kAnySource ? -1 : comm.world_of(src), tag);
  block_until(scan);
  clear_wait();
  if (found != nullptr) {
    raise_clock_to(std::max(post_time, found->arrival_time) + fabric_->receiver_overhead(),
                   /*busy=*/false);
    if (status != nullptr) {
      status->source = found->env.src_comm_rank;
      status->tag = found->env.tag;
      status->bytes = found->env.bytes;
      status->error = Err::kSuccess;
    }
    return Err::kSuccess;
  }
  raise_clock_to(
      std::max(std::max(post_time, t_fail) + fabric_->failure_timeout(world_rank_, failed_peer),
               fault_.peer_detect_time(failed_peer)),
      /*busy=*/false);
  if (status != nullptr) status->error = Err::kProcFailed;
  return Err::kProcFailed;
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

Comm* SimProcess::new_comm(int id, std::vector<Rank> members, const Comm& inherit_from) {
  auto c = std::make_unique<Comm>();
  c->id = id;
  c->set_members(std::move(members));
  c->my_rank = c->rank_of_world(world_rank_);
  c->handler = inherit_from.handler;
  c->user_handler = inherit_from.user_handler;
  Comm* out = c.get();
  comms_.push_back(std::move(c));
  return out;
}

Comm* SimProcess::comm_dup(Comm& parent) {
  const int id = registry_->id_for(parent.id, parent.split_seq++, /*color=*/0);
  auto c = std::make_unique<Comm>();
  c->id = id;
  // A dup of the identity (world-shaped) communicator stays identity — O(1)
  // storage, which matters with tens of thousands of processes.
  if (parent.size() == world_size_ && parent.world_of(0) == 0 &&
      parent.world_of(parent.size() - 1) == parent.size() - 1) {
    c->set_identity_members(parent.size());
  } else {
    c->set_members(parent.members_snapshot());
  }
  c->my_rank = c->rank_of_world(world_rank_);
  c->handler = parent.handler;
  c->user_handler = parent.user_handler;
  Comm* out = c.get();
  comms_.push_back(std::move(c));
  return out;
}

Comm* SimProcess::comm_shrink(Comm& parent) {
  // Surviving membership from the simulator-global view (documented
  // shortcut); ordering preserved from the parent.
  const auto alive = hooks_->alive_world_ranks();
  std::vector<Rank> members;
  for (Rank r = 0; r < parent.size(); ++r) {
    const Rank m = parent.world_of(r);
    if (std::find(alive.begin(), alive.end(), m) != alive.end()) members.push_back(m);
  }
  const int id = registry_->id_for(parent.id, parent.split_seq++, /*color=*/-2);
  return new_comm(id, std::move(members), parent);
}

void SimProcess::comm_revoke(Comm& comm) {
  if (comm.revoked) return;
  comm.revoked = true;
  apply_revoke(comm.id, clock_);  // Fail own pending ops on this communicator too.
  hooks_->comm_revoked(*this, comm.id, clock_);
}

void SimProcess::apply_revoke(int comm_id, SimTime when) {
  for (auto& c : comms_) {
    if (c->id == comm_id) c->revoked = true;
  }
  // ULFM: pending operations on a revoked communicator complete with
  // kRevoked once the revoke notice reaches this process.
  bool any = false;
  for (Request* r = requests_.first(); r != nullptr; r = r->live_next) {
    if (r->done() || r->comm_id != comm_id || r->survives_revoke) continue;
    MatchIndex::unpost(*r);
    r->stage = Request::Stage::kDone;
    r->complete_time = std::max(r->post_time, when);
    r->status.error = Err::kRevoked;
    note_request_done(*r);
    any = true;
  }
  if (any) maybe_run_fiber();
}

void SimProcess::failure_ack(Comm& comm) {
  fault_.ack_failures(comm.id, [&comm](int world) { return comm.rank_of_world(world) >= 0; });
}

std::vector<Rank> SimProcess::failure_get_acked(Comm& comm) const {
  return fault_.acked(comm.id);
}

}  // namespace exasim::vmpi
