// Point-to-point semantics of the simulated MPI layer: blocking and
// nonblocking transfers, matching (wildcards, tags, ordering), eager vs
// rendezvous protocols, virtual-clock behavior, probes, and truncation.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "metrics/perf.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"
#include "vmpi/process.hpp"

namespace exasim {
namespace {

using core::SimResult;
using test::run_app;
using test::tiny_config;
using vmpi::Context;
using vmpi::Err;
using vmpi::MsgStatus;

test::QuietLogs quiet;

TEST(P2P, BlockingSendRecvDeliversPayload) {
  double received = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      const double v = 42.5;
      EXPECT_EQ(ctx.send(1, 3, &v, sizeof v), Err::kSuccess);
    } else {
      double v = 0;
      MsgStatus st;
      EXPECT_EQ(ctx.recv(0, 3, &v, sizeof v, &st), Err::kSuccess);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, sizeof v);
      received = v;
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_DOUBLE_EQ(received, 42.5);
}

TEST(P2P, ReceiveCompletionAdvancesVirtualClock) {
  SimTime recv_end = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      std::uint64_t v = 7;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      std::uint64_t v = 0;
      ctx.recv(0, 0, &v, sizeof v);
      recv_end = ctx.now();
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  // One-way: overhead (500ns) + 2 hops (star) * 1us + 8B/1GBps (8ns), plus
  // receiver overhead 500ns.
  const SimTime expected = sim_ns(500) + 2 * sim_us(1) + sim_ns(8) + sim_ns(500);
  EXPECT_EQ(recv_end, expected);
}

TEST(P2P, SenderRacesAheadReceiverMatchesLateMessage) {
  // Receiver computes for 1 virtual second before posting the receive; the
  // message waits in the unexpected queue and matches at max(post, arrival).
  SimTime recv_end = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      std::uint64_t v = 1;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      ctx.compute(1e9);  // 1e9 units * 1 ns = 1 s.
      std::uint64_t v = 0;
      ctx.recv(0, 0, &v, sizeof v);
      recv_end = ctx.now();
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(recv_end, sim_sec(1) + sim_ns(500));  // post time + recv overhead
}

TEST(P2P, AnySourceAndAnyTagMatch) {
  int got_source = -1, got_tag = -1;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 2) {
      std::uint32_t v = 0;
      MsgStatus st;
      EXPECT_EQ(ctx.recv(vmpi::kAnySource, vmpi::kAnyTag, &v, sizeof v, &st), Err::kSuccess);
      got_source = st.source;
      got_tag = st.tag;
    } else if (ctx.rank() == 1) {
      std::uint32_t v = 9;
      ctx.send(2, 5, &v, sizeof v);
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(3), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(got_source, 1);
  EXPECT_EQ(got_tag, 5);
}

TEST(P2P, TagSelectivityHoldsMessagesApart) {
  std::vector<int> order;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      int a = 1, b = 2;
      ctx.send(1, 10, &a, sizeof a);
      ctx.send(1, 20, &b, sizeof b);
    } else {
      int v = 0;
      // Receive tag 20 first even though tag 10 arrived first.
      ctx.recv(0, 20, &v, sizeof v);
      order.push_back(v);
      ctx.recv(0, 10, &v, sizeof v);
      order.push_back(v);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(P2P, FifoOrderPerSenderAndTag) {
  std::vector<int> got;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 8; ++i) ctx.send(1, 0, &i, sizeof i);
    } else {
      for (int i = 0; i < 8; ++i) {
        int v = -1;
        ctx.recv(0, 0, &v, sizeof v);
        got.push_back(v);
      }
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(got, expected);
}

TEST(P2P, RendezvousTransfersLargePayloadIntact) {
  // 512 KiB > 256 KiB eager threshold -> rendezvous protocol.
  const std::size_t n = 512 * 1024 / sizeof(std::uint32_t);
  bool ok = false;
  auto app = [&](Context& ctx) {
    std::vector<std::uint32_t> buf(n);
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::uint32_t>(i * 2654435761u);
      EXPECT_EQ(ctx.send(1, 1, buf.data(), buf.size() * 4), Err::kSuccess);
    } else {
      EXPECT_EQ(ctx.recv(0, 1, buf.data(), buf.size() * 4), Err::kSuccess);
      ok = true;
      for (std::size_t i = 0; i < n; i += 1001) {
        if (buf[i] != static_cast<std::uint32_t>(i * 2654435761u)) ok = false;
      }
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_TRUE(ok);
}

TEST(P2P, RendezvousIsSlowerThanEagerForSamePayload) {
  // Time a 100 KiB transfer under a 64 KiB threshold (rendezvous) vs a
  // 256 KiB threshold (eager): the RTS/CTS round trip must show up.
  auto timed = [&](std::size_t threshold) {
    SimTime end = 0;
    auto cfg = tiny_config(2);
    cfg.net.eager_threshold = threshold;
    auto app = [&](Context& ctx) {
      std::vector<std::byte> buf(100 * 1024);
      if (ctx.rank() == 0) {
        ctx.send(1, 0, buf.data(), buf.size());
      } else {
        ctx.recv(0, 0, buf.data(), buf.size());
        end = ctx.now();
      }
      ctx.finalize();
    };
    run_app(cfg, app);
    return end;
  };
  const SimTime rendezvous = timed(64 * 1024);
  const SimTime eager = timed(256 * 1024);
  EXPECT_GT(rendezvous, eager);
  // The gap is at least one control-message round trip (2 x 2 hops x 1 us).
  EXPECT_GE(rendezvous - eager, 2 * 2 * sim_us(1));
}

TEST(P2P, IsendIrecvWaitall) {
  std::vector<int> got(4, -1);
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      int vals[4] = {10, 11, 12, 13};
      std::vector<vmpi::RequestHandle> hs;
      for (int i = 0; i < 4; ++i) hs.push_back(ctx.isend(w, 1, i, &vals[i], sizeof(int)));
      EXPECT_EQ(ctx.waitall(w, hs, nullptr), Err::kSuccess);
    } else {
      std::vector<vmpi::RequestHandle> hs;
      for (int i = 0; i < 4; ++i) hs.push_back(ctx.irecv(w, 0, i, &got[i], sizeof(int)));
      std::vector<MsgStatus> sts;
      EXPECT_EQ(ctx.waitall(w, hs, &sts), Err::kSuccess);
      ASSERT_EQ(sts.size(), 4u);
      EXPECT_EQ(sts[2].tag, 2);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13}));
}

TEST(P2P, TestPollsCompletion) {
  bool completed_eventually = false;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      // Delay the send by a virtual millisecond.
      ctx.elapse(sim_ms(1));
      int v = 5;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      int v = 0;
      auto h = ctx.irecv(w, 0, 0, &v, sizeof v);
      MsgStatus st;
      Err e = Err::kSuccess;
      // Not yet complete: the sender has not even sent.
      EXPECT_FALSE(ctx.test(h, &st, &e));
      // Blocking wait finishes it.
      EXPECT_EQ(ctx.wait(w, h), Err::kSuccess);
      completed_eventually = (v == 5);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_TRUE(completed_eventually);
}

TEST(P2P, SendrecvExchangesWithoutDeadlock) {
  // Classic head-to-head exchange with large (rendezvous) payloads: naive
  // blocking send/recv would deadlock; sendrecv must not.
  bool ok0 = false, ok1 = false;
  const std::size_t bytes = 512 * 1024;
  auto app = [&](Context& ctx) {
    std::vector<std::byte> out(bytes, std::byte{static_cast<unsigned char>(ctx.rank() + 1)});
    std::vector<std::byte> in(bytes);
    const int peer = 1 - ctx.rank();
    EXPECT_EQ(ctx.sendrecv(ctx.world(), peer, 0, out.data(), bytes, peer, 0, in.data(), bytes),
              Err::kSuccess);
    const bool ok = in[0] == std::byte{static_cast<unsigned char>(peer + 1)} &&
                    in[bytes - 1] == std::byte{static_cast<unsigned char>(peer + 1)};
    (ctx.rank() == 0 ? ok0 : ok1) = ok;
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

TEST(P2P, TruncationReportsError) {
  Err got = Err::kSuccess;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      std::uint64_t big[4] = {1, 2, 3, 4};
      ctx.send(1, 0, big, sizeof big);
    } else {
      std::uint64_t small = 0;
      got = ctx.recv(0, 0, &small, sizeof small);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(got, Err::kTruncate);
}

TEST(P2P, ProbeSeesMessageWithoutConsuming) {
  bool probe_ok = false, recv_ok = false;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 77;
      ctx.send(1, 4, &v, sizeof v);
    } else {
      MsgStatus st;
      EXPECT_EQ(ctx.probe(ctx.world(), 0, 4, &st), Err::kSuccess);
      probe_ok = st.bytes == sizeof(int) && st.source == 0 && st.tag == 4;
      int v = 0;
      EXPECT_EQ(ctx.recv(0, 4, &v, sizeof v), Err::kSuccess);
      recv_ok = v == 77;
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_TRUE(probe_ok);
  EXPECT_TRUE(recv_ok);
}

TEST(P2P, ModeledTransfersCarryTimingWithoutPayload) {
  SimTime modeled_end = 0, real_end = 0;
  const std::size_t bytes = 4096;
  auto run_variant = [&](bool modeled) {
    SimTime end = 0;
    auto app = [&](Context& ctx) {
      if (ctx.rank() == 0) {
        std::vector<std::byte> buf(bytes);
        if (modeled) {
          ctx.send_modeled(ctx.world(), 1, 0, bytes);
        } else {
          ctx.send(1, 0, buf.data(), bytes);
        }
      } else {
        std::vector<std::byte> buf(bytes);
        if (modeled) {
          ctx.recv_modeled(ctx.world(), 0, 0, bytes);
        } else {
          ctx.recv(0, 0, buf.data(), bytes);
        }
        end = ctx.now();
      }
      ctx.finalize();
    };
    run_app(tiny_config(2), app);
    return end;
  };
  modeled_end = run_variant(true);
  real_end = run_variant(false);
  EXPECT_EQ(modeled_end, real_end) << "modeled transfers must cost exactly like real ones";
}

TEST(P2P, SelfMessagingWorks) {
  int v_out = 123, v_in = 0;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    auto r = ctx.irecv(w, 0, 9, &v_in, sizeof v_in);
    auto s = ctx.isend(w, 0, 9, &v_out, sizeof v_out);
    EXPECT_EQ(ctx.waitall(w, {r, s}, nullptr), Err::kSuccess);
    ctx.finalize();
  };
  SimResult res = run_app(tiny_config(1), app);
  EXPECT_EQ(res.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(v_in, 123);
}

TEST(P2P, DeterministicAcrossRuns) {
  auto run_once = [&] {
    auto cfg = tiny_config(8);
    auto app = [](Context& ctx) {
      // All-to-one with staggered compute: exercises matching order.
      ctx.compute(static_cast<double>(ctx.rank()) * 100.0);
      if (ctx.rank() == 0) {
        for (int i = 1; i < ctx.size(); ++i) {
          std::uint64_t v = 0;
          ctx.recv(vmpi::kAnySource, 0, &v, sizeof v);
        }
      } else {
        std::uint64_t v = ctx.rank();
        ctx.send(0, 0, &v, sizeof v);
      }
      ctx.finalize();
    };
    return run_app(cfg, app).max_end_time;
  };
  const SimTime a = run_once();
  const SimTime b = run_once();
  EXPECT_EQ(a, b);
}

// ---- Wakeup filter (DESIGN.md §13) ----------------------------------------

/// Field-for-field equality of two runs' simulated results.
void expect_same_simulation(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.max_end_time, b.max_end_time);
  EXPECT_EQ(a.min_end_time, b.min_end_time);
  EXPECT_EQ(a.total_busy_time, b.total_busy_time);
  EXPECT_EQ(a.total_comm_time, b.total_comm_time);
  EXPECT_EQ(a.finished_count, b.finished_count);
  EXPECT_EQ(a.failed_count, b.failed_count);
}

/// Runs `app` on `cfg` with eager (true) or filtered (false) dispatch.
SimResult run_dispatch(bool eager, core::SimConfig cfg, const vmpi::AppMain& app) {
  const bool before = vmpi::eager_wakeup_enabled();
  vmpi::set_eager_wakeup(eager);
  SimResult r = run_app(std::move(cfg), app);
  vmpi::set_eager_wakeup(before);
  return r;
}

TEST(P2P, WakeupFilterMatchesEagerFieldForField) {
  // Fan-in: rank 0 receives from every peer in rank order, so most arrivals
  // reach it while it is blocked on a receive they cannot complete. The
  // filtered dispatcher must suppress those resumes (counted) without
  // changing any simulated quantity vs EXASIM_EAGER_WAKEUP-style dispatch.
  auto app = [](Context& ctx) {
    std::uint64_t v = static_cast<std::uint64_t>(ctx.rank());
    if (ctx.rank() == 0) {
      // Reverse source order: arrivals process in ascending source key
      // order, so while blocked on the highest source every lower-source
      // arrival is unexpected — suppressible under filtered dispatch.
      for (int src = ctx.size() - 1; src >= 1; --src) {
        std::uint64_t got = 0;
        EXPECT_EQ(ctx.recv(src, 0, &got, sizeof got), Err::kSuccess);
        EXPECT_EQ(got, static_cast<std::uint64_t>(src));
      }
    } else {
      ctx.send(0, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  const PerfSnapshot t0 = perf_snapshot();
  const SimResult filtered = run_dispatch(false, tiny_config(8), app);
  const PerfSnapshot t1 = perf_snapshot();
  const SimResult eager = run_dispatch(true, tiny_config(8), app);
  const PerfSnapshot t2 = perf_snapshot();
  const PerfSnapshot df = perf_delta(t0, t1);
  const PerfSnapshot de = perf_delta(t1, t2);
  EXPECT_GT(df.wakeups_suppressed, 0u);
  EXPECT_EQ(de.wakeups_suppressed, 0u);
  EXPECT_LT(df.fiber_resumes, de.fiber_resumes);  // Fewer switches, same sim.
  EXPECT_EQ(filtered.outcome, SimResult::Outcome::kCompleted);
  expect_same_simulation(filtered, eager);
}

TEST(P2P, AnySourceMatchForcesWakeupUnderFiltering) {
  // Rank 0 blocks on an ANY_SOURCE receive while an unrelated arrival
  // completes a request it is NOT waiting on (suppressible), then the real
  // sender's message matches the wildcard — which must force the wakeup, or
  // the run deadlocks.
  std::uint64_t side = 0, wanted = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      auto h = ctx.irecv(ctx.world(), 2, 9, &side, sizeof side);
      EXPECT_EQ(ctx.recv(vmpi::kAnySource, 0, &wanted, sizeof wanted), Err::kSuccess);
      EXPECT_EQ(ctx.wait(ctx.world(), h), Err::kSuccess);
    } else if (ctx.rank() == 1) {
      ctx.compute(1e6);  // Send after rank 2's side traffic arrived.
      std::uint64_t v = 41;
      ctx.send(0, 0, &v, sizeof v);
    } else {
      std::uint64_t v = 17;
      ctx.send(0, 9, &v, sizeof v);
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(3), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(wanted, 41u);
  EXPECT_EQ(side, 17u);
}

TEST(P2P, HaloWaitallResumesOncePerWaitSet) {
  // Rank 0 is a six-neighbour halo: each round it posts six receives and six
  // sends and waits on all twelve. Its neighbours send one message per round
  // at staggered times, so all six arrivals land while rank 0 is blocked,
  // at six distinct events. Each neighbour posts its receives of rank 0's
  // messages up front and waits on them all once at the end. Counting the
  // waited completions down resumes every one of these waitalls exactly
  // once, when its wait set is done; eager dispatch resumes on every
  // arrival. Both deliver the same simulation.
  constexpr int kNeighbours = 6;
  constexpr int kRounds = 8;
  auto run_mode = [&](bool eager, std::uint64_t* window_resumes) {
    auto app = [&](Context& ctx) {
      auto& w = ctx.world();
      const int me = ctx.rank();
      std::vector<vmpi::RequestHandle> hs;
      if (me == 0) {
        std::uint64_t in[kNeighbours] = {};
        PerfSnapshot s0;
        for (int round = 0; round < kRounds; ++round) {
          // From round 1 on, every neighbour is blocked in its final
          // waitall; the window sees rank 0's resumes and one per neighbour.
          if (round == 1) s0 = perf_snapshot();
          const auto out = static_cast<std::uint64_t>(round);
          hs.clear();
          for (int k = 1; k <= kNeighbours; ++k) {
            hs.push_back(ctx.irecv(w, k, round, &in[k - 1], sizeof in[0]));
          }
          for (int k = 1; k <= kNeighbours; ++k) {
            hs.push_back(ctx.isend(w, k, round, &out, sizeof out));
          }
          EXPECT_EQ(ctx.waitall(w, hs), Err::kSuccess);
          for (int k = 1; k <= kNeighbours; ++k) {
            EXPECT_EQ(in[k - 1], static_cast<std::uint64_t>(100 * k + round));
          }
        }
        *window_resumes = perf_delta(s0, perf_snapshot()).fiber_resumes;
      } else {
        std::vector<std::uint64_t> got(kRounds);
        for (int round = 0; round < kRounds; ++round) {
          hs.push_back(ctx.irecv(w, 0, round, &got[static_cast<std::size_t>(round)],
                                 sizeof got[0]));
        }
        ctx.compute(1000.0 * me);  // Stagger the neighbours by 1 us.
        for (int round = 0; round < kRounds; ++round) {
          ctx.compute(100e3);  // 100 us per round, far beyond one exchange.
          const auto v = static_cast<std::uint64_t>(100 * me + round);
          EXPECT_EQ(ctx.send(0, round, &v, sizeof v), Err::kSuccess);
        }
        EXPECT_EQ(ctx.waitall(w, hs), Err::kSuccess);
        for (int round = 0; round < kRounds; ++round) {
          EXPECT_EQ(got[static_cast<std::size_t>(round)], static_cast<std::uint64_t>(round));
        }
      }
      ctx.finalize();
    };
    return run_dispatch(eager, tiny_config(kNeighbours + 1), app);
  };
  std::uint64_t filtered_resumes = 0, eager_resumes = 0;
  const SimResult filtered = run_mode(false, &filtered_resumes);
  const SimResult eager = run_mode(true, &eager_resumes);
  EXPECT_EQ(filtered.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(filtered_resumes, static_cast<std::uint64_t>((kRounds - 1) + kNeighbours))
      << "one resume per waitall";
  EXPECT_GE(eager_resumes, static_cast<std::uint64_t>(kNeighbours * (kRounds - 1)));
  expect_same_simulation(filtered, eager);
}

TEST(P2P, StallReleasedAnySourceKeepsWaitallWakeable) {
  // Rank 0 waits on an ANY_SOURCE receive nobody sends to, next to a receive
  // from rank 2. Rank 1 fails, so at the engine stall the ANY_SOURCE
  // receive is released with kProcFailed and rank 0 is resumed directly,
  // bypassing the completion count; its wait stays blocked on rank 2. Rank
  // 2 is released from its own ANY_SOURCE receive at the same stall and
  // only then sends, and that later completion must still wake rank 0.
  auto cfg = tiny_config(3);
  cfg.failures = {FailureSpec{1, sim_ms(5)}};
  std::uint64_t from2 = 0;
  std::vector<Err> errs;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
    std::uint64_t v = 0;
    if (ctx.rank() == 0) {
      std::vector<vmpi::RequestHandle> hs;
      hs.push_back(ctx.irecv(w, vmpi::kAnySource, 1, &v, sizeof v));
      hs.push_back(ctx.irecv(w, 2, 2, &from2, sizeof from2));
      std::vector<MsgStatus> st;
      EXPECT_EQ(ctx.waitall(w, hs, &st), Err::kProcFailed);
      errs = {st[0].error, st[1].error};
    } else if (ctx.rank() == 1) {
      ctx.compute(1e9);  // Fails on its first clock update past 5 ms.
    } else {
      EXPECT_EQ(ctx.recv(vmpi::kAnySource, 3, &v, sizeof v), Err::kProcFailed);
      v = 23;
      EXPECT_EQ(ctx.send(0, 2, &v, sizeof v), Err::kSuccess);
    }
    ctx.finalize();
  };
  const SimResult filtered = run_dispatch(false, cfg, app);
  EXPECT_EQ(filtered.outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(from2, 23u);
  EXPECT_EQ(errs, (std::vector<Err>{Err::kProcFailed, Err::kSuccess}));
  from2 = 0;
  const SimResult eager = run_dispatch(true, cfg, app);
  EXPECT_EQ(from2, 23u);
  expect_same_simulation(filtered, eager);
}

// Deadlock: both ranks recv from each other with nothing sent.
TEST(P2P, GenuineDeadlockIsReported) {
  auto app = [](Context& ctx) {
    int v = 0;
    ctx.recv(1 - ctx.rank(), 0, &v, sizeof v);
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kDeadlock);
  EXPECT_EQ(r.deadlocked_ranks.size(), 2u);
}

// Parameterized sweep: payload sizes across the eager/rendezvous boundary
// all deliver intact.
class PayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSweep, DeliversIntact) {
  const std::size_t bytes = GetParam();
  bool ok = false;
  auto app = [&](Context& ctx) {
    std::vector<std::uint8_t> buf(bytes);
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < bytes; ++i) buf[i] = static_cast<std::uint8_t>(i * 7 + 3);
      ctx.send(1, 0, buf.data(), bytes);
    } else {
      ctx.recv(0, 0, buf.data(), bytes);
      ok = true;
      for (std::size_t i = 0; i < bytes; i += 97) {
        if (buf[i] != static_cast<std::uint8_t>(i * 7 + 3)) ok = false;
      }
    }
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(2), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{8}, std::size_t{1024},
                                           std::size_t{256 * 1024},       // boundary (eager)
                                           std::size_t{256 * 1024 + 1},   // boundary+1 (rdv)
                                           std::size_t{1024 * 1024}));

}  // namespace
}  // namespace exasim
