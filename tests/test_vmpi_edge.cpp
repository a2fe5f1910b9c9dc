// Edge cases of the simulated MPI layer: zero-byte messages, double
// wildcards, handle reuse, nested communicator construction, capacity-zero
// receives, and invalid handles.

#include <gtest/gtest.h>

#include <vector>

#include "sim_test_util.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using core::SimResult;
using test::run_app;
using test::tiny_config;
using vmpi::Context;
using vmpi::Err;
using vmpi::MsgStatus;

test::QuietLogs quiet;

TEST(Edge, ZeroByteMessageMatchesAndReportsZeroLength) {
  MsgStatus st;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_EQ(ctx.send(1, 3, nullptr, 0), Err::kSuccess);
    } else {
      EXPECT_EQ(ctx.recv(0, 3, nullptr, 0, &st), Err::kSuccess);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 3);
}

TEST(Edge, DoubleWildcardReceivesInArrivalOrder) {
  std::vector<int> tags;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 0;
      ctx.send(2, 11, &v, sizeof v);
    } else if (ctx.rank() == 1) {
      ctx.compute(5e3);  // Arrives second.
      int v = 1;
      ctx.send(2, 22, &v, sizeof v);
    } else {
      for (int i = 0; i < 2; ++i) {
        int v = -1;
        MsgStatus st;
        EXPECT_EQ(ctx.recv(vmpi::kAnySource, vmpi::kAnyTag, &v, sizeof v, &st), Err::kSuccess);
        tags.push_back(st.tag);
      }
    }
    ctx.finalize();
  };
  run_app(tiny_config(3), app);
  EXPECT_EQ(tags, (std::vector<int>{11, 22}));
}

TEST(Edge, DoubleWaitOnSameHandleIsBenign) {
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      int v = 9;
      auto h = ctx.isend(w, 1, 0, &v, sizeof v);
      EXPECT_EQ(ctx.wait(w, h), Err::kSuccess);
      // Second wait on a released handle: empty success, no crash.
      EXPECT_EQ(ctx.wait(w, h), Err::kSuccess);
    } else {
      int v = 0;
      ctx.recv(0, 0, &v, sizeof v);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
}

TEST(Edge, TestOnUnknownHandleReportsInvalidArg) {
  auto app = [&](Context& ctx) {
    vmpi::RequestHandle bogus{999999};
    Err e = Err::kSuccess;
    MsgStatus st;
    EXPECT_TRUE(ctx.test(bogus, &st, &e));
    EXPECT_EQ(e, Err::kInvalidArg);
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(1), app).outcome, SimResult::Outcome::kCompleted);
}

TEST(Edge, SplitOfSplitNestsCorrectly) {
  // 8 ranks -> parity split (4 each) -> half split (2 each): communication
  // within the innermost communicator stays isolated.
  std::vector<int> inner_sum(8, -1);
  auto app = [&](Context& ctx) {
    vmpi::Comm* level1 = ctx.comm_split(ctx.world(), ctx.rank() % 2, ctx.rank());
    ASSERT_NE(level1, nullptr);
    vmpi::Comm* level2 = ctx.comm_split(*level1, level1->my_rank / 2, level1->my_rank);
    ASSERT_NE(level2, nullptr);
    EXPECT_EQ(level2->size(), 2);
    std::int64_t mine = ctx.rank(), out = 0;
    EXPECT_EQ(ctx.allreduce(*level2, vmpi::ReduceOp::kSum, vmpi::Dtype::kI64, &mine, &out, 1),
              Err::kSuccess);
    inner_sum[ctx.rank()] = static_cast<int>(out);
    ctx.finalize();
  };
  SimResult r = run_app(tiny_config(8), app);
  EXPECT_EQ(r.outcome, SimResult::Outcome::kCompleted);
  // Parity groups: evens {0,2,4,6} -> pairs {0,2} and {4,6}; odds likewise.
  EXPECT_EQ(inner_sum[0], 2);
  EXPECT_EQ(inner_sum[2], 2);
  EXPECT_EQ(inner_sum[4], 10);
  EXPECT_EQ(inner_sum[6], 10);
  EXPECT_EQ(inner_sum[1], 4);
  EXPECT_EQ(inner_sum[3], 4);
  EXPECT_EQ(inner_sum[5], 12);
  EXPECT_EQ(inner_sum[7], 12);
}

TEST(Edge, DupOfSplitPreservesMembership) {
  auto app = [&](Context& ctx) {
    vmpi::Comm* odd_even = ctx.comm_split(ctx.world(), ctx.rank() % 2, ctx.rank());
    ASSERT_NE(odd_even, nullptr);
    vmpi::Comm* dup = ctx.comm_dup(*odd_even);
    ASSERT_NE(dup, nullptr);
    EXPECT_EQ(dup->size(), odd_even->size());
    EXPECT_EQ(dup->my_rank, odd_even->my_rank);
    for (int r = 0; r < dup->size(); ++r) {
      EXPECT_EQ(dup->world_of(r), odd_even->world_of(r));
    }
    EXPECT_NE(dup->id, odd_even->id);
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(6), app).outcome, SimResult::Outcome::kCompleted);
}

TEST(Edge, CapacityZeroReceiveOfNonEmptyMessageTruncates) {
  Err got = Err::kSuccess;
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 0) {
      std::uint64_t v = 5;
      ctx.send(1, 0, &v, sizeof v);
    } else {
      got = ctx.recv(0, 0, nullptr, 0);
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_EQ(got, Err::kTruncate);
}

TEST(Edge, RendezvousToSelfCompletes) {
  auto cfg = tiny_config(1);
  cfg.net.eager_threshold = 16;  // Force rendezvous.
  bool ok = false;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    std::vector<std::uint8_t> out(256), in(256);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(i);
    auto r = ctx.irecv(w, 0, 1, in.data(), in.size());
    auto s = ctx.isend(w, 0, 1, out.data(), out.size());
    EXPECT_EQ(ctx.waitall(w, {r, s}, nullptr), Err::kSuccess);
    ok = in == out;
    ctx.finalize();
  };
  EXPECT_EQ(run_app(cfg, app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_TRUE(ok);
}

TEST(Edge, CommAccessorsValidateMembership) {
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    EXPECT_EQ(w.rank_of_world(ctx.rank()), ctx.rank());
    EXPECT_EQ(w.rank_of_world(-1), -1);
    EXPECT_EQ(w.rank_of_world(ctx.size()), -1);
    EXPECT_EQ(w.world_of(0), 0);
    auto members = w.members_snapshot();
    EXPECT_EQ(static_cast<int>(members.size()), ctx.size());
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(4), app).outcome, SimResult::Outcome::kCompleted);
}

TEST(Edge, InvalidPostArgumentsThrow) {
  auto app = [&](Context& ctx) {
    int v = 0;
    EXPECT_THROW(ctx.send(ctx.world(), 99, 0, &v, sizeof v), std::invalid_argument);
    EXPECT_THROW(ctx.send(ctx.world(), 0, -5, &v, sizeof v), std::invalid_argument);
    EXPECT_THROW(ctx.recv(ctx.world(), -7, 0, &v, sizeof v), std::invalid_argument);
    EXPECT_THROW(ctx.bcast(ctx.world(), 99, &v, sizeof v), std::invalid_argument);
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
}

TEST(Edge, FinalizeWithOutstandingRequestsIsClean) {
  // An isend that nobody receives and an irecv that never matches: the
  // process may still finalize; pending state dies with the simulation.
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    int v = 1;
    (void)ctx.isend(w, 1 - ctx.rank(), 7, &v, sizeof v);
    int in = 0;
    (void)ctx.irecv(w, 1 - ctx.rank(), 8, &in, sizeof in);
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
}


// ---------------------------------------------------------------------------
// MPI match order: the earliest-posted receive wins a message, and an
// ANY_SOURCE receive takes the earliest matching arrival.
// ---------------------------------------------------------------------------

/// Rank 1 posts two receives that both match rank 0's next two messages —
/// one with an explicit source, one with ANY_SOURCE — in the given order,
/// then reports which value each receive got.
std::vector<int> explicit_vs_any_values(bool any_first) {
  std::vector<int> got(2, -1);
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    if (ctx.rank() == 0) {
      ctx.compute(1e5);  // 100 us: both receives are posted before anything arrives.
      for (int v : {1, 2}) ctx.send(1, 5, &v, sizeof v);
    } else {
      const vmpi::Rank first_src = any_first ? vmpi::kAnySource : 0;
      const vmpi::Rank second_src = any_first ? 0 : vmpi::kAnySource;
      auto a = ctx.irecv(w, first_src, 5, &got[0], sizeof(int));
      auto b = ctx.irecv(w, second_src, 5, &got[1], sizeof(int));
      EXPECT_EQ(ctx.waitall(w, {a, b}, nullptr), Err::kSuccess);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
  return got;
}

TEST(MatchOrder, EarliestPostedWinsAnySourceFirst) {
  EXPECT_EQ(explicit_vs_any_values(/*any_first=*/true), (std::vector<int>{1, 2}));
}

TEST(MatchOrder, EarliestPostedWinsExplicitFirst) {
  EXPECT_EQ(explicit_vs_any_values(/*any_first=*/false), (std::vector<int>{1, 2}));
}

TEST(MatchOrder, ReceiveCompletedByRevokeIsUnindexed) {
  // Rank 1's receive on a duplicate communicator is completed by rank 1's own
  // revoke, and is only waited on (released) at the end. The large message
  // rank 0 already has in flight on that communicator arrives in between: it
  // must land in the unexpected queue (probe sees it), not in the revoked
  // receive. Rank 0's later message on the world communicator still goes to
  // rank 1's next receive.
  Err revoked = Err::kSuccess, world_err = Err::kProcFailed, probe_err = Err::kProcFailed;
  int world_value = -1;
  MsgStatus probed;
  constexpr std::size_t kBig = 200'000;  // Eager, ~200 us on the wire.
  auto app = [&](Context& ctx) {
    ctx.set_error_handler(ctx.world(), vmpi::ErrorHandlerKind::kReturn);
    vmpi::Comm* dup = ctx.comm_dup(ctx.world());
    ASSERT_NE(dup, nullptr);
    if (ctx.rank() == 0) {
      std::vector<std::uint8_t> big(kBig, 7);
      auto h = ctx.isend(*dup, 1, 3, big.data(), big.size());
      (void)ctx.wait(*dup, h);
      int v = 42;
      ctx.send(1, 3, &v, sizeof v);
    } else {
      std::vector<std::uint8_t> sink(kBig);
      auto r = ctx.irecv(*dup, 0, 3, sink.data(), sink.size());
      ctx.comm_revoke(*dup);
      world_err = ctx.recv(0, 3, &world_value, sizeof world_value);
      probe_err = ctx.probe(*dup, 0, 3, &probed);
      revoked = ctx.wait(*dup, r);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(2), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(revoked, Err::kRevoked);
  EXPECT_EQ(world_err, Err::kSuccess);
  EXPECT_EQ(world_value, 42);
  EXPECT_EQ(probe_err, Err::kSuccess);
  EXPECT_EQ(probed.source, 0);
  EXPECT_EQ(probed.bytes, kBig);
}

TEST(MatchOrder, ReceiveCompletedByErrorWakeupIsUnindexed) {
  // Rank 2 posts an explicit receive from rank 1, then an ANY_SOURCE one.
  // Rank 1 sends once and fails; the failure times the explicit receive out
  // after 1 ms, long before the message crosses the 5 ms links. The message
  // then goes to the next matching receive, the ANY_SOURCE one, although the
  // timed-out receive is waited on (released) only afterwards.
  auto cfg = tiny_config(3);
  cfg.net.link_latency = sim_ms(5);
  Err first = Err::kSuccess, second = Err::kProcFailed;
  MsgStatus second_st;
  int first_value = -1, second_value = -1;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    ctx.set_error_handler(w, vmpi::ErrorHandlerKind::kReturn);
    if (ctx.rank() == 1) {
      int v = 11;
      ctx.send(2, 4, &v, sizeof v);
      ctx.fail_now();
    } else if (ctx.rank() == 2) {
      auto a = ctx.irecv(w, 1, 4, &first_value, sizeof(int));
      auto b = ctx.irecv(w, vmpi::kAnySource, 4, &second_value, sizeof(int));
      second = ctx.wait(w, b, &second_st);
      first = ctx.wait(w, a);
    }
    ctx.finalize();
  };
  run_app(cfg, app);
  EXPECT_EQ(first, Err::kProcFailed);
  EXPECT_EQ(first_value, -1);
  EXPECT_EQ(second, Err::kSuccess);
  EXPECT_EQ(second_value, 11);
  EXPECT_EQ(second_st.source, 1);
}

TEST(MatchOrder, AnySourceTakesEarliestArrivalAcrossSources) {
  // Ranks 3, 1, 2 send to rank 0 in that arrival order; rank 3's message has
  // a different tag. Rank 0 receives only after all three arrived.
  std::vector<int> sources;
  auto app = [&](Context& ctx) {
    const int delay_us[] = {0, 10, 20, 0};
    const int tag_of[] = {0, 5, 5, 9};
    if (ctx.rank() == 0) {
      ctx.compute(1e6);  // 1 ms: everything is unexpected by now.
      for (int tag : {5, vmpi::kAnyTag, 5}) {
        int v = -1;
        MsgStatus st;
        EXPECT_EQ(ctx.recv(vmpi::kAnySource, tag, &v, sizeof v, &st), Err::kSuccess);
        EXPECT_EQ(v, st.source);
        sources.push_back(st.source);
      }
    } else {
      ctx.compute(1e3 * delay_us[ctx.rank()]);
      int v = ctx.rank();
      ctx.send(0, tag_of[ctx.rank()], &v, sizeof v);
    }
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(4), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(sources, (std::vector<int>{1, 3, 2}));
}

TEST(Edge, StaleHandleStaysStaleAfterSlotsAreRecycled) {
  // After wait releases h, many newer requests come and go, reusing request
  // storage. Two receives are then left pending, so every storage slot ever
  // used (the process never had more than two live requests) holds a live
  // request. h must still behave as released: wait returns the empty
  // success, test reports kInvalidArg, and neither touches the pending
  // receives.
  bool pending_untouched = false;
  int late[2] = {-1, -1};
  Err stale_wait = Err::kProcFailed, stale_test = Err::kSuccess;
  MsgStatus stale_status;
  auto app = [&](Context& ctx) {
    auto& w = ctx.world();
    int v = 1, in = 0;
    auto h = ctx.irecv(w, 0, 1, &in, sizeof in);
    auto s = ctx.isend(w, 0, 1, &v, sizeof v);
    EXPECT_EQ(ctx.waitall(w, {h, s}, nullptr), Err::kSuccess);
    for (int i = 0; i < 80; ++i) {
      auto r = ctx.irecv(w, 0, 2, &in, sizeof in);
      auto q = ctx.isend(w, 0, 2, &i, sizeof i);
      EXPECT_EQ(ctx.waitall(w, {r, q}, nullptr), Err::kSuccess);
    }
    auto p0 = ctx.irecv(w, 0, 3, &late[0], sizeof late[0]);
    auto p1 = ctx.irecv(w, 0, 4, &late[1], sizeof late[1]);
    stale_status.bytes = 123;
    stale_wait = ctx.wait(w, h, &stale_status);
    MsgStatus st;
    EXPECT_TRUE(ctx.test(h, &st, &stale_test));
    Err e = Err::kSuccess;
    pending_untouched = !ctx.test(p0, &st, &e) && !ctx.test(p1, &st, &e);
    const int values[2] = {77, 88};
    ctx.send(0, 3, &values[0], sizeof values[0]);
    ctx.send(0, 4, &values[1], sizeof values[1]);
    EXPECT_EQ(ctx.waitall(w, {p0, p1}, nullptr), Err::kSuccess);
    ctx.finalize();
  };
  EXPECT_EQ(run_app(tiny_config(1), app).outcome, SimResult::Outcome::kCompleted);
  EXPECT_EQ(stale_wait, Err::kSuccess);
  EXPECT_EQ(stale_status.bytes, 0u);
  EXPECT_EQ(stale_status.source, vmpi::kAnySource);
  EXPECT_EQ(stale_test, Err::kInvalidArg);
  EXPECT_TRUE(pending_untouched);
  EXPECT_EQ(late[0], 77);
  EXPECT_EQ(late[1], 88);
}

}  // namespace
}  // namespace exasim
