// Allocation regression guard for the simulated MPI hot path: once warmed
// up, point-to-point traffic and the collectives must not touch the general
// heap at all — requests are recycled in per-process slabs, match buckets
// persist, wait sets and collective scratch reuse their storage, and
// payloads come from the pool (DESIGN.md §9).
//
// Every ::operator new in this binary is counted, so the guard sees all heap
// traffic of the simulator, its containers and the pool's own slab carving.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim_test_util.hpp"
#include "util/pool.hpp"
#include "vmpi/context.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// The library's array and nothrow forms forward to these. The deletes stay
// out of line: inlined next to a call of the operator new above, their
// free() trips GCC's -Wmismatched-new-delete.
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace exasim {
namespace {

using core::SimResult;
using test::run_app;
using test::tiny_config;
using vmpi::Context;
using vmpi::Err;
using vmpi::RequestHandle;

test::QuietLogs quiet;

// Warm-up covers every structure that grows to a high-water mark and then
// recycles: request and message slabs, match buckets, pool free lists, and
// the engine queue's 64 near-horizon buckets, which fill one time slice at
// a time (about 100 rounds of this traffic; 256 leaves a wide margin).
constexpr int kWarmup = 256;
constexpr int kRounds = 64;

struct Window {
  std::uint64_t news = 0;
  util::PoolStats pool;
};

/// Runs `warmup + rounds` rounds of `round` on every rank of an 8-rank
/// machine; rank 0 snapshots the counters when the measured rounds start and
/// when they end.
template <class Round>
void measure(int warmup, int rounds, Round round, Window* start, Window* end,
             vmpi::CollectiveAlgo algo = vmpi::CollectiveAlgo::kLinear) {
  util::set_pool_enabled(true);
  auto cfg = tiny_config(8);
  cfg.sim_workers = 1;
  cfg.process.collective_algo = algo;
  auto app = [&](Context& ctx) {
    for (int i = 0; i < warmup + rounds; ++i) {
      if (ctx.rank() == 0 && i == warmup) *start = {g_news.load(), util::pool_stats()};
      round(ctx, i);
    }
    if (ctx.rank() == 0) *end = {g_news.load(), util::pool_stats()};
    ctx.finalize();
  };
  ASSERT_EQ(run_app(cfg, app).outcome, SimResult::Outcome::kCompleted);
}

TEST(Alloc, NeighbourExchangeAndBarrierAllocateNothingInSteadyState) {
  // Per rank: irecv from both ring neighbours, isend to both, waitall, then
  // a barrier. Handles and buffers are the application's, reused.
  std::vector<std::vector<RequestHandle>> handles(8);
  std::vector<std::vector<int>> inbox(8, std::vector<int>(2));
  bool all_ok = true;
  auto round = [&](Context& ctx, int i) {
    auto& w = ctx.world();
    const int me = ctx.rank(), n = ctx.size();
    const int left = (me + n - 1) % n, right = (me + 1) % n;
    auto& hs = handles[static_cast<std::size_t>(me)];
    auto& in = inbox[static_cast<std::size_t>(me)];
    hs.reserve(4);
    hs.clear();
    hs.push_back(ctx.irecv(w, left, 1, &in[0], sizeof(int)));
    hs.push_back(ctx.irecv(w, right, 1, &in[1], sizeof(int)));
    hs.push_back(ctx.isend(w, left, 1, &i, sizeof i));
    hs.push_back(ctx.isend(w, right, 1, &i, sizeof i));
    all_ok &= ctx.waitall(w, hs, nullptr) == Err::kSuccess;
    all_ok &= in[0] == i && in[1] == i;
    all_ok &= ctx.barrier(w) == Err::kSuccess;
  };
  Window start, end;
  measure(kWarmup, kRounds, round, &start, &end);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(end.news - start.news, 0u) << "heap allocations in steady-state rounds";
  EXPECT_EQ(end.pool.heap_allocs - start.pool.heap_allocs, 0u);
  EXPECT_EQ(end.pool.slab_allocs - start.pool.slab_allocs, 0u);
  EXPECT_GT(end.pool.allocs - start.pool.allocs, 0u);  // The window did carry traffic.
}

TEST(Alloc, BlockingSendRecvAndBcastAllocateNothingInSteadyState) {
  // Blocking calls build their one-element wait sets internally; the linear
  // broadcast posts one message per member. Pairs ping-pong, then rank 0
  // broadcasts, then everyone synchronizes.
  bool all_ok = true;
  auto round = [&](Context& ctx, int i) {
    const int me = ctx.rank(), peer = me ^ 1;
    int v = -1;
    if (me % 2 == 0) {
      all_ok &= ctx.send(peer, 2, &i, sizeof i) == Err::kSuccess;
      all_ok &= ctx.recv(peer, 3, &v, sizeof v) == Err::kSuccess && v == i;
    } else {
      all_ok &= ctx.recv(peer, 2, &v, sizeof v) == Err::kSuccess && v == i;
      all_ok &= ctx.send(peer, 3, &v, sizeof v) == Err::kSuccess;
    }
    int b = me == 0 ? i : -1;
    all_ok &= ctx.bcast(ctx.world(), 0, &b, sizeof b) == Err::kSuccess && b == i;
    all_ok &= ctx.barrier(ctx.world()) == Err::kSuccess;
  };
  Window start, end;
  measure(kWarmup, kRounds, round, &start, &end);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(end.news - start.news, 0u) << "heap allocations in steady-state rounds";
  EXPECT_EQ(end.pool.heap_allocs - start.pool.heap_allocs, 0u);
  EXPECT_EQ(end.pool.slab_allocs - start.pool.slab_allocs, 0u);
}

TEST(Alloc, ReduceAndAllreduceAllocateNothingInSteadyState) {
  // The reducing ranks receive every contribution into collective scratch
  // kept across calls, under both algorithms; a tree reduce whose non-root
  // ranks pass no output buffer accumulates in scratch too.
  for (const auto algo : {vmpi::CollectiveAlgo::kLinear, vmpi::CollectiveAlgo::kBinomialTree}) {
    bool all_ok = true;
    auto round = [&](Context& ctx, int i) {
      const double in[4] = {1.0 * i, 2.0, 3.0, static_cast<double>(ctx.rank())};
      double out[4] = {};
      all_ok &= ctx.allreduce(ctx.world(), vmpi::ReduceOp::kSum, vmpi::Dtype::kF64, in, out,
                              4) == Err::kSuccess;
      all_ok &= out[0] == 8.0 * i && out[1] == 16.0 && out[3] == 28.0;
      double* root_out = ctx.rank() == 0 ? out : nullptr;
      all_ok &= ctx.reduce(ctx.world(), 0, vmpi::ReduceOp::kMax, vmpi::Dtype::kF64, in,
                           root_out, 4) == Err::kSuccess;
      all_ok &= ctx.rank() != 0 || out[3] == 7.0;
    };
    Window start, end;
    measure(kWarmup, kRounds, round, &start, &end, algo);
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(end.news - start.news, 0u) << "heap allocations in steady-state reduce";
    EXPECT_EQ(end.pool.heap_allocs - start.pool.heap_allocs, 0u);
    EXPECT_EQ(end.pool.slab_allocs - start.pool.slab_allocs, 0u);
  }
}

TEST(Alloc, AlltoallAllocatesNothingInSteadyState) {
  // Every rank posts n-1 receives and n-1 sends and waits on all of them;
  // the handle list lives in collective scratch kept across calls.
  bool all_ok = true;
  auto round = [&](Context& ctx, int i) {
    const int me = ctx.rank();
    int in[8], out[8];
    for (int r = 0; r < 8; ++r) {
      in[r] = 100 * me + r + i;
      out[r] = -1;
    }
    all_ok &= ctx.alltoall(ctx.world(), in, sizeof(int), out) == Err::kSuccess;
    for (int r = 0; r < 8; ++r) all_ok &= out[r] == 100 * r + me + i;
  };
  Window start, end;
  measure(kWarmup, kRounds, round, &start, &end);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(end.news - start.news, 0u) << "heap allocations in steady-state alltoall";
  EXPECT_EQ(end.pool.heap_allocs - start.pool.heap_allocs, 0u);
  EXPECT_EQ(end.pool.slab_allocs - start.pool.slab_allocs, 0u);
}

}  // namespace
}  // namespace exasim
