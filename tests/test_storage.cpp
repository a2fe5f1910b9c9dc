// Storage hierarchy + tiered checkpointing (DESIGN.md §14): spec parsing
// round-trips and rejection matrix, per-tier cost math, capacity budgets,
// occupancy-window contention, staged-drain back-pressure, the
// partner-loss restart matrix (which tier survives which failure set), and
// the shared per-version restore plan (equivalence, memo rules, failed
// fetches, worker invariance).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "apps/heat3d.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/tiered.hpp"
#include "core/runner.hpp"
#include "iomodel/storage.hpp"
#include "sim_test_util.hpp"
#include "vmpi/context.hpp"

namespace exasim {
namespace {

using ckpt::CheckpointStore;
using ckpt::CkptMode;
using ckpt::CopyRecord;
using test::run_app;
using test::tiny_config;
using vmpi::Context;

test::QuietLogs quiet;

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

StorageSpec must_parse(const std::string& text) {
  auto spec = parse_storage_spec(text);
  EXPECT_TRUE(spec.has_value()) << text;
  return spec.value();
}

// ---------------------------------------------------------------------------
// Spec grammar.

TEST(StorageSpec, DefaultIsSingleFreePfsTier) {
  const StorageSpec spec;
  EXPECT_TRUE(spec.is_default());
  EXPECT_EQ(spec.tiers.size(), 1u);
  EXPECT_EQ(spec.tiers.front().kind, StorageTierKind::kPfs);
  EXPECT_EQ(to_string(spec), "pfs");
}

TEST(StorageSpec, PresetNamesParse) {
  EXPECT_TRUE(must_parse("pfs").is_default());
  const StorageSpec hpc = must_parse("hpc");
  EXPECT_EQ(hpc.tiers.size(), 3u);
  EXPECT_EQ(to_string(hpc), "hpc");  // Preset names survive round-trips.
  EXPECT_EQ(must_parse(to_string(hpc)), hpc);
}

TEST(StorageSpec, RegisteredPresetsAllRoundTrip) {
  ASSERT_GE(list_storage().size(), 2u);
  for (const auto& preset : list_storage()) {
    const StorageSpec spec = must_parse(preset.spec);
    EXPECT_EQ(must_parse(preset.name), spec) << preset.name;
    EXPECT_EQ(must_parse(to_string(spec)), spec) << preset.name;
  }
}

TEST(StorageSpec, TierListRoundTripsCanonically) {
  const std::string text = "mem:cbw=5e10,lat=1us,cap=4e9;bb:bw=2e11,cbw=1e10;pfs:lat=1ms";
  const StorageSpec spec = must_parse(text);
  ASSERT_EQ(spec.tiers.size(), 3u);
  EXPECT_EQ(spec.tiers[0].kind, StorageTierKind::kMemory);
  EXPECT_EQ(spec.tiers[0].io.per_client_bandwidth_bytes_per_sec, 5e10);
  EXPECT_EQ(spec.tiers[0].io.metadata_latency, sim_us(1));
  EXPECT_EQ(spec.tiers[0].capacity_bytes, 4e9);
  EXPECT_EQ(spec.tiers[1].io.aggregate_bandwidth_bytes_per_sec, 2e11);
  EXPECT_EQ(spec.tiers[2].io.metadata_latency, sim_ms(1));
  EXPECT_EQ(must_parse(to_string(spec)), spec);
}

TEST(StorageSpec, PlusSeparatorAndContendFlag) {
  const StorageSpec spec = must_parse("bb:lat=10us,contend=1+pfs:bw=1e11");
  ASSERT_EQ(spec.tiers.size(), 2u);
  EXPECT_TRUE(spec.tiers[0].contended);
  EXPECT_FALSE(spec.tiers[1].contended);
  EXPECT_EQ(spec, must_parse("bb:lat=10us,contend=1;pfs:bw=1e11"));
  EXPECT_EQ(must_parse(to_string(spec)), spec);
}

TEST(StorageSpec, RejectionMatrix) {
  const char* bad[] = {
      "",                        // No tiers at all.
      "mem",                     // Missing the mandatory pfs tier.
      "mem;bb",                  // Still no pfs.
      "pfs;mem",                 // Misordered: mem must precede pfs.
      "pfs;pfs",                 // Duplicate tier.
      "mem;mem;pfs",             // Duplicate tier.
      "ssd:bw=1e9;pfs",          // Unknown tier name.
      "mem:;pfs",                // Empty option list after ':'.
      "pfs:zzz=1",               // Unknown key.
      "pfs:bw",                  // Key without value.
      "pfs:bw=",                 // Empty value.
      "pfs:bw=abc",              // Non-numeric.
      "pfs:bw=1e9x",             // Trailing garbage.
      "pfs:bw=1e999",            // Overflow.
      "pfs:bw=-1",               // Negative bandwidth.
      "pfs:cap=-5",              // Negative capacity.
      "pfs:lat=5parsecs",        // Bad duration suffix.
      "pfs:lat=-1ms",            // Negative duration.
      "pfs:contend=2",           // Bool must be 0|1.
      "pfs:contend=yes",         // Bool must be 0|1.
  };
  for (const char* text : bad) {
    EXPECT_FALSE(parse_storage_spec(text).has_value()) << "\"" << text << "\"";
  }
}

TEST(StorageSpec, ResolveThrowsOnBadConfiguredAndFallsBackOnBadEnv) {
  EXPECT_THROW(resolve_storage_spec("nonsense"), std::invalid_argument);
  ::setenv(kStorageEnvVar, "hpc", 1);
  EXPECT_EQ(resolve_storage_spec("").tiers.size(), 3u);
  EXPECT_TRUE(resolve_storage_spec("pfs").is_default());  // Flag beats env.
  ::setenv(kStorageEnvVar, "garbage", 1);
  EXPECT_TRUE(resolve_storage_spec("").is_default());  // Bad env: silent default.
  ::unsetenv(kStorageEnvVar);
  EXPECT_TRUE(resolve_storage_spec("").is_default());
}

TEST(CkptModeSpec, ParseRoundTripAndResolve) {
  for (const std::string& name : ckpt::list_ckpt_modes()) {
    auto mode = ckpt::parse_ckpt_mode(name);
    ASSERT_TRUE(mode.has_value()) << name;
    EXPECT_EQ(ckpt::to_string(*mode), name);
  }
  EXPECT_FALSE(ckpt::parse_ckpt_mode("scr").has_value());
  EXPECT_THROW(ckpt::resolve_ckpt_mode("scr"), std::invalid_argument);
  ::setenv(ckpt::kCkptModeEnvVar, "staged", 1);
  EXPECT_EQ(ckpt::resolve_ckpt_mode(""), CkptMode::kStaged);
  EXPECT_EQ(ckpt::resolve_ckpt_mode("pfs"), CkptMode::kPfs);  // Flag beats env.
  ::unsetenv(ckpt::kCkptModeEnvVar);
  EXPECT_EQ(ckpt::resolve_ckpt_mode(""), CkptMode::kPfs);
}

// ---------------------------------------------------------------------------
// Hierarchy cost math, capacity, occupancy windows.

TEST(StorageHierarchy, UnpricedTiersAreFreeAndPfsModelMatchesFlatMath) {
  const StorageHierarchy h(must_parse("pfs:bw=8e6,cbw=2e6,lat=1ms"));
  EXPECT_TRUE(h.has(StorageTierKind::kPfs));
  EXPECT_FALSE(h.has(StorageTierKind::kMemory));
  EXPECT_TRUE(h.model(StorageTierKind::kMemory).is_free());
  EXPECT_FALSE(h.is_free());
  // 1 MB at min(2 MB/s, 8/1 MB/s) = 2 MB/s -> 500 ms, plus 1 ms metadata.
  EXPECT_EQ(h.pfs_model().write_time(1'000'000, 1), sim_ms(501));
  // 8 clients: min(2 MB/s, 1 MB/s) = 1 MB/s -> 1 s + 1 ms.
  EXPECT_EQ(h.pfs_model().write_time(1'000'000, 8), sim_sec(1) + sim_ms(1));
}

TEST(StorageHierarchy, CapacityBudgets) {
  const StorageHierarchy h(must_parse("mem:cap=1000;bb:cap=1000;pfs"));
  // Node memory: `replicas` images per rank must fit the per-node budget.
  EXPECT_TRUE(h.fits(StorageTierKind::kMemory, 500, /*world_ranks=*/64, /*replicas=*/2));
  EXPECT_FALSE(h.fits(StorageTierKind::kMemory, 501, 64, 2));
  // Shared tiers divide capacity over the world size.
  EXPECT_TRUE(h.fits(StorageTierKind::kBurstBuffer, 100, 10));
  EXPECT_FALSE(h.fits(StorageTierKind::kBurstBuffer, 101, 10));
  // Unlimited (cap 0) always fits.
  EXPECT_TRUE(h.fits(StorageTierKind::kPfs, 1u << 30, 1 << 20));
}

TEST(StorageHierarchy, OccupancyWindowQueuesLikeLinkContention) {
  const StorageHierarchy h(must_parse("bb:cbw=1e6,contend=1;pfs:cbw=1e6"));
  const auto bb = StorageTierKind::kBurstBuffer;
  EXPECT_TRUE(h.any_contended());
  EXPECT_EQ(h.occupy(bb, 0, sim_ms(10)), 0);          // Idle tier: no wait.
  EXPECT_EQ(h.occupy(bb, sim_ms(4), sim_ms(10)), sim_ms(6));   // Busy until 10.
  EXPECT_EQ(h.occupy(bb, sim_ms(30), sim_ms(1)), 0);  // After the window.
  // Uncontended and unpriced tiers never wait.
  EXPECT_EQ(h.occupy(StorageTierKind::kPfs, 0, sim_ms(10)), 0);
  EXPECT_EQ(h.occupy(StorageTierKind::kPfs, sim_ms(1), sim_ms(10)), 0);
  EXPECT_EQ(h.occupy(StorageTierKind::kMemory, 0, sim_ms(10)), 0);
}

// ---------------------------------------------------------------------------
// CheckpointStore copy records and the failure matrix.

TEST(CheckpointCopies, RecordSortsByLevelAndRequiresBegin) {
  CheckpointStore store(1);
  EXPECT_THROW(store.record_copy(1, 0, CopyRecord{}), std::logic_error);
  store.begin(1, 0);
  store.append(1, 0, bytes_of("payload"));
  store.finalize(1, 0);
  store.record_copy(1, 0, CopyRecord{.level = 2, .holder = -1});
  store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 0});
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0].level, 0);
  EXPECT_EQ(copies[1].level, 2);
  EXPECT_EQ(store.file_bytes(1, 0), 7u);
  EXPECT_EQ(store.file_bytes(1, 3), 0u);  // Unknown rank: no file.
}

TEST(CheckpointCopies, RejectsHolderOutsideTheWorld) {
  CheckpointStore store(2);
  store.begin(1, 0);
  EXPECT_THROW(store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 2}),
               std::invalid_argument);
  EXPECT_NO_THROW(store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 1}));
}

TEST(CheckpointCopies, LegacyFilesWithoutCopiesAreIndestructible) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.finalize(1, 0);
  EXPECT_EQ(store.apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2)), 0);
  EXPECT_TRUE(store.set_complete(1));
}

TEST(CheckpointCopies, FailureMatrixVictimPartnerAndBoth) {
  // Rank 0's file exists in its own memory and in partner rank 1's memory.
  auto make_store = [] {
    auto store = std::make_unique<CheckpointStore>(2);
    for (int r = 0; r < 2; ++r) {
      store->begin(1, r);
      store->append(1, r, bytes_of("img"));
      store->finalize(1, r);
      store->record_copy(1, r, CopyRecord{.level = 0, .holder = r});
      store->record_copy(1, r, CopyRecord{.level = 0, .holder = 1 - r});
    }
    return store;
  };
  {
    // Victim dies: its local copy is lost, the partner-held replica survives.
    auto store = make_store();
    EXPECT_EQ(store->apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2)), 2);
    EXPECT_TRUE(store->set_complete(1));
    const auto copies = store->copies(1, 0);
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_EQ(copies[0].holder, 1);
  }
  {
    // Victim AND partner die: every memory copy is gone, the set with it.
    auto store = make_store();
    EXPECT_EQ(store->apply_failures(
                  {FailureSpec{0, sim_sec(1)}, FailureSpec{1, sim_sec(1)}}, sim_sec(2)),
              4);
    EXPECT_FALSE(store->set_complete(1));
    EXPECT_FALSE(store->latest_complete().has_value());
    EXPECT_FALSE(store->file_exists(1, 0));
  }
  {
    // Both die, but a drained PFS copy landed before the run ended.
    auto store = make_store();
    for (int r = 0; r < 2; ++r) {
      store->record_copy(1, r, CopyRecord{.level = 2, .holder = -1,
                                          .ready_time = sim_ms(500),
                                          .depends_on = r, .depends_until = sim_ms(500)});
    }
    EXPECT_EQ(store->apply_failures(
                  {FailureSpec{0, sim_sec(1)}, FailureSpec{1, sim_sec(1)}}, sim_sec(2)),
              4);
    EXPECT_TRUE(store->set_complete(1));
    EXPECT_EQ(store->copies(1, 0).front().level, 2);
  }
}

TEST(CheckpointCopies, InFlightDrainsDieWithTheRunOrTheSourceRank) {
  CheckpointStore store(1);
  store.begin(1, 0);
  store.finalize(1, 0);
  store.record_copy(1, 0, CopyRecord{.level = 0, .holder = 0});
  // PFS drain still in flight when the run ends at 1 s: not durable yet.
  store.record_copy(1, 0, CopyRecord{.level = 2, .holder = -1, .ready_time = sim_sec(5),
                                     .depends_on = 0, .depends_until = sim_sec(5)});
  EXPECT_EQ(store.apply_failures({}, sim_sec(1)), 1);
  ASSERT_EQ(store.copies(1, 0).size(), 1u);
  EXPECT_EQ(store.copies(1, 0).front().level, 0);

  // Source rank dies before the bb hand-off: the drain sourced from its
  // memory image, so the copy is lost even though ready_time has passed.
  store.record_copy(1, 0, CopyRecord{.level = 1, .holder = -1, .ready_time = sim_ms(800),
                                     .depends_on = 0, .depends_until = sim_ms(800)});
  EXPECT_EQ(store.apply_failures({FailureSpec{0, sim_ms(400)}}, sim_sec(1)), 2);
  EXPECT_FALSE(store.file_exists(1, 0));

  // Source rank dies *after* the hand-off: the shared-tier copy survives.
  CheckpointStore late(1);
  late.begin(1, 0);
  late.finalize(1, 0);
  late.record_copy(1, 0, CopyRecord{.level = 1, .holder = -1, .ready_time = sim_ms(200),
                                    .depends_on = 0, .depends_until = sim_ms(200)});
  EXPECT_EQ(late.apply_failures({FailureSpec{0, sim_ms(400)}}, sim_sec(1)), 0);
  EXPECT_TRUE(late.set_complete(1));
}

// ---------------------------------------------------------------------------
// TieredWriter in simulation.

TEST(TieredWriter, PartnerModeRecordsBothMemoryCopies) {
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem:cbw=1e6;pfs:lat=1ms"));
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPartner);
    std::vector<std::byte> payload(1000, std::byte{0x5a});
    ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_TRUE(store.set_complete(1));
  for (int r = 0; r < 2; ++r) {
    const auto copies = store.copies(1, r);
    ASSERT_EQ(copies.size(), 2u) << "rank " << r;
    EXPECT_EQ(copies[0].level, 0);
    EXPECT_EQ(copies[1].level, 0);
    EXPECT_TRUE((copies[0].holder == r && copies[1].holder == 1 - r) ||
                (copies[0].holder == 1 - r && copies[1].holder == r));
  }
}

TEST(TieredWriter, FallsBackToPfsWhenAloneOrOverBudget) {
  {
    // World of one: no partner exists, degrade to the flat PFS path.
    CheckpointStore store(1);
    const StorageHierarchy storage(must_parse("mem;pfs"));
    auto app = [&](Context& ctx) {
      ckpt::TieredWriter writer(storage, CkptMode::kPartner);
      writer.write(ctx, store, 1, bytes_of("solo"));
      ctx.finalize();
    };
    run_app(tiny_config(1), app);
    ASSERT_EQ(store.copies(1, 0).size(), 1u);
    EXPECT_EQ(store.copies(1, 0).front().level, 2);
  }
  {
    // Two images (own + hosted replica) must fit the node-memory budget.
    CheckpointStore store(2);
    const StorageHierarchy storage(must_parse("mem:cap=1000;pfs"));
    auto app = [&](Context& ctx) {
      ckpt::TieredWriter writer(storage, CkptMode::kPartner);
      std::vector<std::byte> payload(600);  // 2 x 600 > 1000.
      writer.write(ctx, store, 1, payload);
      ctx.finalize();
    };
    run_app(tiny_config(2), app);
    EXPECT_EQ(store.copies(1, 0).front().level, 2);
  }
}

TEST(TieredWriter, StagedDrainBlocksTheNextCheckpointUntilHandOff) {
  // 1000-byte image, PFS at 1 KB/s (2 KB/s aggregate over 2 clients): the
  // mem -> pfs drain takes 1 s of background sim-time. Without a burst
  // buffer the staging buffer is held the whole way, so an immediate second
  // checkpoint must wait out the remaining drain.
  const StorageHierarchy storage(must_parse("mem:cbw=1e9;pfs:bw=2e3,cbw=1e3"));
  auto elapsed_between_writes = [&](CkptMode mode) {
    CheckpointStore store(2);
    SimTime delta = 0;
    auto app = [&](Context& ctx) {
      ckpt::TieredWriter writer(storage, mode);
      std::vector<std::byte> payload(1000, std::byte{1});
      ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
      const SimTime t0 = ctx.now();
      ASSERT_EQ(writer.write(ctx, store, 2, payload), vmpi::Err::kSuccess);
      if (ctx.rank() == 0) delta = ctx.now() - t0;
      ctx.finalize();
    };
    run_app(tiny_config(2), app);
    return delta;
  };
  const SimTime staged = elapsed_between_writes(CkptMode::kStaged);
  const SimTime partner = elapsed_between_writes(CkptMode::kPartner);
  EXPECT_GE(staged, sim_ms(900));   // Blocked on the in-flight 1 s drain.
  EXPECT_LT(partner, sim_ms(100));  // No drain, no back-pressure.
}

TEST(TieredWriter, StagedWithBurstBufferReleasesAfterBbLeg) {
  // A fast burst buffer takes the hand-off: drain_ready is the bb landing
  // (1000 B at 1 MB/s = 1 ms), not the slow PFS leg behind it.
  const StorageHierarchy storage(
      must_parse("mem:cbw=1e9;bb:bw=2e6,cbw=1e6;pfs:bw=2e3,cbw=1e3"));
  CheckpointStore store(2);
  SimTime delta = 0;
  auto app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kStaged);
    std::vector<std::byte> payload(1000, std::byte{1});
    ASSERT_EQ(writer.write(ctx, store, 1, payload), vmpi::Err::kSuccess);
    const SimTime t0 = ctx.now();
    ASSERT_EQ(writer.write(ctx, store, 2, payload), vmpi::Err::kSuccess);
    if (ctx.rank() == 0) delta = ctx.now() - t0;
    ctx.finalize();
  };
  run_app(tiny_config(2), app);
  EXPECT_LT(delta, sim_ms(100));  // The 1 s PFS leg drains off the bb copy.
  // Each rank recorded mem (x2), bb, and pfs copies.
  const auto copies = store.copies(1, 0);
  ASSERT_EQ(copies.size(), 4u);
  EXPECT_EQ(copies[2].level, 1);
  EXPECT_EQ(copies[3].level, 2);
  EXPECT_GT(copies[3].ready_time, copies[2].ready_time);
}

// ---------------------------------------------------------------------------
// Tier-aware restore.

TEST(TieredRestore, FetchesFromSurvivingPartnerMemory) {
  // Rank 0 lost its local copy (it died last launch); its replica lives in
  // rank 1's memory. Restore must fetch it over the network and report the
  // memory tier.
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem:cbw=1e6;pfs:lat=1ms"));
  auto seed_app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPartner);
    std::vector<std::byte> payload(100, std::byte{static_cast<unsigned char>(ctx.rank())});
    writer.write(ctx, store, 1, payload);
    ctx.finalize();
  };
  run_app(tiny_config(2), seed_app);
  EXPECT_EQ(store.apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2)), 2);

  // Per-rank slots: the ranks may run on different engine workers.
  int tier[2] = {-1, -1};
  std::uint64_t version[2] = {0, 0};
  bool ok[2] = {false, false};
  auto restore_app = [&](Context& ctx) {
    const int r = ctx.rank();
    auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage, &version[r], &tier[r]);
    ok[r] = data.has_value() && data->front() == std::byte{static_cast<unsigned char>(r)};
    ctx.finalize();
  };
  run_app(tiny_config(2), restore_app);
  EXPECT_TRUE(ok[0] && ok[1]);
  EXPECT_EQ(version[0], 1u);
  EXPECT_EQ(version[1], 1u);
  EXPECT_EQ(tier[0], 0);  // Fetched the partner-held memory replica.
  EXPECT_EQ(tier[1], 0);  // Own memory copy survived.
}

TEST(TieredRestore, FallsToDeeperTierWhenMemoryCopiesDie) {
  // Staged checkpoints drained to bb + pfs; then both ranks die, wiping all
  // memory copies. Restore must come from the burst buffer (level 1).
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem:cbw=1e9;bb:bw=2e6,cbw=1e6;pfs:lat=1ms"));
  auto seed_app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kStaged);
    std::vector<std::byte> payload(100, std::byte{7});
    writer.write(ctx, store, 1, payload);
    // Let the drains land inside the run's recorded end time.
    ctx.elapse(sim_sec(1));
    ctx.finalize();
  };
  run_app(tiny_config(2), seed_app);
  EXPECT_GT(store.apply_failures(
                {FailureSpec{0, sim_sec(2)}, FailureSpec{1, sim_sec(2)}}, sim_sec(3)),
            0);
  int tier = -1;
  auto restore_app = [&](Context& ctx) {
    int t = -1;
    auto data = ckpt::read_latest_checkpoint_tiered(ctx, store, storage, nullptr, &t);
    EXPECT_TRUE(data.has_value());
    if (ctx.rank() == 0) tier = t;
    ctx.finalize();
  };
  run_app(tiny_config(2), restore_app);
  EXPECT_EQ(tier, 1);  // Nearest surviving tier: the burst buffer.
}

TEST(TieredRestore, ColdStartAfterTotalLossReturnsNothing) {
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem;pfs"));
  auto seed_app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPartner);  // Memory only.
    std::vector<std::byte> payload(100);
    writer.write(ctx, store, 1, payload);
    ctx.finalize();
  };
  run_app(tiny_config(2), seed_app);
  // Both ranks die: every copy of every file is gone.
  store.apply_failures({FailureSpec{0, sim_sec(1)}, FailureSpec{1, sim_sec(1)}},
                       sim_sec(2));
  bool empty[2] = {false, false};  // Per-rank slots, as above.
  auto restore_app = [&](Context& ctx) {
    empty[ctx.rank()] = !ckpt::read_latest_checkpoint_tiered(ctx, store, storage).has_value();
    ctx.finalize();
  };
  run_app(tiny_config(2), restore_app);
  EXPECT_TRUE(empty[0] && empty[1]);
}

TEST(TieredRestore, FailedFetchIsAnErrorNotAColdStart) {
  // Rank 0 lost its local copy; its replica lives in rank 1's memory, and
  // rank 1 dies as the restore launch starts. Under a returning error
  // handler the fetch fails: that must read as an error, not as "no
  // checkpoint" (which would restart rank 0 from scratch).
  CheckpointStore store(2);
  const StorageHierarchy storage(must_parse("mem:cbw=1e6;pfs:lat=1ms"));
  auto seed_app = [&](Context& ctx) {
    ckpt::TieredWriter writer(storage, CkptMode::kPartner);
    std::vector<std::byte> payload(100, std::byte{1});
    writer.write(ctx, store, 1, payload);
    ctx.finalize();
  };
  run_app(tiny_config(2), seed_app);
  store.apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2));
  ASSERT_EQ(store.restore_plan(1)->source[0].holder, 1);

  core::SimConfig cfg = tiny_config(2);
  cfg.default_error_handler = vmpi::ErrorHandlerKind::kReturn;
  cfg.failures = {FailureSpec{1, 0}};  // Dies before serving the fetch.
  bool restored = true;
  vmpi::Err err = vmpi::Err::kSuccess;
  auto restore_app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      restored = ckpt::read_latest_checkpoint_tiered(ctx, store, storage, nullptr, nullptr, &err)
                     .has_value();
    }
    ctx.finalize();
  };
  run_app(cfg, restore_app);
  EXPECT_FALSE(restored);
  EXPECT_EQ(err, vmpi::Err::kProcFailed);

  // A cold start, by contrast, reports success.
  CheckpointStore empty(2);
  err = vmpi::Err::kProcFailed;
  auto cold_app = [&](Context& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_FALSE(ckpt::read_latest_checkpoint_tiered(ctx, empty, storage, nullptr, nullptr,
                                                       &err)
                       .has_value());
    }
    ctx.finalize();
  };
  run_app(tiny_config(2), cold_app);
  EXPECT_EQ(err, vmpi::Err::kSuccess);
}

TEST(TieredRestore, Heat3dStopsOnAFailedFetchInsteadOfRestartingCold) {
  // The same failure through the application: heat3d must return at start-up
  // like on any other communication error, not run from iteration 1 while
  // its peers resume from the checkpoint.
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 8;
  p.px = 2;
  p.py = p.pz = 1;
  p.total_iterations = 20;
  p.halo_interval = p.checkpoint_interval = 5;
  p.work_units_per_point = 1000.0;  // 256 us per iteration per rank.
  core::SimConfig first = tiny_config(2);
  first.storage = "mem;pfs";
  first.ckpt_mode = "partner";
  first.failures = {FailureSpec{0, sim_ms(2)}};  // After the iteration-5 checkpoint.
  CheckpointStore store(2);
  const core::SimResult r1 = run_app(first, apps::make_heat3d(p), &store);
  ASSERT_EQ(r1.outcome, core::SimResult::Outcome::kAborted);
  store.apply_failures(r1.activated_failures, r1.max_end_time);
  store.scrub();
  ASSERT_EQ(store.latest_complete(), std::optional<std::uint64_t>(5));
  ASSERT_EQ(store.restore_plan(5)->source[0].holder, 1);  // Remote replica only.

  core::SimConfig second = first;
  second.initial_time = r1.max_end_time;
  second.default_error_handler = vmpi::ErrorHandlerKind::kReturn;
  second.failures = {FailureSpec{1, r1.max_end_time}};  // The holder dies at relaunch.
  apps::HeatTelemetry telemetry(2);
  p.telemetry = &telemetry;
  run_app(second, apps::make_heat3d(p), &store);
  EXPECT_EQ(telemetry.last_phase[0], apps::HeatPhase::kStartup);
}

// ---------------------------------------------------------------------------
// The shared restore plan.

/// Every rank's entry of the shared plan equals what that rank derived on
/// its own before plans were shared: best_copy over its copies, its file
/// size, and for every holder the ranks it serves in ascending order.
void expect_plan_matches_per_rank_derivation(const CheckpointStore& store) {
  const int world = store.expected_ranks();
  for (const std::uint64_t v : store.versions()) {
    SCOPED_TRACE("version " + std::to_string(v));
    const auto plan = store.restore_plan(v);
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->source.size(), static_cast<std::size_t>(world));
    ASSERT_EQ(plan->bytes.size(), static_cast<std::size_t>(world));
    for (int q = 0; q < world; ++q) {
      EXPECT_EQ(plan->source[static_cast<std::size_t>(q)],
                ckpt::best_copy(store.copies(v, q), q))
          << "rank " << q;
      EXPECT_EQ(plan->bytes[static_cast<std::size_t>(q)], store.file_bytes(v, q))
          << "rank " << q;
    }
    for (int h = 0; h < world; ++h) {
      std::vector<int> want;
      for (int q = 0; q < world; ++q) {
        if (q != h && ckpt::best_copy(store.copies(v, q), q).holder == h) want.push_back(q);
      }
      const auto got = plan->served_by(h);
      EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want) << "holder " << h;
    }
  }
}

TEST(RestorePlan, MatchesPerRankDerivationAcrossTheFailureMatrix) {
  constexpr int kWorld = 4;
  const StorageHierarchy storage(
      must_parse("mem:cbw=1e9;bb:bw=2e6,cbw=1e6;pfs:bw=2e5,cbw=1e5"));
  struct Case {
    const char* name;
    std::vector<int> dead;
    bool drains_land;
  };
  const Case cases[] = {
      {"no failure", {}, true},
      {"victim", {0}, true},
      {"partner", {1}, true},
      {"victim and partner", {0, 1}, true},
      {"in-flight drain", {}, false},
      {"victim, drains in flight", {2}, false},
  };
  for (const CkptMode mode : {CkptMode::kPfs, CkptMode::kPartner, CkptMode::kStaged}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(ckpt::to_string(mode)) + ": " + c.name);
      CheckpointStore store(kWorld);
      auto app = [&](Context& ctx) {
        ckpt::TieredWriter writer(storage, mode);
        for (std::uint64_t v = 1; v <= 2; ++v) {
          // Uneven sizes, so a swapped bytes entry would show.
          std::vector<std::byte> payload(100 + 10 * static_cast<std::size_t>(ctx.rank()));
          ASSERT_EQ(writer.write(ctx, store, v, payload), vmpi::Err::kSuccess);
        }
        if (c.drains_land) ctx.elapse(sim_sec(1));
        ctx.finalize();
      };
      const core::SimResult run = run_app(tiny_config(kWorld), app);
      std::vector<FailureSpec> failures;
      for (int r : c.dead) failures.push_back(FailureSpec{r, run.max_end_time / 2});
      store.apply_failures(failures, run.max_end_time);
      expect_plan_matches_per_rank_derivation(store);
    }
  }
}

TEST(RestorePlan, MatchesPerRankDerivationForLegacyAndMissingFiles) {
  // Version 1 mixes partner-replicated files with a legacy copy-less one
  // (rank 2) and a missing one (rank 3); version 2 is all legacy.
  CheckpointStore store(4);
  for (int r = 0; r < 3; ++r) {
    store.begin(1, r);
    store.append(1, r, bytes_of(r == 2 ? "legacy" : "img"));
    store.finalize(1, r);
    if (r == 2) continue;
    store.record_copy(1, r, CopyRecord{.level = 0, .holder = r});
    store.record_copy(1, r, CopyRecord{.level = 0, .holder = ckpt::partner_of(r, 4)});
  }
  for (int r = 0; r < 4; ++r) {
    store.begin(2, r);
    store.finalize(2, r);
  }
  store.apply_failures({FailureSpec{0, sim_sec(1)}}, sim_sec(2));
  expect_plan_matches_per_rank_derivation(store);
  const auto plan = store.restore_plan(1);
  EXPECT_EQ(plan->source[0].holder, 1);  // Victim fetches from its partner.
  EXPECT_EQ(plan->source[2], CopyRecord{});  // Legacy: the shared PFS default.
  EXPECT_EQ(plan->bytes[3], 0u);             // Missing.
  EXPECT_EQ(plan->served_by(1).size(), 1u);
  EXPECT_EQ(store.restore_plan(7), nullptr);  // No such version.
}

TEST(RestorePlan, MemoizedPerVersionAndDroppedOnlyByThatVersionsChanges) {
  CheckpointStore store(2);
  for (std::uint64_t v = 1; v <= 2; ++v) {
    for (int r = 0; r < 2; ++r) {
      store.begin(v, r);
      store.append(v, r, bytes_of("img"));
      store.finalize(v, r);
      store.record_copy(v, r, CopyRecord{.level = 0, .holder = r});
      store.record_copy(v, r, CopyRecord{.level = 0, .holder = 1 - r});
    }
  }
  const auto p1 = store.restore_plan(2);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(store.restore_plan(2), p1);  // Same plan on repeated calls.

  // Ranks that finished restoring move on: other versions' changes keep it.
  store.begin(3, 0);
  store.append(3, 0, bytes_of("next"));
  EXPECT_EQ(store.restore_plan(2), p1);
  store.remove_file(1, 0);
  EXPECT_EQ(store.restore_plan(2), p1);

  // Changes to the version itself drop it.
  store.record_copy(2, 0, CopyRecord{.level = 2, .holder = -1});
  const auto p2 = store.restore_plan(2);
  EXPECT_NE(p2, p1);
  EXPECT_EQ(store.restore_plan(2), p2);

  store.apply_failures({FailureSpec{1, sim_sec(1)}}, sim_sec(2));
  const auto p3 = store.restore_plan(2);
  EXPECT_NE(p3, p2);
  EXPECT_EQ(p3->source[1].holder, 0);  // Rank 1's surviving replica.
  EXPECT_EQ(p3->served_by(0).size(), 1u);
  EXPECT_EQ(p1->source[1].holder, 1);  // A plan already handed out stays as built.

  store.apply_failures({}, sim_sec(2));  // Loses nothing: keeps the plan.
  EXPECT_EQ(store.restore_plan(2), p3);

  store.remove_file(2, 1);
  const auto p4 = store.restore_plan(2);
  EXPECT_NE(p4, p3);
  EXPECT_EQ(p4->bytes[1], 0u);

  store.begin(2, 1);
  const auto p5 = store.restore_plan(2);
  EXPECT_NE(p5, p4);
  store.append(2, 1, bytes_of("again"));
  const auto p6 = store.restore_plan(2);
  EXPECT_NE(p6, p5);
  EXPECT_EQ(p6->bytes[1], 5u);
  store.finalize(2, 1);
  EXPECT_NE(store.restore_plan(2), p6);

  store.remove_version(2);
  EXPECT_EQ(store.restore_plan(2), nullptr);
  EXPECT_EQ(store.scrub(), 2);  // Version 1 lost rank 0's file; 3 never completed.
  EXPECT_EQ(store.restore_plan(3), nullptr);
}

TEST(RestorePlan, PartnerRestartIsWorkerInvariant) {
  // A 64-rank partner-mode restart whose victim restores from the replica in
  // its partner's memory: every rank shares one plan, built by whichever
  // worker gets there first, and the result must not depend on the worker
  // count.
  apps::HeatParams p;
  p.nx = p.ny = p.nz = 16;
  p.px = p.py = p.pz = 4;  // 64 ranks, 4^3 local cubes.
  p.total_iterations = 40;
  p.halo_interval = p.checkpoint_interval = 10;
  p.work_units_per_point = 1000.0;  // 64 us per iteration per rank.
  constexpr int kVictim = 21;
  struct Outcome {
    core::RunnerResult result;
    std::vector<apps::HeatReport> reports;
    std::vector<CopyRecord> final_copies;
  };
  auto run_with = [&](int workers) {
    core::RunnerConfig rc;
    rc.base = tiny_config(64);
    rc.base.sim_workers = workers;
    rc.base.storage = "mem;pfs";
    rc.base.ckpt_mode = "partner";
    rc.first_run_failures = {FailureSpec{kVictim, sim_us(25 * 64)}};  // After iteration 20.
    Outcome out;
    out.reports.resize(64);
    core::ResilientRunner runner(rc, apps::make_heat3d(p, &out.reports));
    out.result = runner.run();
    out.final_copies = runner.checkpoints().copies(40, kVictim);
    return out;
  };
  // The wall-clock tail always differs; an aborted launch's post-abort drain
  // length (events_processed onward) may differ with the worker count too.
  auto launch_json = [](const core::SimResult& r) {
    const std::string json = core::sim_result_json(r);
    const char* cut = r.outcome == core::SimResult::Outcome::kCompleted
                          ? ",\"wall_seconds\""
                          : ",\"events_processed\"";
    return json.substr(0, json.find(cut));
  };
  const Outcome ref = run_with(1);
  ASSERT_TRUE(ref.result.completed);
  ASSERT_EQ(ref.result.launches, 2);
  EXPECT_EQ(ref.reports[kVictim].restarts_used, 1);
  ASSERT_FALSE(ref.final_copies.empty());
  for (const CopyRecord& c : ref.final_copies) EXPECT_EQ(c.level, 0);  // Memory only.
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const Outcome got = run_with(workers);
    EXPECT_EQ(got.result.completed, ref.result.completed);
    EXPECT_EQ(got.result.total_time, ref.result.total_time);
    EXPECT_EQ(got.result.failures, ref.result.failures);
    ASSERT_EQ(got.result.launches, ref.result.launches);
    for (std::size_t i = 0; i < ref.result.run_results.size(); ++i) {
      EXPECT_EQ(launch_json(got.result.run_results[i]), launch_json(ref.result.run_results[i]))
          << "launch " << i;
    }
    for (int r = 0; r < 64; ++r) {
      const auto& a = got.reports[static_cast<std::size_t>(r)];
      const auto& b = ref.reports[static_cast<std::size_t>(r)];
      EXPECT_EQ(a.completed_iterations, b.completed_iterations) << "rank " << r;
      EXPECT_EQ(a.restarts_used, b.restarts_used) << "rank " << r;
      EXPECT_EQ(a.checksum, b.checksum) << "rank " << r;
    }
  }
}

TEST(TieredHelpers, PartnerRingAndClients) {
  EXPECT_EQ(ckpt::partner_of(0, 2), 1);
  EXPECT_EQ(ckpt::partner_of(1, 2), 0);
  EXPECT_EQ(ckpt::partner_of(7, 8), 0);
  int clients = 0;
  auto app = [&](Context& ctx) {
    if (ctx.rank() == 0) clients = ckpt::checkpoint_clients(ctx);
    ctx.finalize();
  };
  run_app(tiny_config(3), app);
  EXPECT_EQ(clients, 3);  // All ranks alive.
}

}  // namespace
}  // namespace exasim
