#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "iomodel/pfs.hpp"
#include "util/parse.hpp"
#include "util/time.hpp"
#include "vmpi/context.hpp"

namespace exasim::ckpt {

/// One physical copy of a rank's checkpoint file somewhere in the storage
/// hierarchy. A file with no copy records is *indestructible* — the legacy
/// flat-PFS behaviour, where the store models an always-durable file system.
/// A file that has copy records survives a failure only through copies that
/// themselves survive (CheckpointStore::apply_failures).
struct CopyRecord {
  /// StorageTierKind ordinal: 0 = node memory, 1 = burst buffer, 2 = PFS.
  int level = 2;
  /// Rank whose node memory holds the copy; -1 for shared tiers (bb/pfs).
  int holder = -1;
  /// Sim-time at which the copy finishes materializing. A background drain
  /// that was still in flight when the run ended never happened.
  SimTime ready_time = 0;
  /// Staged drains source from a node-memory image: if `depends_on` (a rank)
  /// dies before `depends_until`, the drain loses its source and the copy is
  /// lost even though its own holder is a durable tier. -1 = no dependency.
  int depends_on = -1;
  SimTime depends_until = 0;

  friend bool operator==(const CopyRecord&, const CopyRecord&) = default;
};

/// The copy `rank` restores its file from: fastest tier, then cheapest
/// access — its own node memory, then a shared tier (bb/pfs), then a remote
/// rank's node memory (needs a network fetch). An empty list is a legacy
/// indestructible file (or a missing one): the default record, a shared PFS
/// copy.
CopyRecord best_copy(std::span<const CopyRecord> copies, int rank);

/// Who restores from where, for one checkpoint version. Built once per
/// version by CheckpointStore::restore_plan and shared read-only by every
/// restoring rank, so a rank's restore work is its own entry plus the ranks
/// whose memory copy it holds — never a scan over the world.
struct RestorePlan {
  /// Per rank: best_copy of its file (the default record if it has none).
  std::vector<CopyRecord> source;
  /// Per rank: stored file size, 0 if missing (modeled fetches need exact
  /// sizes; vmpi::recv treats a short posting as truncation).
  std::vector<std::size_t> bytes;
  /// Holder -> served ranks, CSR: the ranks other than h whose source lives
  /// in h's node memory are served[served_begin[h] .. served_begin[h + 1]),
  /// ascending — the order h posts its fetch sends in.
  std::vector<std::size_t> served_begin;
  std::vector<int> served;

  std::span<const int> served_by(int holder) const {
    const auto h = static_cast<std::size_t>(holder);
    return std::span<const int>(served).subspan(served_begin[h],
                                                served_begin[h + 1] - served_begin[h]);
  }
};

/// Application-level checkpoint storage, simulating the parallel file system
/// the paper's heat application checkpoints to (§V-B).
///
/// A checkpoint *set* is one version: one file per rank. A file is
/// *corrupted* if it exists but was never finalized ("checkpoint file that
/// exists, but misses some information"); a set is *incomplete* if some
/// ranks' files are missing ("missing checkpoint files due to a failure
/// during checkpointing"). Only sets where every rank's file exists and is
/// finalized are valid restart candidates.
///
/// The store outlives individual simulation runs — it is the persistent
/// state that survives an abort/restart cycle. All methods are thread-safe:
/// ranks checkpointing concurrently live on different engine workers.
class CheckpointStore {
 public:
  explicit CheckpointStore(int expected_ranks);

  int expected_ranks() const { return expected_ranks_; }

  /// Creates rank's file in `version`, unfinalized (overwrites any previous
  /// attempt by the same rank for this version).
  void begin(std::uint64_t version, int rank);

  /// Appends payload bytes to rank's file.
  void append(std::uint64_t version, int rank, std::span<const std::byte> data);

  /// Marks rank's file complete.
  void finalize(std::uint64_t version, int rank);

  bool file_exists(std::uint64_t version, int rank) const;
  bool file_finalized(std::uint64_t version, int rank) const;

  /// True if every rank's file exists and is finalized.
  bool set_complete(std::uint64_t version) const;

  /// Highest version with a complete set, if any.
  std::optional<std::uint64_t> latest_complete() const;

  /// File contents (valid whether finalized or not; empty if missing).
  std::vector<std::byte> read(std::uint64_t version, int rank) const;

  /// Stored size of rank's file (0 if missing) — restore planning needs exact
  /// sizes for modeled transfers (vmpi::recv truncation is an error).
  std::size_t file_bytes(std::uint64_t version, int rank) const;

  /// Records where a copy of rank's file lives (tiered checkpointing).
  void record_copy(std::uint64_t version, int rank, const CopyRecord& copy);

  /// All surviving copies of rank's file, fastest tier first (empty for
  /// legacy indestructible files and for missing files).
  std::vector<CopyRecord> copies(std::uint64_t version, int rank) const;

  /// The restore plan of `version` (nullptr if the version has no files).
  /// Built by the first caller and memoized per version: every later call
  /// returns the same plan until that version itself changes (begin, append,
  /// finalize, record_copy or remove_file on it, apply_failures losing one
  /// of its copies, or its erasure). Changes to other versions keep it, so
  /// ranks that finish restoring and move on do not make their peers rebuild.
  std::shared_ptr<const RestorePlan> restore_plan(std::uint64_t version) const;

  /// Applies a run's activated failures to the stored copies: a copy is lost
  /// if its holder died, if it was not ready by `end_time` (in-flight drain),
  /// or if its drain source died before the drain finished reading it. Files
  /// whose copy list goes empty are deleted (legacy files without copy
  /// records are indestructible). Returns the number of copies lost. Call
  /// before scrub(): a version that lost a rank's file is incomplete.
  int apply_failures(const std::vector<FailureSpec>& failures, SimTime end_time);

  /// Deletes one rank's file ("the previous checkpoint can be deleted
  /// safely" after the post-checkpoint barrier).
  void remove_file(std::uint64_t version, int rank);

  /// Deletes a whole version.
  void remove_version(std::uint64_t version);

  /// Deletes every incomplete/corrupted version — the paper's pre-restart
  /// shell script ("incomplete checkpoints ... are deleted using a shell
  /// script"). Returns the number of versions removed.
  int scrub();

  std::vector<std::uint64_t> versions() const;
  std::size_t total_bytes() const;
  std::size_t file_count() const;

 private:
  struct File {
    std::vector<std::byte> data;
    bool finalized = false;
    /// Physical placements; empty = legacy indestructible file.
    std::vector<CopyRecord> copies;
  };
  /// Per-version bookkeeping. The finalized counter makes set_complete()
  /// O(1): at restart every one of n ranks asks for the latest complete
  /// version, and an O(n) scan per ask would make restarts O(n^2).
  struct VersionSet {
    std::map<int, File> files;
    int finalized_count = 0;
    /// Memoized restore plan; reset by every change to this version.
    mutable std::shared_ptr<const RestorePlan> plan;
  };
  bool set_complete_unlocked(std::uint64_t version) const;
  std::shared_ptr<const RestorePlan> build_plan(const VersionSet& set) const;

  int expected_ranks_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, VersionSet> versions_;
};

/// Writes one rank's checkpoint file, charging the PFS model's write time to
/// the process's virtual clock *before* the file is finalized — so a process
/// failure during the write leaves a corrupted (unfinalized) file, exactly
/// the §V-D failure mode.
///
/// `concurrent_clients` models all ranks checkpointing together.
/// `logical_bytes` is the size charged to the PFS model — pass the real
/// application state size when the stored payload is a small modeled header
/// (skeleton apps); 0 means "use payload.size()".
vmpi::Err write_rank_checkpoint(vmpi::Context& ctx, CheckpointStore& store,
                                std::uint64_t version, std::span<const std::byte> payload,
                                const PfsModel& pfs, int concurrent_clients,
                                std::size_t logical_bytes = 0);

/// Reads this rank's file from the latest complete set, charging PFS read
/// time; returns nullopt when no complete checkpoint exists (cold start).
std::optional<std::vector<std::byte>> read_latest_checkpoint(vmpi::Context& ctx,
                                                             CheckpointStore& store, int rank,
                                                             const PfsModel& pfs,
                                                             int concurrent_clients,
                                                             std::uint64_t* version_out = nullptr);

}  // namespace exasim::ckpt
