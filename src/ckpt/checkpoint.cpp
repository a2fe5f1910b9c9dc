#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>

namespace exasim::ckpt {

namespace {

/// How `rank` reaches `copy`, cheapest first: its own node memory, a shared
/// tier (bb/pfs), a remote rank's node memory (needs a network fetch).
int access_class(const CopyRecord& copy, int rank) {
  if (copy.holder == rank) return 0;
  if (copy.holder < 0) return 1;
  return 2;
}

}  // namespace

CopyRecord best_copy(std::span<const CopyRecord> copies, int rank) {
  CopyRecord best;  // Defaults: level 2, holder -1 (shared PFS).
  bool have = false;
  for (const auto& c : copies) {
    if (!have || c.level < best.level ||
        (c.level == best.level && access_class(c, rank) < access_class(best, rank))) {
      best = c;
      have = true;
    }
  }
  return best;
}

CheckpointStore::CheckpointStore(int expected_ranks) : expected_ranks_(expected_ranks) {
  if (expected_ranks <= 0) throw std::invalid_argument("expected_ranks <= 0");
}

void CheckpointStore::begin(std::uint64_t version, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rank < 0 || rank >= expected_ranks_) throw std::invalid_argument("bad rank");
  VersionSet& set = versions_[version];
  set.plan.reset();
  auto [it, inserted] = set.files.try_emplace(rank);
  if (!inserted) {
    if (it->second.finalized) --set.finalized_count;
    it->second = File{};
  }
}

void CheckpointStore::append(std::uint64_t version, int rank,
                             std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) throw std::logic_error("append before begin");
  auto fit = vit->second.files.find(rank);
  if (fit == vit->second.files.end()) throw std::logic_error("append before begin");
  if (fit->second.finalized) throw std::logic_error("append after finalize");
  vit->second.plan.reset();
  fit->second.data.insert(fit->second.data.end(), data.begin(), data.end());
}

void CheckpointStore::finalize(std::uint64_t version, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) throw std::logic_error("finalize before begin");
  auto fit = vit->second.files.find(rank);
  if (fit == vit->second.files.end()) throw std::logic_error("finalize before begin");
  vit->second.plan.reset();
  if (!fit->second.finalized) {
    fit->second.finalized = true;
    ++vit->second.finalized_count;
  }
}

bool CheckpointStore::file_exists(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  return vit != versions_.end() && vit->second.files.count(rank) != 0;
}

bool CheckpointStore::file_finalized(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return false;
  auto fit = vit->second.files.find(rank);
  return fit != vit->second.files.end() && fit->second.finalized;
}

bool CheckpointStore::set_complete(std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  return set_complete_unlocked(version);
}

bool CheckpointStore::set_complete_unlocked(std::uint64_t version) const {
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return false;
  return static_cast<int>(vit->second.files.size()) == expected_ranks_ &&
         vit->second.finalized_count == expected_ranks_;
}

std::optional<std::uint64_t> CheckpointStore::latest_complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    if (set_complete_unlocked(it->first)) return it->first;
  }
  return std::nullopt;
}

std::vector<std::byte> CheckpointStore::read(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return {};
  auto fit = vit->second.files.find(rank);
  if (fit == vit->second.files.end()) return {};
  return fit->second.data;
}

std::size_t CheckpointStore::file_bytes(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return 0;
  auto fit = vit->second.files.find(rank);
  return fit == vit->second.files.end() ? 0 : fit->second.data.size();
}

void CheckpointStore::record_copy(std::uint64_t version, int rank,
                                  const CopyRecord& copy) {
  std::lock_guard<std::mutex> lock(mu_);
  if (copy.holder >= expected_ranks_) throw std::invalid_argument("bad copy holder");
  auto vit = versions_.find(version);
  if (vit == versions_.end()) throw std::logic_error("record_copy before begin");
  auto fit = vit->second.files.find(rank);
  if (fit == vit->second.files.end()) throw std::logic_error("record_copy before begin");
  vit->second.plan.reset();
  fit->second.copies.push_back(copy);
  std::stable_sort(fit->second.copies.begin(), fit->second.copies.end(),
                   [](const CopyRecord& a, const CopyRecord& b) { return a.level < b.level; });
}

std::vector<CopyRecord> CheckpointStore::copies(std::uint64_t version, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return {};
  auto fit = vit->second.files.find(rank);
  if (fit == vit->second.files.end()) return {};
  return fit->second.copies;
}

std::shared_ptr<const RestorePlan> CheckpointStore::restore_plan(std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return nullptr;
  if (!vit->second.plan) vit->second.plan = build_plan(vit->second);
  return vit->second.plan;
}

std::shared_ptr<const RestorePlan> CheckpointStore::build_plan(const VersionSet& set) const {
  const auto world = static_cast<std::size_t>(expected_ranks_);
  auto plan = std::make_shared<RestorePlan>();
  plan->source.resize(world);  // Missing files keep the default record.
  plan->bytes.assign(world, 0);
  for (const auto& [rank, file] : set.files) {
    const auto q = static_cast<std::size_t>(rank);
    plan->source[q] = best_copy(file.copies, rank);
    plan->bytes[q] = file.data.size();
  }
  // Counting sort by holder: count into served_begin[h], prefix-sum to each
  // range's end, then fill back to front in descending rank order — each
  // range ends up ascending and served_begin[h] lands on its start.
  auto remote_holder = [&](std::size_t q) {
    const int h = plan->source[q].holder;
    return h >= 0 && static_cast<std::size_t>(h) != q ? static_cast<std::size_t>(h) : world;
  };
  auto& begin = plan->served_begin;
  begin.assign(world + 1, 0);
  for (std::size_t q = 0; q < world; ++q) {
    if (const std::size_t h = remote_holder(q); h < world) ++begin[h];
  }
  for (std::size_t h = 1; h <= world; ++h) begin[h] += begin[h - 1];
  plan->served.resize(begin[world]);
  for (std::size_t q = world; q-- > 0;) {
    if (const std::size_t h = remote_holder(q); h < world) {
      plan->served[--begin[h]] = static_cast<int>(q);
    }
  }
  return plan;
}

int CheckpointStore::apply_failures(const std::vector<FailureSpec>& failures,
                                    SimTime end_time) {
  std::lock_guard<std::mutex> lock(mu_);
  // Earliest failure time per rank: a rank that died at t takes its node
  // memory (and any drain it was sourcing) with it from t on.
  std::map<int, SimTime> died;
  for (const auto& f : failures) {
    auto [it, inserted] = died.try_emplace(f.rank, f.time);
    if (!inserted) it->second = std::min(it->second, f.time);
  }
  int lost = 0;
  std::vector<std::uint64_t> doomed_versions;
  for (auto& [version, set] : versions_) {
    const int lost_before = lost;
    std::vector<int> doomed_files;
    for (auto& [rank, file] : set.files) {
      if (file.copies.empty()) continue;  // Legacy indestructible file.
      auto survives = [&](const CopyRecord& c) {
        if (c.ready_time > end_time) return false;  // Drain still in flight.
        if (c.holder >= 0 && died.count(c.holder) != 0) return false;
        if (c.depends_on >= 0) {
          auto dit = died.find(c.depends_on);
          if (dit != died.end() && dit->second < c.depends_until) return false;
        }
        return true;
      };
      const auto old_size = file.copies.size();
      file.copies.erase(
          std::remove_if(file.copies.begin(), file.copies.end(),
                         [&](const CopyRecord& c) { return !survives(c); }),
          file.copies.end());
      lost += static_cast<int>(old_size - file.copies.size());
      if (file.copies.empty()) doomed_files.push_back(rank);
    }
    if (lost != lost_before) set.plan.reset();
    for (int rank : doomed_files) {
      auto fit = set.files.find(rank);
      if (fit->second.finalized) --set.finalized_count;
      set.files.erase(fit);
    }
    if (set.files.empty()) doomed_versions.push_back(version);
  }
  for (auto v : doomed_versions) versions_.erase(v);
  return lost;
}

void CheckpointStore::remove_file(std::uint64_t version, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = versions_.find(version);
  if (vit == versions_.end()) return;
  auto fit = vit->second.files.find(rank);
  if (fit == vit->second.files.end()) return;
  if (fit->second.finalized) --vit->second.finalized_count;
  vit->second.plan.reset();
  vit->second.files.erase(fit);
  if (vit->second.files.empty()) versions_.erase(vit);
}

void CheckpointStore::remove_version(std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  versions_.erase(version);
}

int CheckpointStore::scrub() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> doomed;
  for (const auto& [version, files] : versions_) {
    if (!set_complete_unlocked(version)) doomed.push_back(version);
  }
  for (auto v : doomed) versions_.erase(v);
  return static_cast<int>(doomed.size());
}

std::vector<std::uint64_t> CheckpointStore::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  out.reserve(versions_.size());
  for (const auto& [v, files] : versions_) out.push_back(v);
  return out;
}

std::size_t CheckpointStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [v, set] : versions_) {
    for (const auto& [r, f] : set.files) total += f.data.size();
  }
  return total;
}

std::size_t CheckpointStore::file_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [v, set] : versions_) total += set.files.size();
  return total;
}

vmpi::Err write_rank_checkpoint(vmpi::Context& ctx, CheckpointStore& store,
                                std::uint64_t version, std::span<const std::byte> payload,
                                const PfsModel& pfs, int concurrent_clients,
                                std::size_t logical_bytes) {
  const int rank = ctx.rank();
  if (logical_bytes == 0) logical_bytes = payload.size();
  store.begin(version, rank);
  // The write time elapses before the file is finalized: a failure activating
  // inside elapse() unwinds this fiber and leaves the file corrupted.
  ctx.elapse(pfs.write_time(logical_bytes, concurrent_clients));
  store.append(version, rank, payload);
  store.finalize(version, rank);
  return vmpi::Err::kSuccess;
}

std::optional<std::vector<std::byte>> read_latest_checkpoint(vmpi::Context& ctx,
                                                             CheckpointStore& store, int rank,
                                                             const PfsModel& pfs,
                                                             int concurrent_clients,
                                                             std::uint64_t* version_out) {
  auto version = store.latest_complete();
  if (!version) return std::nullopt;
  auto data = store.read(*version, rank);
  ctx.elapse(pfs.read_time(data.size(), concurrent_clients));
  if (version_out != nullptr) *version_out = *version;
  return data;
}

}  // namespace exasim::ckpt
