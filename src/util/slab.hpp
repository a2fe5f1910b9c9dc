#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/asan.hpp"

namespace exasim::util {

/// Recycling object store (DESIGN.md §9). acquire() hands out a slot holding
/// a default-state T; release() resets the object to T{} and parks the slot
/// for reuse, so once the slab has grown to its high-water mark acquire and
/// release never touch the heap. Storage grows in chunks, each doubling the
/// capacity, and objects never move: pointers stay valid until their slot is
/// released. Parked objects are ASan-poisoned, so a stale pointer into one
/// reports like a use-after-free. Not thread-safe: one owner (a simulated
/// process, hence one LP group) uses it.
template <class T>
class Slab {
 public:
  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() {
    for (std::uint32_t slot : free_) asan_unpoison(items_[slot], sizeof(T));
  }

  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      asan_unpoison(items_[slot], sizeof(T));
      return slot;
    }
    if (chunk_used_ == chunk_size_) {
      chunk_size_ = chunks_.empty() ? kFirstChunk : capacity();
      chunks_.push_back(std::make_unique<T[]>(chunk_size_));
      chunk_used_ = 0;
      // Size the slot tables for the whole chunk; release() then never
      // grows the free list.
      items_.reserve(capacity());
      free_.reserve(capacity());
    }
    items_.push_back(&chunks_.back()[chunk_used_++]);
    return static_cast<std::uint32_t>(items_.size() - 1);
  }

  void release(std::uint32_t slot) {
    T& obj = *items_[slot];
    obj = T{};
    asan_poison(&obj, sizeof(T));
    free_.push_back(slot);
  }

  T& operator[](std::uint32_t slot) { return *items_[slot]; }
  /// Slots the allocated chunks hold (handed out or not).
  std::size_t capacity() const { return items_.size() - chunk_used_ + chunk_size_; }

 private:
  static constexpr std::size_t kFirstChunk = 4;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t chunk_size_ = 0;
  std::size_t chunk_used_ = 0;
  std::vector<T*> items_;  ///< Slot -> object.
  std::vector<std::uint32_t> free_;
};

}  // namespace exasim::util
