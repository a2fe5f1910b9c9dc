#pragma once

#include <cstddef>

// AddressSanitizer shadow control for memory the simulator recycles itself
// (pool blocks, fiber stacks, request slots). Parked memory is poisoned, so
// a stale pointer into it reports like a use-after-free even though the
// memory never went back to the system allocator. Without the sanitizer
// both calls compile to nothing.
#if defined(__SANITIZE_ADDRESS__)
#define EXASIM_HAVE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EXASIM_HAVE_ASAN 1
#endif
#endif

#if defined(EXASIM_HAVE_ASAN)
extern "C" {
void __asan_poison_memory_region(void const volatile* addr, std::size_t size);
void __asan_unpoison_memory_region(void const volatile* addr, std::size_t size);
}
#endif

namespace exasim::util {

inline void asan_poison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t n) {
#if defined(EXASIM_HAVE_ASAN)
  __asan_poison_memory_region(p, n);
#endif
}

inline void asan_unpoison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t n) {
#if defined(EXASIM_HAVE_ASAN)
  __asan_unpoison_memory_region(p, n);
#endif
}

}  // namespace exasim::util
