#ifndef CGRX_SRC_UTIL_PREFETCH_H_
#define CGRX_SRC_UTIL_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace cgrx::util {

/// Requests every cache line of [p, p + bytes) for reading, into all
/// cache levels, without waiting for any of them.
///
/// Always inlined, on purpose: GCC's IPA pure-const pass classifies an
/// out-of-line function whose only effect is `__builtin_prefetch` as
/// pure, and then deletes its calls -- which is how an earlier
/// per-entry prefetch helper vanished from every optimized build.
/// Inlined into its caller, the builtins survive. The same holds for
/// any wrapper whose only effect is calling this: it must be
/// always-inline too. CI checks that the Release benchmark binary still
/// prefetches in both cgRX's and cgRXu's lookup batches.
[[gnu::always_inline]] inline void PrefetchRange(const void* p,
                                                 std::size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  constexpr std::uintptr_t kLineBytes = 64;
  const auto first = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t line = first & ~(kLineBytes - 1); line < first + bytes;
       line += kLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), /*rw=*/0,
                       /*locality=*/3);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace cgrx::util

#endif  // CGRX_SRC_UTIL_PREFETCH_H_
