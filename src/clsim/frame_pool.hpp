#pragma once

// Thread-local size-bucketed freelist arena for work-item coroutine frames.
//
// A tuning run launches millions of work-items, and every one of them is a
// C++20 coroutine whose frame the compiler heap-allocates. Routing those
// allocations through a per-thread freelist turns the steady-state cost of
// a frame into a pointer pop/push instead of a malloc/free pair, without
// any cross-thread synchronization: frames are created and destroyed on
// the thread that runs the work-group, and a block freed on a different
// thread simply joins that thread's cache.
//
// Each block carries a small header recording its bucket size, so
// deallocation needs no size argument (coroutine frames are destroyed via
// the promise's unsized operator delete). Blocks above kMaxPooledBytes
// bypass the pool. Every cached block is released when its thread exits,
// so the pool is leak-clean under ASan.

#include <cstddef>
#include <cstdint>

namespace pt::clsim {

class FramePool {
 public:
  /// Size classes are multiples of this many bytes (header included).
  static constexpr std::size_t kGranularity = 64;
  /// Largest block (header included) served from the freelists; bigger
  /// requests go straight to the global heap.
  static constexpr std::size_t kMaxPooledBytes = 8192;
  /// Blocks cached per bucket per thread before frees fall through to the
  /// heap — bounds the idle memory a burst of large groups can pin.
  static constexpr std::size_t kMaxFreePerBucket = 128;

  /// Per-thread counters (reads report the calling thread's cache only).
  struct Stats {
    std::uint64_t allocations = 0;  // total allocate() calls
    std::uint64_t reuses = 0;       // served by popping a freelist
    std::uint64_t oversized = 0;    // above kMaxPooledBytes, heap direct
  };

  [[nodiscard]] static void* allocate(std::size_t bytes);
  static void deallocate(void* ptr) noexcept;

  [[nodiscard]] static Stats thread_stats() noexcept;
  static void reset_thread_stats() noexcept;

  /// Route this thread's allocations straight to the heap (freeing stays
  /// header-driven, so blocks cross the mode switch safely). This exists so
  /// bench/micro_exec can reproduce the pre-pool executor as its baseline;
  /// production code never sets it.
  static void set_thread_bypass(bool bypass) noexcept;
};

}  // namespace pt::clsim
