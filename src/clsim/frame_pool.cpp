#include "clsim/frame_pool.hpp"

#include <array>
#include <cstring>
#include <new>

namespace pt::clsim {

namespace {

/// Prefix stored in front of every block: the bucketed block size (header
/// included), or 0 for oversized blocks that bypass the pool. Padded to
/// max_align_t so the frame behind it keeps default new-alignment.
constexpr std::size_t kHeaderBytes = alignof(std::max_align_t);
static_assert(kHeaderBytes >= sizeof(std::size_t));
static_assert(FramePool::kGranularity % kHeaderBytes == 0);

/// Freed blocks are chained through their first pointer-sized bytes.
struct FreeNode {
  FreeNode* next;
};

constexpr std::size_t kBuckets =
    FramePool::kMaxPooledBytes / FramePool::kGranularity;

struct ThreadCache {
  std::array<FreeNode*, kBuckets> heads{};
  std::array<std::size_t, kBuckets> counts{};
  FramePool::Stats stats;
  bool bypass = false;

  ~ThreadCache() {
    for (FreeNode* node : heads) {
      while (node != nullptr) {
        FreeNode* next = node->next;
        ::operator delete(static_cast<void*>(node));
        node = next;
      }
    }
  }
};

ThreadCache& cache() noexcept {
  thread_local ThreadCache tc;
  return tc;
}

std::size_t read_header(void* raw) noexcept {
  std::size_t size = 0;
  std::memcpy(&size, raw, sizeof(size));
  return size;
}

void write_header(void* raw, std::size_t size) noexcept {
  std::memcpy(raw, &size, sizeof(size));
}

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  ThreadCache& tc = cache();
  ++tc.stats.allocations;
  const std::size_t total = bytes + kHeaderBytes;
  if (tc.bypass) {
    void* raw = ::operator new(total);
    write_header(raw, 0);
    return static_cast<char*>(raw) + kHeaderBytes;
  }
  if (total > kMaxPooledBytes) {
    ++tc.stats.oversized;
    void* raw = ::operator new(total);
    write_header(raw, 0);
    return static_cast<char*>(raw) + kHeaderBytes;
  }
  const std::size_t rounded =
      (total + kGranularity - 1) / kGranularity * kGranularity;
  const std::size_t bucket = rounded / kGranularity - 1;
  void* raw;  // NOLINT(cppcoreguidelines-init-variables)
  if (tc.heads[bucket] != nullptr) {
    FreeNode* node = tc.heads[bucket];
    tc.heads[bucket] = node->next;
    --tc.counts[bucket];
    ++tc.stats.reuses;
    raw = static_cast<void*>(node);
  } else {
    raw = ::operator new(rounded);
  }
  write_header(raw, rounded);
  return static_cast<char*>(raw) + kHeaderBytes;
}

void FramePool::deallocate(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* raw = static_cast<char*>(ptr) - kHeaderBytes;
  const std::size_t rounded = read_header(raw);
  if (rounded == 0) {
    ::operator delete(raw);
    return;
  }
  ThreadCache& tc = cache();
  const std::size_t bucket = rounded / kGranularity - 1;
  if (tc.counts[bucket] >= kMaxFreePerBucket) {
    ::operator delete(raw);
    return;
  }
  auto* node = static_cast<FreeNode*>(raw);
  node->next = tc.heads[bucket];
  tc.heads[bucket] = node;
  ++tc.counts[bucket];
}

FramePool::Stats FramePool::thread_stats() noexcept { return cache().stats; }

void FramePool::reset_thread_stats() noexcept { cache().stats = Stats{}; }

void FramePool::set_thread_bypass(bool bypass) noexcept {
  cache().bypass = bypass;
}

}  // namespace pt::clsim
