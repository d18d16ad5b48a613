// Pins the tentpole contract of the zero-copy serving work: after warmup,
// a steady-state serving flush performs ZERO heap allocations — across
// cache routing (flat workspace arrays), stage 1 (borrowed hits, misses
// into reused staging), and stage 2 (workspace accumulator tiles, gather
// scoring straight out of the ring).
//
// The probe is a counting replacement of the global allocation functions:
// an atomic flag arms a counter around exactly the flush under test. The
// whole apparatus is compiled out under ASan/TSan — the sanitizers must
// keep their own operator new interposed — so the CI sanitize legs run
// this file as a plain (skipped-assertion) determinism pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CYBERHD_ZERO_ALLOC_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CYBERHD_ZERO_ALLOC_DISABLED 1
#endif
#endif

#ifndef CYBERHD_ZERO_ALLOC_DISABLED

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

inline void count_alloc() noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a) {
  count_alloc();
  void* p = nullptr;
  const std::size_t align =
      std::max(static_cast<std::size_t>(a), sizeof(void*));
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // !CYBERHD_ZERO_ALLOC_DISABLED

namespace cyberhd::hdc {
namespace {

/// A small trained classifier, serial execution (the steady-state contract
/// is per serving thread; the pool's own scheduling is out of scope), and
/// a query batch with in-batch replays — ServingFixture's shape.
struct ZeroAllocFixture {
  core::Matrix train{150, 5};
  std::vector<int> y = std::vector<int>(150);
  core::Matrix queries{128, 5};
  CyberHdClassifier model;

  ZeroAllocFixture() : model(config()) {
    core::Rng rng(17);
    for (std::size_t i = 0; i < train.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < train.cols(); ++f) {
        train(i, f) = 0.4f * static_cast<float>(cls) +
                      static_cast<float>(rng.gaussian(0.0, 0.08));
      }
      y[i] = cls;
    }
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t f = 0; f < queries.cols(); ++f) {
        queries(i, f) = 0.4f * static_cast<float>(i % 3) +
                        static_cast<float>(rng.gaussian(0.0, 0.08));
        queries(i + 64, f) = queries(i, f);
      }
    }
    model.fit(train, y, 3);
  }

  static CyberHdConfig config() {
    CyberHdConfig cfg;
    cfg.dims = 128;
    cfg.regen_steps = 2;
    cfg.final_epochs = 2;
    cfg.parallel = false;
    return cfg;
  }
};

/// Heap allocations performed by `flush()` after two warmup passes grow
/// every workspace to steady-state capacity. Returns 0 unconditionally on
/// sanitizer builds (the counting hooks are compiled out).
template <typename Fn>
std::uint64_t allocations_in_steady_state(Fn&& flush) {
  flush();
  flush();
#ifndef CYBERHD_ZERO_ALLOC_DISABLED
  g_allocs.store(0);
  g_counting.store(true);
  flush();
  g_counting.store(false);
  return g_allocs.load();
#else
  flush();
  return 0;
#endif
}

TEST(ZeroAlloc, FloatServingFlushIsAllocationFree) {
  ZeroAllocFixture t;
  // 1024: capacity >= working set, so the warm flush is all borrowed hits.
  // 0: cache off, every row encodes into staging behind a trivial row
  // table — the table must come from reused scratch too.
  for (const std::size_t capacity : {std::size_t{1024}, std::size_t{0}}) {
    t.model.set_encode_cache(capacity);
    core::Matrix out;
    // Always 0 on sanitizer builds, where the counting hooks are out.
    EXPECT_EQ(allocations_in_steady_state(
                  [&] { t.model.scores_batch(t.queries, out); }),
              0u)
        << "encode cache capacity " << capacity;
  }
#ifdef CYBERHD_ZERO_ALLOC_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
}

TEST(ZeroAlloc, Quantized1BitServingFlushIsAllocationFree) {
  ZeroAllocFixture t;
  QuantizedCyberHd q(t.model, 1);
  q.set_encode_cache(1024);
  core::Matrix out;
  const std::uint64_t allocs = allocations_in_steady_state(
      [&] { q.scores_batch(t.queries, out); });
#ifdef CYBERHD_ZERO_ALLOC_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  EXPECT_EQ(allocs, 0u);
#endif
}

TEST(ZeroAlloc, Quantized8BitServingFlushIsAllocationFree) {
  ZeroAllocFixture t;
  QuantizedCyberHd q(t.model, 8);
  q.set_encode_cache(1024);
  core::Matrix out;
  const std::uint64_t allocs = allocations_in_steady_state(
      [&] { q.scores_batch(t.queries, out); });
#ifdef CYBERHD_ZERO_ALLOC_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  EXPECT_EQ(allocs, 0u);
#endif
}

}  // namespace
}  // namespace cyberhd::hdc
