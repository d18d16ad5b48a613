// Tests for the runtime-dispatched kernel layer (core/kernels/):
//  * scalar and AVX2 backends agree bit-exactly on the integer kernels
//    (XOR/popcount, int8 dot) and to rounding tolerance on the float
//    kernels, on randomized inputs including non-multiple-of-64/8 tails;
//  * the fused cos_rbf_rows is self-consistent (rows=N vs N rows=1 calls),
//    which is what keeps encode() and encode_dims() coherent;
//  * predict/scores agree bit-exactly with predict_batch/scores_batch for
//    CyberHD and its quantized snapshots;
//  * concurrent const predict() calls are safe and deterministic (the
//    scratch-buffer race regression test).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/bitpack.hpp"
#include "core/kernels/kernels.hpp"
#include "core/matrix.hpp"
#include "core/quantize.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"

namespace cyberhd {
namespace {

const std::size_t kTailSizes[] = {0,  1,  3,   7,   8,   15,  16, 17,
                                  63, 64, 65,  100, 118, 127, 128, 130,
                                  512, 1000, 4099};

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> v(n);
  core::fill_gaussian(rng, v.data(), n, 0.0f, 1.0f);
  return v;
}

/// The AVX2 backend when this host can run it, else nullptr (tests that
/// need it GTEST_SKIP).
const core::Kernels* runnable_avx2() {
  return core::cpu_supports_avx2() ? core::avx2_kernels() : nullptr;
}

/// The AVX-512 backend when this host can run it, else nullptr.
const core::Kernels* runnable_avx512() {
  return core::cpu_supports_avx512() ? core::avx512_kernels() : nullptr;
}

TEST(KernelDispatch, ActiveBackendIsAlwaysValid) {
  const core::Kernels& k = core::active_kernels();
  ASSERT_NE(k.name, nullptr);
  ASSERT_NE(k.dot_f32, nullptr);
  ASSERT_NE(k.axpy_f32, nullptr);
  ASSERT_NE(k.mul_acc_f32, nullptr);
  ASSERT_NE(k.similarities_tile_f32, nullptr);
  ASSERT_NE(k.cos_rbf_rows, nullptr);
  ASSERT_NE(k.cos_rbf_tile_f32, nullptr);
  ASSERT_NE(k.xor_popcount_words, nullptr);
  ASSERT_NE(k.quantized_dot_i8, nullptr);
  ASSERT_NE(k.similarities_tile_i8, nullptr);
  ASSERT_NE(k.hamming_tile_1b, nullptr);
}

TEST(KernelParity, DotF32) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (std::size_t n : kTailSizes) {
    const auto a = gaussian_vec(n, 100 + n);
    const auto b = gaussian_vec(n, 200 + n);
    const float d_scalar = scalar.dot_f32(a.data(), b.data(), n);
    const float d_avx2 = avx2->dot_f32(a.data(), b.data(), n);
    // Backends reassociate the sum; bound the difference by a few ulps of
    // the accumulated magnitude sum_i |a_i b_i|.
    double mag = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mag += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    EXPECT_NEAR(d_scalar, d_avx2, 1e-6 * mag + 1e-6) << "n=" << n;
  }
}

TEST(KernelParity, AxpyAndMulAcc) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (std::size_t n : kTailSizes) {
    const auto a = gaussian_vec(n, 300 + n);
    const auto b = gaussian_vec(n, 400 + n);
    auto y1 = gaussian_vec(n, 500 + n);
    auto y2 = y1;
    scalar.axpy_f32(0.37f, a.data(), y1.data(), n);
    avx2->axpy_f32(0.37f, a.data(), y2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Elementwise: only mul+add vs fused-multiply-add rounding differs.
      EXPECT_NEAR(y1[i], y2[i], 1e-6f * (1.0f + std::abs(y1[i])))
          << "axpy n=" << n << " i=" << i;
    }
    auto acc1 = gaussian_vec(n, 600 + n);
    auto acc2 = acc1;
    scalar.mul_acc_f32(a.data(), b.data(), acc1.data(), n);
    avx2->mul_acc_f32(a.data(), b.data(), acc2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(acc1[i], acc2[i], 1e-6f * (1.0f + std::abs(acc1[i])))
          << "mul_acc n=" << n << " i=" << i;
    }
  }
}

TEST(KernelParity, XorPopcountWordsBitExact) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(7);
  for (std::size_t words :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{64},
        std::size_t{257}}) {
    std::vector<std::uint64_t> a(words), b(words);
    for (auto& w : a) w = rng.next_u64();
    for (auto& w : b) w = rng.next_u64();
    EXPECT_EQ(scalar.xor_popcount_words(a.data(), b.data(), words),
              avx2->xor_popcount_words(a.data(), b.data(), words))
        << "words=" << words;
  }
}

TEST(KernelParity, HammingOnPackedTailDims) {
  // PackedBits at dimensionalities straddling the 64-bit word boundary:
  // hamming() (whatever backend is active) must match a bit-by-bit count.
  for (std::size_t dims : {1u, 63u, 64u, 65u, 130u, 1000u, 4099u}) {
    const core::PackedBits a = core::pack_signs(gaussian_vec(dims, 900 + dims));
    const core::PackedBits b = core::pack_signs(gaussian_vec(dims, 901 + dims));
    std::size_t expected = 0;
    for (std::size_t i = 0; i < dims; ++i) {
      if (a.get(i) != b.get(i)) ++expected;
    }
    EXPECT_EQ(hamming(a, b), expected) << "dims=" << dims;
  }
}

TEST(KernelParity, QuantizedDotI8BitExact) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(11);
  for (std::size_t n : kTailSizes) {
    std::vector<std::int8_t> a(n), b(n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.next_below(256));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.next_below(256));
    EXPECT_EQ(scalar.quantized_dot_i8(a.data(), b.data(), n),
              avx2->quantized_dot_i8(a.data(), b.data(), n))
        << "n=" << n;
  }
  // Saturated worst case across the 32-bit accumulator chunk boundary.
  const std::size_t big = 16 * 32768 + 777;
  std::vector<std::int8_t> a(big, 127), b(big, 127);
  EXPECT_EQ(scalar.quantized_dot_i8(a.data(), b.data(), big),
            avx2->quantized_dot_i8(a.data(), b.data(), big));
  for (auto& v : b) v = -128;
  EXPECT_EQ(scalar.quantized_dot_i8(a.data(), b.data(), big),
            avx2->quantized_dot_i8(a.data(), b.data(), big));
}

// ---- the scoring tiles ------------------------------------------------------
// Every scoring tile reads its query rows through a row-pointer table.
// Each test below checks every runnable backend against the per-pair
// reference over the three kinds of table the serving driver builds:
//  * contiguous — h + r * stride, what the trainer and the contiguous
//    adapters pass;
//  * shuffled — a permutation ((r * 7 + 3) % rows permutes every tested
//    row count), what a mix of borrowed cache entries and staging rows
//    looks like;
//  * aliased — entries 2k and 2k + 1 both point at row 2k, what in-batch
//    duplicates produce (within the register block and in its tail).

enum class TableKind { kContiguous, kShuffled, kAliased };
constexpr TableKind kTableKinds[] = {TableKind::kContiguous,
                                     TableKind::kShuffled,
                                     TableKind::kAliased};

const char* table_name(TableKind kind) {
  switch (kind) {
    case TableKind::kContiguous:
      return "contiguous";
    case TableKind::kShuffled:
      return "shuffled";
    case TableKind::kAliased:
      return "aliased";
  }
  return "?";
}

/// A row table of `kind` over `rows` rows of `stride` elements at `base`.
template <class T>
std::vector<const T*> row_table(const T* base, std::size_t rows,
                                std::size_t stride, TableKind kind) {
  std::vector<const T*> tbl(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t src = r;
    if (kind == TableKind::kShuffled) src = (r * 7 + 3) % rows;
    if (kind == TableKind::kAliased) src = r - r % 2;
    tbl[r] = base + src * stride;
  }
  return tbl;
}

std::vector<const core::Kernels*> runnable_backends() {
  std::vector<const core::Kernels*> backends = {&core::scalar_kernels()};
  if (const core::Kernels* avx2 = runnable_avx2()) backends.push_back(avx2);
  if (const core::Kernels* avx512 = runnable_avx512()) {
    backends.push_back(avx512);
  }
  return backends;
}

/// Every backend's int8 tile must reproduce the scalar per-pair
/// quantized_dot_i8 bit-for-bit — all the math is exact integer, so unlike
/// the float tile there is no rounding latitude, on any backend including
/// the VNNI kernel when the avx512 table carries it. Rows straddle the
/// 4-row register block, dims the 16- and 64-lane vector widths and tails.
TEST(KernelTile, SimilaritiesTileI8MatchesPerPairDotExactly) {
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(21);
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t rows : {1u, 3u, 4u, 5u, 8u, 17u}) {
      for (std::size_t classes : {1u, 2u, 3u, 10u}) {
        for (std::size_t dims : {1u, 7u, 15u, 16u, 17u, 63u, 64u, 65u, 100u,
                                 118u, 130u, 512u, 1000u}) {
          std::vector<std::int8_t> h(rows * dims), cls(classes * dims);
          for (auto& v : h) {
            v = static_cast<std::int8_t>(rng.next_below(256));
          }
          for (auto& v : cls) {
            v = static_cast<std::int8_t>(rng.next_below(256));
          }
          for (TableKind kind : kTableKinds) {
            const auto tbl = row_table<std::int8_t>(h.data(), rows, dims, kind);
            std::vector<std::int64_t> out(rows * classes, -1);
            k->similarities_tile_i8(tbl.data(), rows, cls.data(), classes,
                                    dims, out.data());
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t c = 0; c < classes; ++c) {
                EXPECT_EQ(out[r * classes + c],
                          scalar.quantized_dot_i8(tbl[r],
                                                  cls.data() + c * dims, dims))
                    << k->name << " " << table_name(kind) << " rows=" << rows
                    << " classes=" << classes << " dims=" << dims
                    << " r=" << r << " c=" << c;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelTile, SimilaritiesTileI8SaturatedAccumulatorChunks) {
  // Saturated worst case across every backend's 32-bit accumulator chunk
  // boundary (AVX2 caps at 32768 rounds of 16 lanes, VNNI at 8192 rounds
  // of 64 — both 524288 dims), plus a ragged tail.
  const std::size_t big = 64 * 8192 + 77;
  const std::size_t rows = 5;
  std::vector<std::int8_t> h(rows * big, 127);
  std::vector<std::int8_t> cls(2 * big, 127);
  for (std::size_t i = big; i < 2 * big; ++i) {
    cls[i] = -128;
  }
  const auto tbl =
      row_table<std::int8_t>(h.data(), rows, big, TableKind::kContiguous);
  const core::Kernels& scalar = core::scalar_kernels();
  for (const core::Kernels* k : runnable_backends()) {
    std::vector<std::int64_t> out(rows * 2, 0);
    k->similarities_tile_i8(tbl.data(), rows, cls.data(), 2, big, out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(out[r * 2 + c],
                  scalar.quantized_dot_i8(h.data() + r * big,
                                          cls.data() + c * big, big))
            << k->name << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(KernelTile, HammingTile1bMatchesPerPairPopcountExactly) {
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(23);
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t rows : {1u, 3u, 4u, 5u, 8u, 17u}) {
      for (std::size_t classes : {1u, 2u, 3u, 10u}) {
        for (std::size_t words : {1u, 2u, 7u, 8u, 9u, 31u, 64u, 257u}) {
          std::vector<std::uint64_t> h(rows * words), cls(classes * words);
          for (auto& w : h) w = rng.next_u64();
          for (auto& w : cls) w = rng.next_u64();
          for (TableKind kind : kTableKinds) {
            const auto tbl =
                row_table<std::uint64_t>(h.data(), rows, words, kind);
            std::vector<std::uint32_t> out(rows * classes, 0xffffffffu);
            k->hamming_tile_1b(tbl.data(), rows, cls.data(), classes, words,
                               out.data());
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t c = 0; c < classes; ++c) {
                EXPECT_EQ(out[r * classes + c],
                          static_cast<std::uint32_t>(scalar.xor_popcount_words(
                              tbl[r], cls.data() + c * words, words)))
                    << k->name << " " << table_name(kind) << " rows=" << rows
                    << " classes=" << classes << " words=" << words
                    << " r=" << r << " c=" << c;
              }
            }
          }
        }
      }
    }
  }
}

// ---- AVX-512 backend parity ------------------------------------------------

TEST(KernelParity, Avx512FloatKernels) {
  const core::Kernels* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "AVX-512 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (std::size_t n : kTailSizes) {
    const auto a = gaussian_vec(n, 700 + n);
    const auto b = gaussian_vec(n, 800 + n);
    const float d_scalar = scalar.dot_f32(a.data(), b.data(), n);
    const float d_avx512 = avx512->dot_f32(a.data(), b.data(), n);
    double mag = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mag += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    EXPECT_NEAR(d_scalar, d_avx512, 1e-6 * mag + 1e-6) << "dot n=" << n;

    auto y1 = gaussian_vec(n, 810 + n);
    auto y2 = y1;
    scalar.axpy_f32(0.37f, a.data(), y1.data(), n);
    avx512->axpy_f32(0.37f, a.data(), y2.data(), n);
    auto acc1 = gaussian_vec(n, 820 + n);
    auto acc2 = acc1;
    scalar.mul_acc_f32(a.data(), b.data(), acc1.data(), n);
    avx512->mul_acc_f32(a.data(), b.data(), acc2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y1[i], y2[i], 1e-6f * (1.0f + std::abs(y1[i])))
          << "axpy n=" << n << " i=" << i;
      EXPECT_NEAR(acc1[i], acc2[i], 1e-6f * (1.0f + std::abs(acc1[i])))
          << "mul_acc n=" << n << " i=" << i;
    }
  }
}

TEST(KernelParity, Avx512XorPopcountBitExact) {
  const core::Kernels* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "AVX-512 unavailable on this host";
  // Parity must hold whether the table carries the VPOPCNTDQ kernel or the
  // inherited avx2 nibble-LUT (both are exact integer kernels).
  const core::Kernels& scalar = core::scalar_kernels();
  core::Rng rng(13);
  for (std::size_t words :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{257}}) {
    std::vector<std::uint64_t> a(words), b(words);
    for (auto& w : a) w = rng.next_u64();
    for (auto& w : b) w = rng.next_u64();
    EXPECT_EQ(scalar.xor_popcount_words(a.data(), b.data(), words),
              avx512->xor_popcount_words(a.data(), b.data(), words))
        << "words=" << words;
  }
}

// ---- the blocked similarity tile -------------------------------------------

/// Every backend's float tile must reproduce its own dot_f32 per (row,
/// class) pair bit-for-bit — the contract HdcModel::similarities_into and
/// the minibatch trainer build their "batching never changes results"
/// guarantee on. Row counts straddle the 4-row register block, dims the
/// SIMD widths and tails.
TEST(KernelTile, MatchesPerPairDotBitExactly) {
  for (const core::Kernels* k : runnable_backends()) {
    for (std::size_t rows : {1u, 3u, 4u, 5u, 8u, 17u}) {
      for (std::size_t classes : {1u, 2u, 3u, 10u}) {
        for (std::size_t dims :
             {1u, 7u, 8u, 16u, 17u, 31u, 65u, 100u, 118u, 130u, 512u}) {
          const auto h = gaussian_vec(rows * dims, 40 + rows * dims);
          const auto cls = gaussian_vec(classes * dims, 50 + classes * dims);
          for (TableKind kind : kTableKinds) {
            const auto tbl = row_table<float>(h.data(), rows, dims, kind);
            std::vector<float> out(rows * classes, -1.0f);
            k->similarities_tile_f32(tbl.data(), rows, cls.data(), classes,
                                     dims, out.data());
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t c = 0; c < classes; ++c) {
                EXPECT_EQ(out[r * classes + c],
                          k->dot_f32(tbl[r], cls.data() + c * dims, dims))
                    << k->name << " " << table_name(kind) << " rows=" << rows
                    << " classes=" << classes << " dims=" << dims
                    << " r=" << r << " c=" << c;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelParity, CosRbfRows) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const core::Kernels& scalar = core::scalar_kernels();
  for (std::size_t rows : {1u, 5u, 8u, 9u, 16u, 17u, 64u}) {
    for (std::size_t cols : {1u, 3u, 24u, 118u}) {
      const auto bases = gaussian_vec(rows * cols, 1000 + rows * cols);
      const auto x = gaussian_vec(cols, 2000 + cols);
      auto biases = gaussian_vec(rows, 3000 + rows);
      for (auto& v : biases) v *= 3.0f;
      std::vector<float> h_scalar(rows), h_avx2(rows), h_rowwise(rows);
      scalar.cos_rbf_rows(bases.data(), rows, cols, x.data(), biases.data(),
                          h_scalar.data());
      avx2->cos_rbf_rows(bases.data(), rows, cols, x.data(), biases.data(),
                         h_avx2.data());
      for (std::size_t r = 0; r < rows; ++r) {
        avx2->cos_rbf_rows(bases.data() + r * cols, 1, cols, x.data(),
                           &biases[r], &h_rowwise[r]);
      }
      for (std::size_t r = 0; r < rows; ++r) {
        // Scalar libm vs the AVX2 polynomial cosine plus dot reassociation:
        // a few float ulps on an output bounded to [-1, 1].
        EXPECT_NEAR(h_scalar[r], h_avx2[r], 5e-5)
            << "rows=" << rows << " cols=" << cols << " r=" << r;
        // Within one backend, batched and row-at-a-time must be identical.
        EXPECT_EQ(h_avx2[r], h_rowwise[r])
            << "rows=" << rows << " cols=" << cols << " r=" << r;
      }
    }
  }
}

TEST(KernelParity, CosRbfRowsHugeAngleFallsBackToLibm) {
  const core::Kernels* avx2 = runnable_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  // An angle far outside the polynomial's reduction range must still come
  // back accurate (the backend re-does those lanes with std::cos).
  const float base[] = {30000.0f, 1.0f};
  const float x[] = {1.0f, 0.0f};
  const float bias[] = {0.25f, 0.0f};
  float h[2] = {0.0f, 0.0f};
  avx2->cos_rbf_rows(base, 2, 1, x, bias, h);
  EXPECT_NEAR(h[0], std::cos(30000.0f + 0.25f), 1e-5);
  EXPECT_NEAR(h[1], std::cos(1.0f), 1e-6);
}

// ---- the multi-flow RBF encode tile ----------------------------------------

/// Every backend's encode tile must reproduce its own per-flow
/// cos_rbf_rows bit-for-bit — the contract the batched encode path (cache
/// miss batches, encode_batch, the streamed trainer) builds its
/// "tiling never changes encodings" guarantee on. Flow counts straddle the
/// 4-flow register block, base-row counts the 8-lane cosine epilogue
/// groups, cols the dot kernel's 16/8-lane chunks and scalar tail. The
/// output is written at h_stride > rows — the interior-panel shape — and
/// the pad bytes between rows and h_stride must come back untouched.
TEST(KernelTile, CosRbfTileMatchesPerFlowRowsBitExactly) {
  std::vector<const core::Kernels*> backends = {&core::scalar_kernels()};
  if (const core::Kernels* avx2 = runnable_avx2()) backends.push_back(avx2);
  if (const core::Kernels* avx512 = runnable_avx512()) {
    backends.push_back(avx512);
  }
  for (const core::Kernels* k : backends) {
    for (std::size_t flows : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 17u}) {
      for (std::size_t rows : {1u, 5u, 8u, 16u, 17u, 100u}) {
        for (std::size_t cols : {1u, 3u, 24u, 118u}) {
          const auto bases = gaussian_vec(rows * cols, 5000 + rows * cols);
          const auto x = gaussian_vec(flows * cols, 6000 + flows * cols);
          auto biases = gaussian_vec(rows, 7000 + rows);
          for (auto& v : biases) v *= 3.0f;
          const std::size_t h_stride = rows + 5;
          std::vector<float> h_tile(flows * h_stride, -2.0f);
          k->cos_rbf_tile_f32(bases.data(), rows, cols, x.data(), flows,
                              cols, biases.data(), h_tile.data(), h_stride);
          std::vector<float> h_row(rows);
          for (std::size_t f = 0; f < flows; ++f) {
            k->cos_rbf_rows(bases.data(), rows, cols, x.data() + f * cols,
                            biases.data(), h_row.data());
            for (std::size_t r = 0; r < rows; ++r) {
              EXPECT_EQ(h_tile[f * h_stride + r], h_row[r])
                  << k->name << " flows=" << flows << " rows=" << rows
                  << " cols=" << cols << " f=" << f << " r=" << r;
            }
            for (std::size_t r = rows; r < h_stride; ++r) {
              EXPECT_EQ(h_tile[f * h_stride + r], -2.0f)
                  << k->name << " pad overwritten at f=" << f << " r=" << r;
            }
          }
        }
      }
    }
  }
}

TEST(KernelTile, CosRbfTilePanelDecompositionIsExact) {
  // The encoder walks D in cache-sized panels, pointing the kernel at
  // bases + p * cols, biases + p, h + p per panel. Panel boundaries must
  // be invisible: any split — including a ragged tail panel when D is not
  // a multiple of the panel size — reassembles the one-shot tile result
  // bit-for-bit on every backend.
  std::vector<const core::Kernels*> backends = {&core::scalar_kernels()};
  if (const core::Kernels* avx2 = runnable_avx2()) backends.push_back(avx2);
  if (const core::Kernels* avx512 = runnable_avx512()) {
    backends.push_back(avx512);
  }
  const std::size_t dims = 53;  // not a multiple of any panel below
  const std::size_t cols = 24;
  const std::size_t flows = 6;
  const auto bases = gaussian_vec(dims * cols, 8100);
  const auto x = gaussian_vec(flows * cols, 8200);
  auto biases = gaussian_vec(dims, 8300);
  for (auto& v : biases) v *= 3.0f;
  for (const core::Kernels* k : backends) {
    std::vector<float> whole(flows * dims, -2.0f);
    k->cos_rbf_tile_f32(bases.data(), dims, cols, x.data(), flows, cols,
                        biases.data(), whole.data(), dims);
    for (std::size_t panel : {1u, 8u, 16u, 32u}) {
      std::vector<float> split(flows * dims, -3.0f);
      for (std::size_t p = 0; p < dims; p += panel) {
        const std::size_t pr = std::min(panel, dims - p);
        k->cos_rbf_tile_f32(bases.data() + p * cols, pr, cols, x.data(),
                            flows, cols, biases.data() + p,
                            split.data() + p, dims);
      }
      for (std::size_t i = 0; i < split.size(); ++i) {
        EXPECT_EQ(split[i], whole[i])
            << k->name << " panel=" << panel << " i=" << i;
      }
    }
  }
}

TEST(KernelTile, CosRbfTileHonorsFlowStride) {
  // Flows handed to the kernel straight out of a wider row layout
  // (x_stride > cols): only the first `cols` entries of each flow row may
  // participate — the pad columns are garbage on purpose.
  std::vector<const core::Kernels*> backends = {&core::scalar_kernels()};
  if (const core::Kernels* avx2 = runnable_avx2()) backends.push_back(avx2);
  if (const core::Kernels* avx512 = runnable_avx512()) {
    backends.push_back(avx512);
  }
  const std::size_t rows = 19;
  const std::size_t cols = 118;
  const std::size_t flows = 5;
  const std::size_t x_stride = cols + 7;
  const auto bases = gaussian_vec(rows * cols, 8400);
  const auto x = gaussian_vec(flows * x_stride, 8500);
  auto biases = gaussian_vec(rows, 8600);
  for (auto& v : biases) v *= 3.0f;
  for (const core::Kernels* k : backends) {
    std::vector<float> h_tile(flows * rows, -2.0f);
    k->cos_rbf_tile_f32(bases.data(), rows, cols, x.data(), flows, x_stride,
                        biases.data(), h_tile.data(), rows);
    std::vector<float> h_row(rows);
    for (std::size_t f = 0; f < flows; ++f) {
      k->cos_rbf_rows(bases.data(), rows, cols, x.data() + f * x_stride,
                      biases.data(), h_row.data());
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(h_tile[f * rows + r], h_row[r])
            << k->name << " f=" << f << " r=" << r;
      }
    }
  }
}

// ---- batch inference parity ------------------------------------------------

struct TrainedFixture {
  core::Matrix x{180, 6};
  std::vector<int> y = std::vector<int>(180);
  hdc::CyberHdClassifier model;

  explicit TrainedFixture(hdc::EncoderKind kind, bool parallel)
      : model(config(kind, parallel)) {
    core::Rng rng(17);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < x.cols(); ++f) {
        x(i, f) = 0.4f * static_cast<float>(cls) +
                  static_cast<float>(rng.gaussian(0.0, 0.08));
      }
      y[i] = cls;
    }
    model.fit(x, y, 3);
  }

  static hdc::CyberHdConfig config(hdc::EncoderKind kind, bool parallel) {
    hdc::CyberHdConfig cfg;
    cfg.dims = 128;
    cfg.encoder = kind;
    cfg.regen_steps = 4;
    cfg.final_epochs = 3;
    cfg.parallel = parallel;
    return cfg;
  }
};

class BatchParity
    : public ::testing::TestWithParam<std::tuple<hdc::EncoderKind, bool>> {};

TEST_P(BatchParity, PredictBatchMatchesPredictLoop) {
  const auto [kind, parallel] = GetParam();
  const TrainedFixture t(kind, parallel);
  std::vector<int> batched(t.x.rows());
  t.model.predict_batch(t.x, batched);
  for (std::size_t i = 0; i < t.x.rows(); ++i) {
    EXPECT_EQ(batched[i], t.model.predict(t.x.row(i))) << "row " << i;
  }
}

TEST_P(BatchParity, ScoresBatchMatchesScoresBitExactly) {
  const auto [kind, parallel] = GetParam();
  const TrainedFixture t(kind, parallel);
  core::Matrix batched;
  t.model.scores_batch(t.x, batched);
  ASSERT_EQ(batched.rows(), t.x.rows());
  ASSERT_EQ(batched.cols(), 3u);
  std::vector<float> single(3);
  for (std::size_t i = 0; i < t.x.rows(); ++i) {
    t.model.scores(t.x.row(i), single);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(batched(i, c), single[c]) << "row " << i << " class " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BatchParity,
    ::testing::Combine(::testing::Values(hdc::EncoderKind::kRbf,
                                         hdc::EncoderKind::kSignProjection,
                                         hdc::EncoderKind::kIdLevel),
                       ::testing::Bool()));

TEST(QuantizedBatchParity, PredictBatchMatchesLoopAtAllBitwidths) {
  const TrainedFixture t(hdc::EncoderKind::kRbf, /*parallel=*/true);
  for (int bits : core::kSupportedBitwidths) {
    const hdc::QuantizedCyberHd q(t.model, bits);
    std::vector<int> batched(t.x.rows());
    q.predict_batch(t.x, batched);
    core::Matrix scores_batched;
    q.scores_batch(t.x, scores_batched);
    std::vector<float> single(q.num_classes());
    for (std::size_t i = 0; i < t.x.rows(); ++i) {
      EXPECT_EQ(batched[i], q.predict(t.x.row(i)))
          << "bits=" << bits << " row " << i;
      q.scores(t.x.row(i), single);
      for (std::size_t c = 0; c < single.size(); ++c) {
        EXPECT_EQ(scores_batched(i, c), single[c])
            << "bits=" << bits << " row " << i << " class " << c;
      }
    }
  }
}

TEST(QuantizedBatchParity, Int8FastPathMatchesCosineQuantized) {
  // The SIMD int8 scoring path must reproduce the reference
  // cosine_quantized() result bit-for-bit at every sub-byte bitwidth.
  const TrainedFixture t(hdc::EncoderKind::kRbf, /*parallel=*/false);
  for (int bits : {2, 4, 8}) {
    const hdc::QuantizedHdcModel qm(t.model.model(), bits);
    std::vector<float> h(t.model.physical_dims());
    t.model.encode(t.x.row(0), h);
    std::vector<float> scores(qm.num_classes());
    qm.similarities(h, scores);
    const core::QuantizedVector q = core::quantize(h, bits);
    for (std::size_t c = 0; c < qm.num_classes(); ++c) {
      EXPECT_EQ(scores[c], core::cosine_quantized(q, qm.level_classes()[c]))
          << "bits=" << bits << " class " << c;
    }
  }
}

TEST(ConcurrentPredict, ConstCallsFromManyThreadsAreDeterministic) {
  // Regression for the mutable-scratch race: concurrent const predict()
  // and scores() calls must produce exactly the serial results.
  const TrainedFixture t(hdc::EncoderKind::kRbf, /*parallel=*/false);
  std::vector<int> expected(t.x.rows());
  for (std::size_t i = 0; i < t.x.rows(); ++i) {
    expected[i] = t.model.predict(t.x.row(i));
  }
  const std::size_t kThreads = 8;
  std::vector<std::vector<int>> results(kThreads,
                                        std::vector<int>(t.x.rows()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = 0; i < t.x.rows(); ++i) {
        results[w][i] = t.model.predict(t.x.row(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t w = 0; w < kThreads; ++w) {
    EXPECT_EQ(results[w], expected) << "thread " << w;
  }
}

}  // namespace
}  // namespace cyberhd
