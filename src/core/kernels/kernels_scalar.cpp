// Portable scalar backend — the reference semantics of every kernel.
//
// The float loops are ported verbatim from the pre-kernel implementations
// (core/matrix.cpp, hdc/encoder.cpp, core/bitpack.cpp), so a scalar-selected
// build reproduces the library's historical numerics bit-for-bit.
#include <bit>
#include <cmath>

#include "core/kernels/kernels.hpp"

namespace cyberhd::core {
namespace {

float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  // Four accumulators to break the dependency chain; gcc vectorizes this.
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

void axpy_f32_scalar(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void mul_acc_f32_scalar(const float* a, const float* b, float* acc,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += a[i] * b[i];
}

void similarities_tile_f32_scalar(const float* const* h_rows,
                                  std::size_t rows, const float* classes,
                                  std::size_t num_classes, std::size_t dims,
                                  float* out) {
  // Reference semantics: one dot per (row, class) pair, each in dot_f32's
  // accumulation order. SIMD backends block over rows for locality but
  // must reproduce exactly these per-pair values.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] =
          dot_f32_scalar(h_rows[r], classes + c * dims, dims);
    }
  }
}

void cos_rbf_rows_scalar(const float* bases, std::size_t rows,
                         std::size_t cols, const float* x, const float* biases,
                         float* h) {
  for (std::size_t r = 0; r < rows; ++r) {
    h[r] = std::cos(dot_f32_scalar(bases + r * cols, x, cols) + biases[r]);
  }
}

void cos_rbf_tile_f32_scalar(const float* bases, std::size_t rows,
                             std::size_t cols, const float* x,
                             std::size_t num_x, std::size_t x_stride,
                             const float* biases, float* h,
                             std::size_t h_stride) {
  // Reference semantics: per (flow, base) pair exactly the cos_rbf_rows
  // expression. SIMD backends block over flows for base-row reuse but must
  // reproduce exactly these per-pair values.
  for (std::size_t f = 0; f < num_x; ++f) {
    const float* xf = x + f * x_stride;
    float* hf = h + f * h_stride;
    for (std::size_t r = 0; r < rows; ++r) {
      hf[r] =
          std::cos(dot_f32_scalar(bases + r * cols, xf, cols) + biases[r]);
    }
  }
}

std::size_t xor_popcount_words_scalar(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return count;
}

std::int64_t quantized_dot_i8_scalar(const std::int8_t* a,
                                     const std::int8_t* b, std::size_t n) {
  std::int64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<std::int64_t>(a[i]) * b[i];
  }
  return s;
}

void similarities_tile_i8_scalar(const std::int8_t* const* h_rows,
                                 std::size_t rows,
                                 const std::int8_t* classes,
                                 std::size_t num_classes, std::size_t dims,
                                 std::int64_t* out) {
  // Reference semantics: one exact integer dot per (row, class) pair.
  // SIMD backends may block and reassociate freely — integer sums are
  // order-independent, so exact equality is the contract, not a tolerance.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] =
          quantized_dot_i8_scalar(h_rows[r], classes + c * dims, dims);
    }
  }
}

void hamming_tile_1b_scalar(const std::uint64_t* const* h_rows,
                            std::size_t rows, const std::uint64_t* classes,
                            std::size_t num_classes, std::size_t words,
                            std::uint32_t* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] = static_cast<std::uint32_t>(
          xor_popcount_words_scalar(h_rows[r], classes + c * words, words));
    }
  }
}

constexpr Kernels kScalarKernels = {
    .name = "scalar",
    .dot_f32 = dot_f32_scalar,
    .axpy_f32 = axpy_f32_scalar,
    .mul_acc_f32 = mul_acc_f32_scalar,
    .similarities_tile_f32 = similarities_tile_f32_scalar,
    .cos_rbf_rows = cos_rbf_rows_scalar,
    .cos_rbf_tile_f32 = cos_rbf_tile_f32_scalar,
    .xor_popcount_words = xor_popcount_words_scalar,
    .quantized_dot_i8 = quantized_dot_i8_scalar,
    .similarities_tile_i8 = similarities_tile_i8_scalar,
    .hamming_tile_1b = hamming_tile_1b_scalar,
};

}  // namespace

const Kernels& scalar_kernels() noexcept { return kScalarKernels; }

}  // namespace cyberhd::core
