// AVX2+FMA backend.
//
// Compiled via per-function target attributes, so no special -m flags are
// needed and the translation unit is safe to build into a portable binary:
// nothing here executes unless the runtime dispatcher saw AVX2+FMA in
// CPUID (kernels.cpp).
//
// The fused RBF encode uses an 8-lane polynomial cosine (the classic
// Cephes/cosf reduction: octant selection, 3-part extended-precision pi/4
// subtraction, then a degree-4 minimax polynomial per octant). It is
// accurate to a couple of float ulps for |angle| < 8192; lanes beyond that
// range fall back to libm per lane, so results stay sane even for
// degenerate lengthscales. Every lane is computed independently of its
// neighbours, which keeps cos_rbf_rows(rows=N) bit-identical to N rows=1
// calls — the consistency encode()/encode_dims() relies on.
#include "core/kernels/kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

#define CYBERHD_AVX2 __attribute__((target("avx2,fma")))

namespace cyberhd::core {
namespace {

CYBERHD_AVX2 inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

CYBERHD_AVX2 float dot_f32_avx2(const float* a, const float* b,
                                std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float sum = hsum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

// Register-blocked similarity tile: 4 query rows advance together against
// one class row, so each class load is amortized across 4 dots. Every dot
// keeps its own (acc0, acc1) pair and walks dims in exactly dot_f32_avx2's
// order — the out entries are bit-identical to per-pair dot_f32 calls,
// which is the contract HdcModel::similarities_into relies on. The 4-row
// body takes explicit row pointers: the tile reads them from its pointer
// table, so a block's rows may live anywhere (or be one aliased row).
CYBERHD_AVX2 inline void sim_tile_f32_block4_avx2(
    const float* h0, const float* h1, const float* h2, const float* h3,
    const float* classes, std::size_t num_classes, std::size_t dims,
    float* out_block) {
  for (std::size_t c = 0; c < num_classes; ++c) {
    const float* cls = classes + c * dims;
    __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
    __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
    __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
    __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= dims; i += 16) {
      const __m256 v0 = _mm256_loadu_ps(cls + i);
      const __m256 v1 = _mm256_loadu_ps(cls + i + 8);
      a00 = _mm256_fmadd_ps(_mm256_loadu_ps(h0 + i), v0, a00);
      a01 = _mm256_fmadd_ps(_mm256_loadu_ps(h0 + i + 8), v1, a01);
      a10 = _mm256_fmadd_ps(_mm256_loadu_ps(h1 + i), v0, a10);
      a11 = _mm256_fmadd_ps(_mm256_loadu_ps(h1 + i + 8), v1, a11);
      a20 = _mm256_fmadd_ps(_mm256_loadu_ps(h2 + i), v0, a20);
      a21 = _mm256_fmadd_ps(_mm256_loadu_ps(h2 + i + 8), v1, a21);
      a30 = _mm256_fmadd_ps(_mm256_loadu_ps(h3 + i), v0, a30);
      a31 = _mm256_fmadd_ps(_mm256_loadu_ps(h3 + i + 8), v1, a31);
    }
    for (; i + 8 <= dims; i += 8) {
      const __m256 v0 = _mm256_loadu_ps(cls + i);
      a00 = _mm256_fmadd_ps(_mm256_loadu_ps(h0 + i), v0, a00);
      a10 = _mm256_fmadd_ps(_mm256_loadu_ps(h1 + i), v0, a10);
      a20 = _mm256_fmadd_ps(_mm256_loadu_ps(h2 + i), v0, a20);
      a30 = _mm256_fmadd_ps(_mm256_loadu_ps(h3 + i), v0, a30);
    }
    float s0 = hsum8(_mm256_add_ps(a00, a01));
    float s1 = hsum8(_mm256_add_ps(a10, a11));
    float s2 = hsum8(_mm256_add_ps(a20, a21));
    float s3 = hsum8(_mm256_add_ps(a30, a31));
    for (; i < dims; ++i) {
      const float v = cls[i];
      s0 += h0[i] * v;
      s1 += h1[i] * v;
      s2 += h2[i] * v;
      s3 += h3[i] * v;
    }
    out_block[0 * num_classes + c] = s0;
    out_block[1 * num_classes + c] = s1;
    out_block[2 * num_classes + c] = s2;
    out_block[3 * num_classes + c] = s3;
  }
}

CYBERHD_AVX2 void similarities_tile_f32_avx2(const float* const* h_rows,
                                             std::size_t rows,
                                             const float* classes,
                                             std::size_t num_classes,
                                             std::size_t dims, float* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    sim_tile_f32_block4_avx2(h_rows[r + 0], h_rows[r + 1], h_rows[r + 2],
                             h_rows[r + 3], classes, num_classes, dims,
                             out + r * num_classes);
  }
  for (; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] =
          dot_f32_avx2(h_rows[r], classes + c * dims, dims);
    }
  }
}

CYBERHD_AVX2 void axpy_f32_avx2(float alpha, const float* x, float* y,
                                std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r =
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, r);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

CYBERHD_AVX2 void mul_acc_f32_avx2(const float* a, const float* b, float* acc,
                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = _mm256_fmadd_ps(
        _mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
        _mm256_loadu_ps(acc + i));
    _mm256_storeu_ps(acc + i, r);
  }
  for (; i < n; ++i) acc[i] += a[i] * b[i];
}

// 8-lane cosine, Cephes cosf ported to AVX2 (cf. the public-domain
// sse_mathfun). Valid reduction range |x| < 8192.
CYBERHD_AVX2 inline __m256 cos8(__m256 x) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 four_over_pi = _mm256_set1_ps(1.27323954473516f);
  const __m256 dp1 = _mm256_set1_ps(-0.78515625f);
  const __m256 dp2 = _mm256_set1_ps(-2.4187564849853515625e-4f);
  const __m256 dp3 = _mm256_set1_ps(-3.77489497744594108e-8f);

  x = _mm256_and_ps(x, abs_mask);

  // Octant index j = round-to-even-ish of x / (pi/4).
  __m256i j = _mm256_cvttps_epi32(_mm256_mul_ps(x, four_over_pi));
  j = _mm256_add_epi32(j, _mm256_set1_epi32(1));
  j = _mm256_and_si256(j, _mm256_set1_epi32(~1));
  const __m256 y = _mm256_cvtepi32_ps(j);
  j = _mm256_sub_epi32(j, _mm256_set1_epi32(2));

  // Sign of the result and which polynomial (sin vs cos) per octant.
  __m256i sign_i = _mm256_andnot_si256(j, _mm256_set1_epi32(4));
  sign_i = _mm256_slli_epi32(sign_i, 29);
  const __m256 poly_mask = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(j, _mm256_set1_epi32(2)), _mm256_setzero_si256()));
  const __m256 sign = _mm256_castsi256_ps(sign_i);

  // Extended-precision argument reduction: x - j * pi/4 in three parts.
  x = _mm256_fmadd_ps(y, dp1, x);
  x = _mm256_fmadd_ps(y, dp2, x);
  x = _mm256_fmadd_ps(y, dp3, x);
  const __m256 z = _mm256_mul_ps(x, x);

  // Cosine polynomial on [-pi/4, pi/4].
  __m256 yc = _mm256_set1_ps(2.443315711809948e-5f);
  yc = _mm256_fmadd_ps(yc, z, _mm256_set1_ps(-1.388731625493765e-3f));
  yc = _mm256_fmadd_ps(yc, z, _mm256_set1_ps(4.166664568298827e-2f));
  yc = _mm256_mul_ps(_mm256_mul_ps(yc, z), z);
  yc = _mm256_fnmadd_ps(_mm256_set1_ps(0.5f), z, yc);
  yc = _mm256_add_ps(yc, _mm256_set1_ps(1.0f));

  // Sine polynomial on [-pi/4, pi/4].
  __m256 ys = _mm256_set1_ps(-1.9515295891e-4f);
  ys = _mm256_fmadd_ps(ys, z, _mm256_set1_ps(8.3321608736e-3f));
  ys = _mm256_fmadd_ps(ys, z, _mm256_set1_ps(-1.6666654611e-1f));
  ys = _mm256_mul_ps(ys, _mm256_mul_ps(z, x));
  ys = _mm256_add_ps(ys, x);

  const __m256 r = _mm256_or_ps(_mm256_and_ps(poly_mask, ys),
                                _mm256_andnot_ps(poly_mask, yc));
  return _mm256_xor_ps(r, sign);
}

CYBERHD_AVX2 void cos_rbf_rows_avx2(const float* bases, std::size_t rows,
                                    std::size_t cols, const float* x,
                                    const float* biases, float* h) {
  // Beyond this the 3-part reduction in cos8 loses the argument; those
  // (pathological-lengthscale) lanes take libm instead.
  const __m256 range = _mm256_set1_ps(8192.0f);
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  alignas(32) float angle[8];
  alignas(32) float value[8];
  for (std::size_t r = 0; r < rows; r += 8) {
    const std::size_t m = std::min<std::size_t>(8, rows - r);
    for (std::size_t k = 0; k < m; ++k) {
      angle[k] = dot_f32_avx2(bases + (r + k) * cols, x, cols) + biases[r + k];
    }
    for (std::size_t k = m; k < 8; ++k) angle[k] = 0.0f;
    const __m256 t = _mm256_load_ps(angle);
    _mm256_store_ps(value, cos8(t));
    const int out_of_range = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_and_ps(t, abs_mask), range, _CMP_GE_OQ));
    for (std::size_t k = 0; k < m; ++k) {
      h[r + k] =
          (out_of_range >> k) & 1 ? std::cos(angle[k]) : value[k];
    }
  }
}

// Multi-flow fused RBF encode tile. Two phases:
//
//  1. Angles: 4 flow rows advance together against one base row, so each
//     base row loaded from L2/L3 is amortized across 4 dots — the same
//     register blocking as similarities_tile_f32_avx2 with flows in the
//     role of query rows and bases in the role of classes. Every dot keeps
//     its own (acc0, acc1) pair and walks cols in exactly dot_f32_avx2's
//     order, so each angle is bit-identical to the one cos_rbf_rows_avx2
//     computes for that (flow, base) pair. Angles (dot + bias) are staged
//     straight into the output rows.
//
//     When cols is a small multiple of 8 (the NIDS feature widths), the
//     whole flow vector lives in registers and the per-(base,flow) hsum8
//     becomes the bottleneck instead of the base loads. The small-cols
//     path batches 8 base rows per flow: each row's (acc0 + acc1) vector
//     is kept whole, the 8 vectors are transposed, and the horizontal
//     reduction runs vertically with hsum8's exact add tree
//     ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — per-lane float adds in the
//     same order, so every angle is still bit-identical, and the 8 results
//     land as one contiguous vector store instead of 8 scalar hsums.
//  2. Cosine epilogue: each flow's angle row is passed through cos8 with
//     the same range mask and libm fallback as cos_rbf_rows_avx2. cos8 is
//     lane-independent, so the different grouping of angles into vectors
//     cannot change any lane — the tile output is bit-identical per
//     backend to per-flow cos_rbf_rows calls. Four 8-angle groups advance
//     per iteration so their cos8 dependency chains overlap (the per-row
//     path is latency-bound on one chain at a time), and in-range groups
//     load and store the row directly instead of staging through scalars.
CYBERHD_AVX2 void cos_rbf_tile_f32_avx2(const float* bases, std::size_t rows,
                                        std::size_t cols, const float* x,
                                        std::size_t num_x,
                                        std::size_t x_stride,
                                        const float* biases, float* h,
                                        std::size_t h_stride) {
  std::size_t f = 0;
  if (cols != 0 && cols % 8 == 0 && cols <= 32) {
    const std::size_t nv = cols / 8;
    for (; f < num_x; ++f) {
      const float* xf = x + f * x_stride;
      float* hf = h + f * h_stride;
      __m256 xv[4];
      for (std::size_t c = 0; c < nv; ++c) {
        xv[c] = _mm256_loadu_ps(xf + 8 * c);
      }
      std::size_t r = 0;
      for (; r + 8 <= rows; r += 8) {
        __m256 v[8];
        for (int k = 0; k < 8; ++k) {
          const float* base = bases + (r + k) * cols;
          // dot_f32_avx2's chunk order: even 8-chunks into acc0, odd into
          // acc1 (the 16-wide loop pairs them; a leftover 8-chunk lands in
          // acc0) — reproduced exactly so each lane matches.
          __m256 acc0 = _mm256_setzero_ps();
          __m256 acc1 = _mm256_setzero_ps();
          for (std::size_t c = 0; c < nv; ++c) {
            if (c & 1) {
              acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(base + 8 * c), xv[c],
                                     acc1);
            } else {
              acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(base + 8 * c), xv[c],
                                     acc0);
            }
          }
          v[k] = _mm256_add_ps(acc0, acc1);
        }
        const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
        const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
        const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
        const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
        const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
        const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
        const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
        const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
        const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
        const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
        const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
        const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
        const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
        // Lane j of Vi is v[j] lane i; the vertical tree below is then
        // hsum8's scalar tree evaluated for all 8 rows at once.
        const __m256 V0 = _mm256_permute2f128_ps(u0, u4, 0x20);
        const __m256 V1 = _mm256_permute2f128_ps(u1, u5, 0x20);
        const __m256 V2 = _mm256_permute2f128_ps(u2, u6, 0x20);
        const __m256 V3 = _mm256_permute2f128_ps(u3, u7, 0x20);
        const __m256 V4 = _mm256_permute2f128_ps(u0, u4, 0x31);
        const __m256 V5 = _mm256_permute2f128_ps(u1, u5, 0x31);
        const __m256 V6 = _mm256_permute2f128_ps(u2, u6, 0x31);
        const __m256 V7 = _mm256_permute2f128_ps(u3, u7, 0x31);
        const __m256 s = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(V0, V4), _mm256_add_ps(V2, V6)),
            _mm256_add_ps(_mm256_add_ps(V1, V5), _mm256_add_ps(V3, V7)));
        _mm256_storeu_ps(hf + r,
                         _mm256_add_ps(s, _mm256_loadu_ps(biases + r)));
      }
      for (; r < rows; ++r) {
        hf[r] = dot_f32_avx2(bases + r * cols, xf, cols) + biases[r];
      }
    }
  }
  for (; f + 4 <= num_x; f += 4) {
    const float* x0 = x + (f + 0) * x_stride;
    const float* x1 = x + (f + 1) * x_stride;
    const float* x2 = x + (f + 2) * x_stride;
    const float* x3 = x + (f + 3) * x_stride;
    for (std::size_t r = 0; r < rows; ++r) {
      const float* base = bases + r * cols;
      __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
      __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
      __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
      __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
      std::size_t i = 0;
      for (; i + 16 <= cols; i += 16) {
        const __m256 v0 = _mm256_loadu_ps(base + i);
        const __m256 v1 = _mm256_loadu_ps(base + i + 8);
        a00 = _mm256_fmadd_ps(_mm256_loadu_ps(x0 + i), v0, a00);
        a01 = _mm256_fmadd_ps(_mm256_loadu_ps(x0 + i + 8), v1, a01);
        a10 = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + i), v0, a10);
        a11 = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + i + 8), v1, a11);
        a20 = _mm256_fmadd_ps(_mm256_loadu_ps(x2 + i), v0, a20);
        a21 = _mm256_fmadd_ps(_mm256_loadu_ps(x2 + i + 8), v1, a21);
        a30 = _mm256_fmadd_ps(_mm256_loadu_ps(x3 + i), v0, a30);
        a31 = _mm256_fmadd_ps(_mm256_loadu_ps(x3 + i + 8), v1, a31);
      }
      for (; i + 8 <= cols; i += 8) {
        const __m256 v0 = _mm256_loadu_ps(base + i);
        a00 = _mm256_fmadd_ps(_mm256_loadu_ps(x0 + i), v0, a00);
        a10 = _mm256_fmadd_ps(_mm256_loadu_ps(x1 + i), v0, a10);
        a20 = _mm256_fmadd_ps(_mm256_loadu_ps(x2 + i), v0, a20);
        a30 = _mm256_fmadd_ps(_mm256_loadu_ps(x3 + i), v0, a30);
      }
      float s0 = hsum8(_mm256_add_ps(a00, a01));
      float s1 = hsum8(_mm256_add_ps(a10, a11));
      float s2 = hsum8(_mm256_add_ps(a20, a21));
      float s3 = hsum8(_mm256_add_ps(a30, a31));
      for (; i < cols; ++i) {
        const float v = base[i];
        s0 += x0[i] * v;
        s1 += x1[i] * v;
        s2 += x2[i] * v;
        s3 += x3[i] * v;
      }
      const float bias = biases[r];
      h[(f + 0) * h_stride + r] = s0 + bias;
      h[(f + 1) * h_stride + r] = s1 + bias;
      h[(f + 2) * h_stride + r] = s2 + bias;
      h[(f + 3) * h_stride + r] = s3 + bias;
    }
  }
  for (; f < num_x; ++f) {
    const float* xf = x + f * x_stride;
    float* hf = h + f * h_stride;
    for (std::size_t r = 0; r < rows; ++r) {
      hf[r] = dot_f32_avx2(bases + r * cols, xf, cols) + biases[r];
    }
  }
  // Cosine epilogue over the staged angles — cos_rbf_rows_avx2's exact
  // cos pass, run per flow row.
  const __m256 range = _mm256_set1_ps(8192.0f);
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  alignas(32) float angle[8];
  alignas(32) float value[8];
  for (f = 0; f < num_x; ++f) {
    float* hf = h + f * h_stride;
    std::size_t r = 0;
    for (; r + 32 <= rows; r += 32) {
      __m256 t[4], c[4];
      for (int g = 0; g < 4; ++g) t[g] = _mm256_loadu_ps(hf + r + 8 * g);
      for (int g = 0; g < 4; ++g) c[g] = cos8(t[g]);
      int oob = 0;
      for (int g = 0; g < 4; ++g) {
        oob |= _mm256_movemask_ps(_mm256_cmp_ps(
                   _mm256_and_ps(t[g], abs_mask), range, _CMP_GE_OQ))
               << (8 * g);
      }
      if (oob == 0) {
        for (int g = 0; g < 4; ++g) _mm256_storeu_ps(hf + r + 8 * g, c[g]);
      } else {
        // Pathological lengthscales only: spill the offending groups and
        // route their flagged lanes through libm, exactly as the per-row
        // path does.
        for (int g = 0; g < 4; ++g) {
          _mm256_store_ps(angle, t[g]);
          _mm256_store_ps(value, c[g]);
          const int bits = (oob >> (8 * g)) & 0xff;
          for (std::size_t k = 0; k < 8; ++k) {
            hf[r + 8 * g + k] = (bits >> k) & 1 ? std::cos(angle[k])
                                                : value[k];
          }
        }
      }
    }
    for (; r < rows; r += 8) {
      const std::size_t m = std::min<std::size_t>(8, rows - r);
      for (std::size_t k = 0; k < m; ++k) angle[k] = hf[r + k];
      for (std::size_t k = m; k < 8; ++k) angle[k] = 0.0f;
      const __m256 t = _mm256_load_ps(angle);
      _mm256_store_ps(value, cos8(t));
      const int out_of_range = _mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_and_ps(t, abs_mask), range, _CMP_GE_OQ));
      for (std::size_t k = 0; k < m; ++k) {
        hf[r + k] =
            (out_of_range >> k) & 1 ? std::cos(angle[k]) : value[k];
      }
    }
  }
}

CYBERHD_AVX2 std::size_t xor_popcount_words_avx2(const std::uint64_t* a,
                                                 const std::uint64_t* b,
                                                 std::size_t n) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  // 8 nibble-LUT rounds (32 words) per vpsadbw: byte counters reach at
  // most 8 * 8 = 64, well under overflow.
  while (n - i >= 4) {
    const std::size_t rounds = std::min<std::size_t>((n - i) / 4, 8);
    __m256i bytes = zero;
    for (std::size_t k = 0; k < rounds; ++k, i += 4) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
      const __m256i lo = _mm256_and_si256(v, nibble);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), nibble);
      bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(lut, lo));
      bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(lut, hi));
    }
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t count = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                               lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return count;
}

CYBERHD_AVX2 std::int64_t quantized_dot_i8_avx2(const std::int8_t* a,
                                                const std::int8_t* b,
                                                std::size_t n) {
  __m256i acc64 = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 16) {
    // Each 16-element round adds at most 2 * 127^2 to an i32 lane; cap the
    // rounds per i32 accumulator far below overflow before widening.
    const std::size_t rounds = std::min<std::size_t>((n - i) / 16, 32768);
    __m256i acc32 = _mm256_setzero_si256();
    for (std::size_t k = 0; k < rounds; ++k, i += 16) {
      const __m256i av = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
      const __m256i bv = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
      acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(av, bv));
    }
    const __m256i lo =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc32));
    const __m256i hi =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc32, 1));
    acc64 = _mm256_add_epi64(acc64, _mm256_add_epi64(lo, hi));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc64);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += static_cast<std::int64_t>(a[i]) * b[i];
  return sum;
}

// Register-blocked int8 similarity tile, the quantized sibling of
// similarities_tile_f32_avx2: 4 query rows advance together against one
// class row, each class load amortized over 4 vpmaddwd dots. Integer sums
// are order-independent, so unlike the float tile no accumulation-order
// mirroring is needed — every out entry is the exact dot. The i32
// accumulators follow quantized_dot_i8_avx2's widening cap: each 16-element
// round adds at most 2 * 127^2 per lane, so 32768 rounds stay far below
// i32 overflow before the i64 widening.
/// acc64 += the 8 i32 lanes of acc32, widened (the overflow-safe widening
/// step shared with quantized_dot_i8_avx2).
CYBERHD_AVX2 inline __m256i widen_add_i32_to_i64(__m256i acc64,
                                                 __m256i acc32) {
  const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc32));
  const __m256i hi =
      _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc32, 1));
  return _mm256_add_epi64(acc64, _mm256_add_epi64(lo, hi));
}

CYBERHD_AVX2 inline std::int64_t hsum_i64x4(__m256i acc64) {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc64);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

// 4-row inner body over explicit row pointers (read from the tile's
// pointer table).
CYBERHD_AVX2 inline void sim_tile_i8_block4_avx2(
    const std::int8_t* h0, const std::int8_t* h1, const std::int8_t* h2,
    const std::int8_t* h3, const std::int8_t* classes,
    std::size_t num_classes, std::size_t dims, std::int64_t* out_block) {
  for (std::size_t c = 0; c < num_classes; ++c) {
    const std::int8_t* cls = classes + c * dims;
    __m256i a0 = _mm256_setzero_si256(), a1 = _mm256_setzero_si256();
    __m256i a2 = _mm256_setzero_si256(), a3 = _mm256_setzero_si256();
    std::size_t i = 0;
    while (dims - i >= 16) {
      const std::size_t rounds =
          std::min<std::size_t>((dims - i) / 16, 32768);
      __m256i b0 = _mm256_setzero_si256(), b1 = _mm256_setzero_si256();
      __m256i b2 = _mm256_setzero_si256(), b3 = _mm256_setzero_si256();
      for (std::size_t k = 0; k < rounds; ++k, i += 16) {
        const __m256i cv = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cls + i)));
        b0 = _mm256_add_epi32(
            b0, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h0 + i))),
                    cv));
        b1 = _mm256_add_epi32(
            b1, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h1 + i))),
                    cv));
        b2 = _mm256_add_epi32(
            b2, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h2 + i))),
                    cv));
        b3 = _mm256_add_epi32(
            b3, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(h3 + i))),
                    cv));
      }
      a0 = widen_add_i32_to_i64(a0, b0);
      a1 = widen_add_i32_to_i64(a1, b1);
      a2 = widen_add_i32_to_i64(a2, b2);
      a3 = widen_add_i32_to_i64(a3, b3);
    }
    std::int64_t s0 = hsum_i64x4(a0), s1 = hsum_i64x4(a1);
    std::int64_t s2 = hsum_i64x4(a2), s3 = hsum_i64x4(a3);
    for (; i < dims; ++i) {
      const std::int64_t v = cls[i];
      s0 += static_cast<std::int64_t>(h0[i]) * v;
      s1 += static_cast<std::int64_t>(h1[i]) * v;
      s2 += static_cast<std::int64_t>(h2[i]) * v;
      s3 += static_cast<std::int64_t>(h3[i]) * v;
    }
    out_block[0 * num_classes + c] = s0;
    out_block[1 * num_classes + c] = s1;
    out_block[2 * num_classes + c] = s2;
    out_block[3 * num_classes + c] = s3;
  }
}

CYBERHD_AVX2 void similarities_tile_i8_avx2(const std::int8_t* const* h_rows,
                                            std::size_t rows,
                                            const std::int8_t* classes,
                                            std::size_t num_classes,
                                            std::size_t dims,
                                            std::int64_t* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    sim_tile_i8_block4_avx2(h_rows[r + 0], h_rows[r + 1], h_rows[r + 2],
                            h_rows[r + 3], classes, num_classes, dims,
                            out + r * num_classes);
  }
  for (; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] =
          quantized_dot_i8_avx2(h_rows[r], classes + c * dims, dims);
    }
  }
}

CYBERHD_AVX2 void hamming_tile_1b_avx2(const std::uint64_t* const* h_rows,
                                       std::size_t rows,
                                       const std::uint64_t* classes,
                                       std::size_t num_classes,
                                       std::size_t words,
                                       std::uint32_t* out) {
  // Per-pair word scans through the nibble-LUT popcount: at serving widths
  // (D <= 16k -> words <= 256) a packed row block plus the class block fit
  // in L1, so the tile gains nothing from further register blocking.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      out[r * num_classes + c] = static_cast<std::uint32_t>(
          xor_popcount_words_avx2(h_rows[r], classes + c * words, words));
    }
  }
}

constexpr Kernels kAvx2Kernels = {
    .name = "avx2",
    .dot_f32 = dot_f32_avx2,
    .axpy_f32 = axpy_f32_avx2,
    .mul_acc_f32 = mul_acc_f32_avx2,
    .similarities_tile_f32 = similarities_tile_f32_avx2,
    .cos_rbf_rows = cos_rbf_rows_avx2,
    .cos_rbf_tile_f32 = cos_rbf_tile_f32_avx2,
    .xor_popcount_words = xor_popcount_words_avx2,
    .quantized_dot_i8 = quantized_dot_i8_avx2,
    .similarities_tile_i8 = similarities_tile_i8_avx2,
    .hamming_tile_1b = hamming_tile_1b_avx2,
};

}  // namespace

const Kernels* avx2_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace cyberhd::core

#else  // non-x86 or unsupported compiler: no AVX2 backend in this binary.

namespace cyberhd::core {
const Kernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace cyberhd::core

#endif
