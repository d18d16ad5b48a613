// Runtime-dispatched SIMD kernel layer.
//
// Every arithmetic hot path in the library — float dot products, the fused
// RBF encode (dot + bias + cos), packed XOR/popcount similarity, and the
// quantized int8 dot — funnels through one table of function pointers, the
// Kernels struct. Three backends are provided:
//
//  * scalar — portable C++, the reference semantics. Identical loop
//    structure to the pre-kernel code, so a scalar-selected build computes
//    bit-for-bit what the library always computed.
//  * avx2   — AVX2+FMA intrinsics (x86-64 only), selected at startup via
//    CPUID. 8/16-lane float kernels, a vpshufb nibble-LUT popcount, a
//    vpmaddwd int8 dot, and an 8-lane polynomial cosine for the fused RBF
//    encode.
//  * avx512 — AVX-512F 32-lane float kernels (dot, axpy, the blocked
//    similarity tile) plus a VPOPCNTDQ popcount when the CPU has it;
//    everything else (the polynomial cosine, the int8 dot) is inherited
//    from the avx2 table, which any AVX-512 machine also runs.
//
// Selection happens exactly once (first call to active_kernels()): the
// best table the CPUID feature bits allow — avx512, then avx2, then
// scalar. The environment variable CYBERHD_KERNELS overrides the choice
// ("scalar" forces the portable backend anywhere; "avx2"/"avx512" ask for
// a SIMD backend and fall back to the best available when the CPU lacks
// it). The dispatch is independent of the CYBERHD_NATIVE build flag: a
// portable -march=x86-64 binary still runs the AVX2/AVX-512 backends on
// capable hardware.
//
// Scoring tiles: there is exactly one tile per element type — float
// (similarities_tile_f32), int8 (similarities_tile_i8) and packed 1-bit
// (hamming_tile_1b) — and each reads its query rows through a row-pointer
// table. That table is the one handoff between encoding and scoring: the
// serving path points it at borrowed encode-cache entries and freshly
// encoded staging rows in any mix (in-batch duplicates make two entries
// alias one row); contiguous callers (the trainer, the sign-projection
// encoder, the contiguous model adapters) fill a trivial table through
// ScoringWorkspace::row_table.
//
// Contracts shared by all backends:
//  * integer kernels (xor_popcount_words, quantized_dot_i8, and the packed
//    serving tiles similarities_tile_i8 / hamming_tile_1b) are exact —
//    backends must agree bit-for-bit;
//  * float kernels may reassociate sums, so backends agree only to rounding
//    (tests pin the tolerance);
//  * within one backend, cos_rbf_rows(rows=N) and N calls with rows=1 yield
//    bit-identical values per row — encode() and encode_dims() stay
//    consistent after regeneration.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cyberhd::core {

/// Table of the library's arithmetic hot-path kernels. All pointers are
/// always non-null; spans are passed as raw pointer + length because these
/// are the innermost loops.
struct Kernels {
  /// Backend name for logs/benches ("scalar", "avx2").
  const char* name;

  /// sum_i a[i] * b[i].
  float (*dot_f32)(const float* a, const float* b, std::size_t n);

  /// y[i] += alpha * x[i].
  void (*axpy_f32)(float alpha, const float* x, float* y, std::size_t n);

  /// acc[i] += a[i] * b[i] (elementwise bind-and-bundle of the ID/level
  /// encoder).
  void (*mul_acc_f32)(const float* a, const float* b, float* acc,
                      std::size_t n);

  /// Blocked similarity tile: raw dot products of a tile of encoded rows
  /// against every class hypervector,
  ///   out[r * num_classes + c] = dot(h_rows[r], classes + c * dims)
  /// for r in [0, rows), c in [0, num_classes). Query rows are read through
  /// the pointer table `h_rows` (h_rows[r] points at row r's dims floats;
  /// rows need not be contiguous, ordered or distinct), `classes` is a
  /// row-major num_classes x dims block. SIMD backends register-block over
  /// query rows so each class row is loaded once per row block (class
  /// vectors stay cache-resident while the tile streams), but every
  /// individual dot accumulates in exactly dot_f32's order — each out entry
  /// is bit-identical to a per-pair dot_f32 call on the same backend. This
  /// is the kernel behind HdcModel::similarities_into, the minibatch
  /// trainer and the sign-projection encoder.
  void (*similarities_tile_f32)(const float* const* h_rows, std::size_t rows,
                                const float* classes, std::size_t num_classes,
                                std::size_t dims, float* out);

  /// Fused RBF encode over contiguous base rows:
  ///   h[r] = cos(dot(bases + r * cols, x) + biases[r])   for r in [0, rows).
  /// `bases` is a row-major rows x cols block.
  void (*cos_rbf_rows)(const float* bases, std::size_t rows, std::size_t cols,
                       const float* x, const float* biases, float* h);

  /// Multi-flow fused RBF encode tile — the GEMM-shaped batched form of
  /// cos_rbf_rows:
  ///   h[f * h_stride + r] =
  ///       cos(dot(bases + r * cols, x + f * x_stride) + biases[r])
  /// for f in [0, num_x), r in [0, rows). `bases` is a row-major
  /// rows x cols panel, `x` holds num_x flow rows at stride `x_stride`
  /// floats, and `h` receives each flow's encodings at stride `h_stride`
  /// floats (callers pass bases + p0 * cols, biases + p0, and
  /// h + p0 to fill an interior base panel [p0, p0 + rows)). SIMD
  /// backends register-block over FLOWS so each base row loaded from
  /// L2/L3 is reused once per flow in the block, but every (base, flow)
  /// dot accumulates in exactly dot_f32's order and the cosine epilogue
  /// is lane-independent — so each h entry is bit-identical to a
  /// cos_rbf_rows call over the same flow on the same backend.
  void (*cos_rbf_tile_f32)(const float* bases, std::size_t rows,
                           std::size_t cols, const float* x,
                           std::size_t num_x, std::size_t x_stride,
                           const float* biases, float* h,
                           std::size_t h_stride);

  /// sum_i popcount(a[i] ^ b[i]) — the Hamming distance of two packed
  /// bipolar hypervectors (bitpack.hpp guarantees padding bits are zero).
  std::size_t (*xor_popcount_words)(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n);

  /// sum_i a[i] * b[i] over signed 8-bit levels, accumulated in int64 —
  /// the quantized-domain dot for bitwidths <= 8.
  std::int64_t (*quantized_dot_i8)(const std::int8_t* a, const std::int8_t* b,
                                   std::size_t n);

  /// Blocked int8 similarity tile: raw integer dot products of a tile of
  /// quantized query rows against every quantized class row,
  ///   out[r * num_classes + c] = sum_i h_rows[r][i] * classes[c*dims + i]
  /// for r in [0, rows), c in [0, num_classes), rows read through a
  /// pointer table as in similarities_tile_f32. Same register-blocking
  /// contract (SIMD backends amortize each class load over a block of
  /// query rows), but exact-integer like quantized_dot_i8: every backend
  /// must agree bit-for-bit with a per-pair scalar dot. This is the
  /// stage-2 kernel of the packed quantized serving pipeline (bits in
  /// {2, 4, 8}).
  void (*similarities_tile_i8)(const std::int8_t* const* h_rows,
                               std::size_t rows, const std::int8_t* classes,
                               std::size_t num_classes, std::size_t dims,
                               std::int64_t* out);

  /// Packed-XOR/popcount Hamming tile over 64-bit words:
  ///   out[r * num_classes + c] =
  ///       sum_w popcount(h_rows[r][w] ^ classes[c*words + w])
  /// for r in [0, rows), c in [0, num_classes). h_rows[r] points at row
  /// r's `words` packed bipolar words, `classes` is a row-major
  /// num_classes x words block (bitpack.hpp's tail-masking invariant
  /// applies to both). Exact-integer: all backends agree bit-for-bit.
  /// This is the stage-2 kernel of the 1-bit packed serving pipeline.
  void (*hamming_tile_1b)(const std::uint64_t* const* h_rows,
                          std::size_t rows, const std::uint64_t* classes,
                          std::size_t num_classes, std::size_t words,
                          std::uint32_t* out);
};

/// The portable reference backend. Always available.
const Kernels& scalar_kernels() noexcept;

/// The AVX2+FMA backend, or nullptr when this binary was built for a
/// non-x86 target. A non-null return says the code exists, not that the
/// CPU can run it — check cpu_supports_avx2() before calling it directly.
const Kernels* avx2_kernels() noexcept;

/// The AVX-512 backend (32-lane float kernels layered over the avx2 table,
/// VPOPCNTDQ popcount when the CPU reports it), or nullptr when this binary
/// was built for a non-x86 target. As with avx2_kernels(), a non-null
/// return says the code exists — check cpu_supports_avx512() before
/// calling it directly.
const Kernels* avx512_kernels() noexcept;

/// True when the running CPU reports AVX2 and FMA.
bool cpu_supports_avx2() noexcept;

/// True when the running CPU reports the AVX-512 foundation set this
/// backend needs (F + DQ, plus the AVX2+FMA the inherited kernels use).
bool cpu_supports_avx512() noexcept;

/// True when the running CPU additionally reports AVX512VPOPCNTDQ (the
/// vectorized 64-bit popcount; Ice Lake and newer).
bool cpu_supports_avx512_vpopcntdq() noexcept;

/// True when the running CPU additionally reports AVX512VNNI (vpdpbusd,
/// the fused 8-bit dot-product accumulate; Cascade Lake and newer). Gates
/// the VNNI variant of similarities_tile_i8 the same way VPOPCNTDQ gates
/// the vectorized popcount — requested-but-absent falls back to the
/// inherited avx2 tile.
bool cpu_supports_avx512_vnni() noexcept;

/// The backend selected for this process (CPUID once at first use;
/// overridable via CYBERHD_KERNELS=scalar|avx2|avx512).
const Kernels& active_kernels() noexcept;

}  // namespace cyberhd::core
