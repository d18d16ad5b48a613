// The view types of the stage-split serving pipeline.
//
// The handoff between stage 1 (the encode cache driver, or a plain tile
// encode when the cache is off) and stage 2 (HdcModel::similarities_into /
// QuantizedHdcModel::similarities_packed) is a ROW VIEW: EncodedRows for
// float rows, PackedRows for quantized ones — a pointer per row, so cache
// hits are scored in place in the ring, next to freshly encoded staging
// rows. The contiguous views (EncodedBatch, PackedBatch) remain for callers
// that want rows back-to-back (encode_block / encode_block_packed and their
// scores_encoded counterparts); they are scored through a trivial row
// table. All views are non-owning, which lets the batch planner cut one
// logical batch into L3-resident sub-batches without copies and lets
// callers reuse one staging buffer across pipeline iterations.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/matrix.hpp"

namespace cyberhd::hdc {

/// Non-owning view of `rows` encoded hypervectors laid out row-major and
/// contiguously (`dims` floats per row, no inter-row padding). Cheap to
/// copy; never outlives the buffer it views.
class EncodedBatch {
 public:
  EncodedBatch() = default;
  EncodedBatch(const float* data, std::size_t rows, std::size_t dims)
      : data_(data), rows_(rows), dims_(dims) {
    assert(data != nullptr || rows == 0);
  }

  /// View over every row of a matrix of encoded samples.
  static EncodedBatch of(const core::Matrix& m) noexcept {
    return {m.data(), m.rows(), m.cols()};
  }
  /// View over the first `rows` rows of a (possibly larger) staging
  /// matrix — the encode stage fills exactly the front of its buffer.
  static EncodedBatch front_of(const core::Matrix& m,
                               std::size_t rows) noexcept {
    assert(rows <= m.rows());
    return {m.data(), rows, m.cols()};
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dims() const noexcept { return dims_; }
  bool empty() const noexcept { return rows_ == 0; }
  const float* data() const noexcept { return data_; }

  std::span<const float> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_ + r * dims_, dims_};
  }

  /// Sub-view of `count` rows starting at `begin` — how the batch planner
  /// carves per-domain sub-batches out of one encoded block.
  EncodedBatch slice(std::size_t begin, std::size_t count) const noexcept {
    assert(begin + count <= rows_);
    return {data_ + begin * dims_, count, dims_};
  }

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
};

/// Non-owning view of `rows` QUANTIZED hypervectors — the packed sibling of
/// EncodedBatch (what encode_block_packed returns). Rows are laid out
/// contiguously at row_bytes(dims, bits) bytes each:
///
///   bits in {2, 4, 8} — dims int8 levels per row (one byte per dimension;
///     levels at <= 8 bits fit int8 exactly, and the int8 layout is what
///     the similarities_tile_i8 kernel streams);
///   bits == 1        — ceil(dims / 64) little-endian 64-bit words per row
///     (bit set = +1), tail bits zero per bitpack.hpp's masking invariant;
///     what the hamming_tile_1b kernel streams.
///
/// The buffer must be 8-byte aligned when bits == 1 (PackedStaging and the
/// encode cache's ring storage both over-align to 64). Cheap to copy;
/// never outlives the buffer it views.
class PackedBatch {
 public:
  PackedBatch() = default;
  PackedBatch(const unsigned char* data, std::size_t rows, std::size_t dims,
              int bits)
      : data_(data), rows_(rows), dims_(dims), bits_(bits) {
    assert(data != nullptr || rows == 0);
    assert(bits >= 1 && bits <= 8);
  }

  /// Bytes one packed row occupies (the cache entry size and the planner's
  /// bytes-per-row input): dims for int8 rows, ceil(dims / 64) * 8 for
  /// packed 1-bit rows.
  static constexpr std::size_t row_bytes(std::size_t dims,
                                         int bits) noexcept {
    return bits == 1 ? ((dims + 63) / 64) * sizeof(std::uint64_t) : dims;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dims() const noexcept { return dims_; }
  int bits() const noexcept { return bits_; }
  bool empty() const noexcept { return rows_ == 0; }
  std::size_t row_bytes() const noexcept { return row_bytes(dims_, bits_); }
  /// Words per row; only meaningful when bits() == 1.
  std::size_t words() const noexcept { return (dims_ + 63) / 64; }
  const unsigned char* data() const noexcept { return data_; }

  /// Row r as int8 levels. Precondition: bits() > 1.
  const std::int8_t* i8_row(std::size_t r) const noexcept {
    assert(r < rows_ && bits_ > 1);
    return reinterpret_cast<const std::int8_t*>(data_ + r * row_bytes());
  }
  /// Row r as packed words. Precondition: bits() == 1.
  const std::uint64_t* word_row(std::size_t r) const noexcept {
    assert(r < rows_ && bits_ == 1);
    return reinterpret_cast<const std::uint64_t*>(data_ + r * row_bytes());
  }

  /// Sub-view of `count` rows starting at `begin`.
  PackedBatch slice(std::size_t begin, std::size_t count) const noexcept {
    assert(begin + count <= rows_);
    return {data_ + begin * row_bytes(), count, dims_, bits_};
  }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  int bits_ = 8;
};

/// Non-owning INDIRECT view of `n` encoded hypervectors: row r lives at
/// rows[r], an arbitrary address (a borrowed cache-ring entry, a staging
/// row — any mix; two entries may alias one row). Stage 1 builds one of
/// these instead of memcpying cache hits into a contiguous batch, and
/// stage 2 scores it through the row-pointer tile kernels. Cheap to copy;
/// neither the pointer table nor the rows it names may outlive their
/// owners (the ScoringWorkspace and its BorrowGuard hold both for exactly
/// one flush).
class EncodedRows {
 public:
  EncodedRows() = default;
  EncodedRows(const float* const* rows, std::size_t n, std::size_t dims)
      : rows_(rows), n_(n), dims_(dims) {
    assert(rows != nullptr || n == 0);
  }

  std::size_t rows() const noexcept { return n_; }
  std::size_t dims() const noexcept { return dims_; }
  bool empty() const noexcept { return n_ == 0; }
  /// The row-pointer table the tile kernels consume.
  const float* const* row_ptrs() const noexcept { return rows_; }

  std::span<const float> row(std::size_t r) const noexcept {
    assert(r < n_);
    return {rows_[r], dims_};
  }

 private:
  const float* const* rows_ = nullptr;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
};

/// Indirect sibling of PackedBatch: a typed row-pointer table over packed
/// quantized rows. Exactly one of the two tables is populated — int8 rows
/// for bits in {2, 4, 8}, packed 64-bit word rows for bits == 1 — matching
/// the int8 and 1-bit tile kernels.
class PackedRows {
 public:
  PackedRows() = default;
  /// int8 rows (bits in {2, 4, 8}).
  PackedRows(const std::int8_t* const* i8_rows, std::size_t n,
             std::size_t dims, int bits)
      : i8_(i8_rows), n_(n), dims_(dims), bits_(bits) {
    assert(i8_rows != nullptr || n == 0);
    assert(bits > 1 && bits <= 8);
  }
  /// Packed word rows (bits == 1).
  PackedRows(const std::uint64_t* const* word_rows, std::size_t n,
             std::size_t dims)
      : words_(word_rows), n_(n), dims_(dims), bits_(1) {
    assert(word_rows != nullptr || n == 0);
  }

  std::size_t rows() const noexcept { return n_; }
  std::size_t dims() const noexcept { return dims_; }
  int bits() const noexcept { return bits_; }
  bool empty() const noexcept { return n_ == 0; }
  /// Words per row; only meaningful when bits() == 1.
  std::size_t words() const noexcept { return (dims_ + 63) / 64; }

  /// The int8 row-pointer table. Precondition: bits() > 1.
  const std::int8_t* const* i8_row_ptrs() const noexcept {
    assert(bits_ > 1);
    return i8_;
  }
  /// The packed-word row-pointer table. Precondition: bits() == 1.
  const std::uint64_t* const* word_row_ptrs() const noexcept {
    assert(bits_ == 1);
    return words_;
  }

 private:
  const std::int8_t* const* i8_ = nullptr;
  const std::uint64_t* const* words_ = nullptr;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
  int bits_ = 8;
};

/// Reusable owning buffer behind PackedBatch views — the packed pipeline's
/// analogue of the float staging Matrix. 64-byte aligned (so 1-bit word
/// rows stay 8-byte aligned and SIMD loads never straddle lines); grows
/// monotonically like the staging Matrix, so per-block serving reuses one
/// allocation.
class PackedStaging {
 public:
  /// Ensure capacity for `rows` rows of row_bytes(dims, bits) bytes and
  /// return the mutable base pointer.
  unsigned char* prepare(std::size_t rows, std::size_t dims, int bits) {
    const std::size_t need = rows * PackedBatch::row_bytes(dims, bits);
    if (bytes_.size() < need) bytes_.resize(need);
    return bytes_.data();
  }
  /// View over the first `rows` rows of the prepared buffer.
  PackedBatch view(std::size_t rows, std::size_t dims, int bits) const {
    assert(rows * PackedBatch::row_bytes(dims, bits) <= bytes_.size());
    return {bytes_.data(), rows, dims, bits};
  }

 private:
  std::vector<unsigned char, core::AlignedAllocator<unsigned char>> bytes_;
};

}  // namespace cyberhd::hdc
