// The HDC associative memory: one class hypervector per class.
//
// Training bundles encoded samples into class hypervectors; inference
// assigns a query to the class with the highest cosine similarity (steps
// (C), (I), (J) of the CyberHD workflow). The model also exposes the two
// statistics regeneration needs: a row-normalized copy (step (D)/(E)) and
// the per-dimension variance across classes (step (F)).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/exec/execution_context.hpp"
#include "core/matrix.hpp"
#include "hdc/encoded_batch.hpp"

namespace cyberhd::hdc {

/// Class-hypervector matrix (num_classes x dims) with cosine scoring.
class HdcModel {
 public:
  /// The one cosine-normalization expression every scoring path shares —
  /// per-sample similarities(), the batched tile path, and the trainer's
  /// minibatch scoring. Sharing it is what keeps their bit-identical
  /// contract (and the zero-norm convention) in exactly one place.
  static float cosine_from_dot(float dot, float query_norm,
                               float class_norm) noexcept {
    return (query_norm == 0.0f || class_norm == 0.0f)
               ? 0.0f
               : dot / (query_norm * class_norm);
  }

  HdcModel() = default;
  /// Zero-initialized model for `num_classes` classes in `dims` dimensions.
  HdcModel(std::size_t num_classes, std::size_t dims);

  std::size_t num_classes() const noexcept { return classes_.rows(); }
  std::size_t dims() const noexcept { return classes_.cols(); }

  /// Mutable class hypervector.
  std::span<float> class_vector(std::size_t cls) noexcept {
    return classes_.row(cls);
  }
  /// Read-only class hypervector.
  std::span<const float> class_vector(std::size_t cls) const noexcept {
    return classes_.row(cls);
  }
  const core::Matrix& weights() const noexcept { return classes_; }
  core::Matrix& weights() noexcept { return classes_; }

  /// Add an encoded sample into a class (one-shot bundling). `weight`
  /// scales the contribution.
  void bundle(std::size_t cls, std::span<const float> h,
              float weight = 1.0f) noexcept;

  /// Cosine similarity of `h` to every class; `scores` has num_classes()
  /// entries. Zero-norm classes score 0.
  void similarities(std::span<const float> h,
                    std::span<float> scores) const noexcept;

  /// The batch scorer: cosine similarities of every row of a row view
  /// (rows borrowed from the encode cache ring, staging rows, a trivial
  /// table over a contiguous matrix — any mix), writing h.rows() x
  /// num_classes() floats row-major at `out`. Class norms are computed
  /// once, rows stream through the register-blocked similarities_tile_f32
  /// kernel in cache-derived chunks (ExecutionContext::score_block_rows;
  /// class vectors stay resident), and the sample range splits across the
  /// context's pool. Each output row is bit-identical to a similarities()
  /// call on that row, for any tile split or thread count. Writing into
  /// caller-owned storage is what lets the staged scores_batch drivers
  /// score one sub-batch directly into its row range of the full output.
  void similarities_into(const EncodedRows& h, float* out,
                         const core::ExecutionContext& exec =
                             core::ExecutionContext::serial()) const;

  /// Contiguous adapter of similarities_into: scores every row of the
  /// matrix `h` through a trivial row table; `scores` is resized to
  /// h.rows() x num_classes().
  void similarities_batch(const core::Matrix& h, core::Matrix& scores,
                          const core::ExecutionContext& exec =
                              core::ExecutionContext::serial()) const;

  /// argmax-of-cosine classification of an encoded query.
  std::size_t predict_encoded(std::span<const float> h) const noexcept;

  /// L2-normalize every class hypervector in place (step (D)).
  void normalize_rows() noexcept;

  /// Per-dimension variance across L2-normalized class hypervectors
  /// (step (E)+(F)); `out` has dims() entries. The model itself is not
  /// modified. Dimensions whose variance is low carry class-common
  /// information and are candidates for regeneration.
  void dimension_variances(std::span<float> out) const;

  /// Zero the given dimensions in every class hypervector (step (G):
  /// dropping dimensions from the model before the encoder resamples them).
  void zero_dimensions(std::span<const std::size_t> dims) noexcept;

  /// Indices of the `count` lowest-variance dimensions (ties broken by
  /// index). Helper shared by the regeneration controller and tests.
  static std::vector<std::size_t> lowest_k(std::span<const float> values,
                                           std::size_t count);

 private:
  core::Matrix classes_;  // num_classes x dims
};

}  // namespace cyberhd::hdc
