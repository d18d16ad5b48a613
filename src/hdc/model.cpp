#include "hdc/model.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/kernels/kernels.hpp"
#include "core/stats.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {

HdcModel::HdcModel(std::size_t num_classes, std::size_t dims)
    : classes_(num_classes, dims) {
  assert(num_classes > 0 && dims > 0);
}

void HdcModel::bundle(std::size_t cls, std::span<const float> h,
                      float weight) noexcept {
  assert(cls < num_classes());
  core::axpy(weight, h, classes_.row(cls));
}

void HdcModel::similarities(std::span<const float> h,
                            std::span<float> scores) const noexcept {
  assert(h.size() == dims());
  assert(scores.size() == num_classes());
  const float hn = core::norm2(h);
  for (std::size_t c = 0; c < num_classes(); ++c) {
    const auto row = classes_.row(c);
    scores[c] = cosine_from_dot(core::dot(row, h), hn, core::norm2(row));
  }
}

void HdcModel::similarities_into(const EncodedRows& h, float* out,
                                 const core::ExecutionContext& exec) const {
  assert(h.dims() == dims());
  if (h.rows() == 0) return;
  const std::size_t C = num_classes();
  const std::size_t D = dims();
  // Class norms live in the thread-local workspace: recomputed every call
  // (they are cheap and the model may have changed), but the vector's
  // allocation is reused — the steady-state serving flush touches no
  // allocator here.
  std::vector<float>& class_norms = ScoringWorkspace::tl().class_norms;
  class_norms.resize(C);
  for (std::size_t c = 0; c < C; ++c) {
    class_norms[c] = core::norm2(classes_.row(c));
  }
  // Tile-internal blocking: each worker streams its row range through the
  // register-blocked tile kernel in chunks small enough that the chunk's
  // rows stay L2-resident for the norm pass right after the kernel pass
  // (and the class-vector block stays cache-resident throughout); the
  // chunk size is derived from the machine's cache model, not hand-tuned.
  // The kernel's per-dot accumulation equals dot_f32's, so cosine_from_dot
  // on the raw dots reproduces similarities() bit-for-bit.
  const std::size_t tile_rows = exec.score_block_rows(D);
  const core::Kernels& k = exec.kernels();
  const float* const* rows_tbl = h.row_ptrs();
  const auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; t += tile_rows) {
      const std::size_t rows = std::min(tile_rows, end - t);
      float* block = out + t * C;
      k.similarities_tile_f32(rows_tbl + t, rows, classes_.data(), C, D,
                              block);
      for (std::size_t r = 0; r < rows; ++r) {
        const float hn = core::norm2(h.row(t + r));
        for (std::size_t c = 0; c < C; ++c) {
          float& s = block[r * C + c];
          s = cosine_from_dot(s, hn, class_norms[c]);
        }
      }
    }
  };
  exec.parallel_for(h.rows(), body, /*grain=*/32);
}

void HdcModel::similarities_batch(const core::Matrix& h,
                                  core::Matrix& scores,
                                  const core::ExecutionContext& exec) const {
  scores.resize(h.rows(), num_classes());
  if (h.rows() == 0) return;
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  const EncodedRows rows(
      ScoringWorkspace::row_table(ws.f32_rows, h.data(), h.rows(), h.cols()),
      h.rows(), h.cols());
  similarities_into(rows, scores.data(), exec);
}

std::size_t HdcModel::predict_encoded(
    std::span<const float> h) const noexcept {
  std::vector<float> scores(num_classes());
  similarities(h, scores);
  return core::argmax(scores);
}

void HdcModel::normalize_rows() noexcept {
  for (std::size_t c = 0; c < num_classes(); ++c) {
    core::normalize_l2(classes_.row(c));
  }
}

void HdcModel::dimension_variances(std::span<float> out) const {
  assert(out.size() == dims());
  // Work on a normalized copy so magnitude differences between classes
  // (driven by class frequency) do not masquerade as discriminative
  // variance — this is exactly the paper's normalize-then-variance order.
  core::Matrix normalized = classes_;
  for (std::size_t c = 0; c < normalized.rows(); ++c) {
    core::normalize_l2(normalized.row(c));
  }
  core::column_variances(normalized.data(), normalized.rows(),
                         normalized.cols(), out);
}

void HdcModel::zero_dimensions(std::span<const std::size_t> dims_list) noexcept {
  for (std::size_t c = 0; c < num_classes(); ++c) {
    auto row = classes_.row(c);
    for (std::size_t d : dims_list) {
      assert(d < dims());
      row[d] = 0.0f;
    }
  }
}

std::vector<std::size_t> HdcModel::lowest_k(std::span<const float> values,
                                            std::size_t count) {
  count = std::min(count, values.size());
  std::vector<std::size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + count, idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (values[a] != values[b]) {
                        return values[a] < values[b];
                      }
                      return a < b;
                    });
  idx.resize(count);
  return idx;
}

}  // namespace cyberhd::hdc
