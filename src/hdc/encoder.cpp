#include "hdc/encoder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <ostream>
#include <stdexcept>

#include "core/io.hpp"
#include "core/kernels/kernels.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {

EncodedBatch Encoder::encode_batch(const core::Matrix& x, core::Matrix& h,
                                   const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  h.resize(x.rows(), output_dim());
  encode_tile(x, 0, x.rows(), h.data(), h.cols(), exec);
  return EncodedBatch::of(h);
}

void Encoder::encode_tile(const core::Matrix& x, std::size_t begin,
                          std::size_t end, float* out,
                          std::size_t out_stride,
                          const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  assert(begin <= end && end <= x.rows());
  assert(out_stride >= output_dim());
  const std::size_t m = end - begin;
  if (m == 0) return;
  // Flow-block split: chunk boundaries only group independent per-row
  // encodes, so results never depend on the block size or worker count.
  const core::EncodeTilePlan plan =
      exec.plan_encode_tile(output_dim(), input_dim());
  exec.parallel_for(
      m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; t += plan.flow_rows) {
          const std::size_t e = std::min(hi, t + plan.flow_rows);
          encode_tile_block(x, begin + t, begin + e, out + t * out_stride,
                            out_stride, exec);
        }
      },
      /*grain=*/plan.flow_rows);
}

void Encoder::encode_tile_block(const core::Matrix& x, std::size_t begin,
                                std::size_t end, float* out,
                                std::size_t out_stride,
                                const core::ExecutionContext&) const {
  for (std::size_t i = begin; i < end; ++i) {
    encode(x.row(i), {out + (i - begin) * out_stride, output_dim()});
  }
}

void Encoder::encode_batch_dims(const core::Matrix& x,
                                std::span<const std::size_t> dims,
                                core::Matrix& h,
                                const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  assert(h.rows() == x.rows() && h.cols() == output_dim());
  exec.parallel_for(
      x.rows(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          encode_dims(x.row(i), dims, h.row(i));
        }
      },
      /*grain=*/16);
}

// ---- RbfEncoder ------------------------------------------------------------

RbfEncoder::RbfEncoder(std::size_t input_dim, std::size_t output_dim,
                       core::Rng& rng, float lengthscale)
    : bases_(output_dim, input_dim),
      biases_(output_dim, 0.0f),
      lengthscale_(lengthscale) {
  assert(input_dim > 0 && output_dim > 0 && lengthscale > 0.0f);
  for (std::size_t d = 0; d < output_dim; ++d) sample_row(d, rng);
}

void RbfEncoder::sample_row(std::size_t d, core::Rng& rng) {
  const float stddev = 1.0f / lengthscale_;
  core::fill_gaussian(rng, bases_.row(d).data(), bases_.cols(), 0.0f, stddev);
  biases_[d] =
      static_cast<float>(rng.uniform(0.0, 2.0 * std::numbers::pi));
}

void RbfEncoder::encode(std::span<const float> x, std::span<float> h) const {
  assert(x.size() == input_dim());
  assert(h.size() == output_dim());
  // One fused kernel call over the whole contiguous D x F base block.
  core::active_kernels().cos_rbf_rows(bases_.data(), output_dim(),
                                      input_dim(), x.data(), biases_.data(),
                                      h.data());
}

void RbfEncoder::encode_dims(std::span<const float> x,
                             std::span<const std::size_t> dims,
                             std::span<float> h) const {
  assert(x.size() == input_dim());
  assert(h.size() == output_dim());
  const core::Kernels& k = core::active_kernels();
  for (std::size_t d : dims) {
    assert(d < output_dim());
    // rows = 1 calls are guaranteed bit-identical to the fused full-encode
    // (kernels.hpp contract), so regenerated columns match a fresh encode.
    k.cos_rbf_rows(bases_.row(d).data(), 1, input_dim(), x.data(),
                   &biases_[d], &h[d]);
  }
}

void RbfEncoder::encode_tile_block(const core::Matrix& x, std::size_t begin,
                                   std::size_t end, float* out,
                                   std::size_t out_stride,
                                   const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  const std::size_t m = end - begin;
  if (m == 0) return;
  const std::size_t dims = output_dim();
  const std::size_t features = input_dim();
  const core::EncodeTilePlan plan = exec.plan_encode_tile(dims, features);
  const core::Kernels& k = exec.kernels();
  // Walk the base matrix in L2-resident panels; the tile kernel replays
  // each panel row across the whole flow block. x rows [begin, end) are
  // contiguous at stride x.cols(), so the kernel streams them directly.
  for (std::size_t p = 0; p < dims; p += plan.panel_rows) {
    const std::size_t pr = std::min(plan.panel_rows, dims - p);
    k.cos_rbf_tile_f32(bases_.data() + p * features, pr, features,
                       x.row(begin).data(), m, x.cols(),
                       biases_.data() + p, out + p, out_stride);
  }
}

void RbfEncoder::encode_batch_dims(const core::Matrix& x,
                                   std::span<const std::size_t> dims,
                                   core::Matrix& h,
                                   const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  assert(h.rows() == x.rows() && h.cols() == output_dim());
  if (dims.empty() || x.rows() == 0) return;
  // Gather the touched dimensions' private state once: a contiguous
  // |dims| x F base block plus a bias vector. Each sample then refreshes
  // in one fused kernel pass; cos_rbf_rows' rows=N == N x rows=1 contract
  // keeps every value bit-identical to the per-dimension default.
  const std::size_t nd = dims.size();
  const std::size_t features = input_dim();
  core::Matrix gathered_bases(nd, features);
  std::vector<float> gathered_biases(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    assert(dims[j] < output_dim());
    const auto src = bases_.row(dims[j]);
    std::copy(src.begin(), src.end(), gathered_bases.row(j).begin());
    gathered_biases[j] = biases_[dims[j]];
  }
  const core::Kernels& k = exec.kernels();
  exec.parallel_for(
      x.rows(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<float> fresh(nd);
        for (std::size_t i = begin; i < end; ++i) {
          k.cos_rbf_rows(gathered_bases.data(), nd, features,
                         x.row(i).data(), gathered_biases.data(),
                         fresh.data());
          auto row = h.row(i);
          for (std::size_t j = 0; j < nd; ++j) row[dims[j]] = fresh[j];
        }
      },
      /*grain=*/16);
}

void RbfEncoder::regenerate(std::span<const std::size_t> dims,
                            core::Rng& rng) {
  for (std::size_t d : dims) {
    assert(d < output_dim());
    sample_row(d, rng);
  }
}

std::unique_ptr<Encoder> RbfEncoder::clone() const {
  return std::make_unique<RbfEncoder>(*this);
}

// ---- SignProjectionEncoder --------------------------------------------------

SignProjectionEncoder::SignProjectionEncoder(std::size_t input_dim,
                                             std::size_t output_dim,
                                             core::Rng& rng)
    : bases_(output_dim, input_dim) {
  assert(input_dim > 0 && output_dim > 0);
  core::fill_gaussian(rng, bases_.data(), bases_.size(), 0.0f, 1.0f);
}

void SignProjectionEncoder::encode(std::span<const float> x,
                                   std::span<float> h) const {
  assert(x.size() == input_dim());
  assert(h.size() == output_dim());
  const core::Kernels& k = core::active_kernels();
  const std::size_t cols = input_dim();
  for (std::size_t d = 0; d < output_dim(); ++d) {
    h[d] = k.dot_f32(bases_.row(d).data(), x.data(), cols) >= 0.0f ? 1.0f
                                                                   : -1.0f;
  }
}

void SignProjectionEncoder::encode_tile_block(
    const core::Matrix& x, std::size_t begin, std::size_t end, float* out,
    std::size_t out_stride, const core::ExecutionContext& exec) const {
  assert(x.cols() == input_dim());
  const std::size_t m = end - begin;
  if (m == 0) return;
  const std::size_t dims = output_dim();
  const std::size_t features = input_dim();
  const core::EncodeTilePlan plan = exec.plan_encode_tile(dims, features);
  const core::Kernels& k = exec.kernels();
  // The similarity tile already computes exactly the dots this encoder
  // signs (flows as query rows, a base panel as the class block), with
  // per-pair values bit-identical to encode()'s dot_f32 calls. The flows
  // are contiguous, so a trivial row table in this thread's reused scratch
  // feeds the kernel. The sign epilogue scatters the pr-stride panel into
  // the out rows.
  const float* const* flows = ScoringWorkspace::row_table(
      ScoringWorkspace::tl().tile_f32_rows, x.row(begin).data(), m, features);
  std::vector<float> dots(m * std::min<std::size_t>(plan.panel_rows, dims));
  for (std::size_t p = 0; p < dims; p += plan.panel_rows) {
    const std::size_t pr = std::min(plan.panel_rows, dims - p);
    k.similarities_tile_f32(flows, m, bases_.data() + p * features, pr,
                            features, dots.data());
    for (std::size_t i = 0; i < m; ++i) {
      float* dst = out + i * out_stride + p;
      const float* src = dots.data() + i * pr;
      for (std::size_t r = 0; r < pr; ++r) {
        dst[r] = src[r] >= 0.0f ? 1.0f : -1.0f;
      }
    }
  }
}

void SignProjectionEncoder::encode_dims(std::span<const float> x,
                                        std::span<const std::size_t> dims,
                                        std::span<float> h) const {
  const core::Kernels& k = core::active_kernels();
  const std::size_t cols = input_dim();
  for (std::size_t d : dims) {
    assert(d < output_dim());
    h[d] = k.dot_f32(bases_.row(d).data(), x.data(), cols) >= 0.0f ? 1.0f
                                                                   : -1.0f;
  }
}

void SignProjectionEncoder::regenerate(std::span<const std::size_t> dims,
                                       core::Rng& rng) {
  for (std::size_t d : dims) {
    assert(d < output_dim());
    core::fill_gaussian(rng, bases_.row(d).data(), bases_.cols(), 0.0f, 1.0f);
  }
}

std::unique_ptr<Encoder> SignProjectionEncoder::clone() const {
  return std::make_unique<SignProjectionEncoder>(*this);
}

// ---- IdLevelEncoder ---------------------------------------------------------

IdLevelEncoder::IdLevelEncoder(std::size_t input_dim, std::size_t output_dim,
                               core::Rng& rng, std::size_t num_levels)
    : num_features_(input_dim),
      dims_(output_dim),
      num_levels_(num_levels),
      id_(input_dim * output_dim),
      level_(num_levels * output_dim) {
  assert(input_dim > 0 && output_dim > 0 && num_levels >= 2);
  for (float& v : id_) v = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  // Thermometer construction: level 0 is random; each dimension flips at
  // most once, at a uniformly random level, with probability 1/2. Adjacent
  // levels then differ in ~D/(2(Q-1)) positions while levels 0 and Q-1
  // differ in ~D/2 — i.e. the extremes are near-orthogonal.
  for (std::size_t d = 0; d < dims_; ++d) {
    const float base = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    // Level index at which this dimension flips; num_levels_ = never.
    const std::size_t flip_at =
        rng.bernoulli(0.5) ? 1 + rng.next_below(num_levels_ - 1)
                           : num_levels_;
    for (std::size_t q = 0; q < num_levels_; ++q) {
      level_[q * dims_ + d] = q >= flip_at ? -base : base;
    }
  }
}

std::size_t IdLevelEncoder::level_of(float v) const noexcept {
  const float clamped = std::clamp(v, 0.0f, 1.0f);
  auto q = static_cast<std::size_t>(clamped *
                                    static_cast<float>(num_levels_ - 1) +
                                    0.5f);
  return std::min(q, num_levels_ - 1);
}

void IdLevelEncoder::encode(std::span<const float> x,
                            std::span<float> h) const {
  assert(x.size() == num_features_);
  assert(h.size() == dims_);
  std::fill(h.begin(), h.end(), 0.0f);
  const core::Kernels& k = core::active_kernels();
  for (std::size_t f = 0; f < num_features_; ++f) {
    const float* id = id_.data() + f * dims_;
    const float* lv = level_.data() + level_of(x[f]) * dims_;
    k.mul_acc_f32(id, lv, h.data(), dims_);
  }
}

void IdLevelEncoder::encode_dims(std::span<const float> x,
                                 std::span<const std::size_t> dims,
                                 std::span<float> h) const {
  assert(x.size() == num_features_);
  for (std::size_t d : dims) h[d] = 0.0f;
  for (std::size_t f = 0; f < num_features_; ++f) {
    const float* id = id_.data() + f * dims_;
    const float* lv = level_.data() + level_of(x[f]) * dims_;
    for (std::size_t d : dims) h[d] += id[d] * lv[d];
  }
}

void IdLevelEncoder::regenerate(std::span<const std::size_t> dims,
                                core::Rng& rng) {
  // Dimension d's private state is component d of every ID and level
  // hypervector; resample them with the same flip-once construction the
  // constructor uses.
  for (std::size_t d : dims) {
    assert(d < dims_);
    for (std::size_t f = 0; f < num_features_; ++f) {
      id_[f * dims_ + d] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    }
    const float base = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const std::size_t flip_at =
        rng.bernoulli(0.5) ? 1 + rng.next_below(num_levels_ - 1)
                           : num_levels_;
    for (std::size_t q = 0; q < num_levels_; ++q) {
      level_[q * dims_ + d] = q >= flip_at ? -base : base;
    }
  }
}

std::unique_ptr<Encoder> IdLevelEncoder::clone() const {
  return std::make_unique<IdLevelEncoder>(*this);
}

// ---- serialization -----------------------------------------------------------

namespace {

void write_matrix(std::ostream& out, const core::Matrix& m) {
  core::io::write_u64(out, m.rows());
  core::io::write_u64(out, m.cols());
  core::io::write_f32_array(out, {m.data(), m.size()});
}

core::Matrix read_matrix(std::istream& in) {
  const std::size_t rows = core::io::read_u64(in);
  const std::size_t cols = core::io::read_u64(in);
  const std::vector<float> data = core::io::read_f32_array(in);
  if (data.size() != rows * cols) {
    throw std::runtime_error("matrix payload size mismatch");
  }
  core::Matrix m(rows, cols);
  std::copy(data.begin(), data.end(), m.data());
  return m;
}

}  // namespace

void RbfEncoder::serialize(std::ostream& out) const {
  core::io::write_tag(out, "ERBF");
  core::io::write_f32(out, lengthscale_);
  write_matrix(out, bases_);
  core::io::write_f32_array(out, biases_);
}

void SignProjectionEncoder::serialize(std::ostream& out) const {
  core::io::write_tag(out, "ESGN");
  write_matrix(out, bases_);
}

void IdLevelEncoder::serialize(std::ostream& out) const {
  core::io::write_tag(out, "EIDL");
  core::io::write_u64(out, num_features_);
  core::io::write_u64(out, dims_);
  core::io::write_u64(out, num_levels_);
  core::io::write_f32_array(out, id_);
  core::io::write_f32_array(out, level_);
}

std::unique_ptr<Encoder> deserialize_encoder(std::istream& in) {
  char tag[4];
  in.read(tag, 4);
  if (!in) throw std::runtime_error("truncated encoder stream");
  const std::string kind(tag, 4);
  if (kind == "ERBF") {
    auto enc = std::unique_ptr<RbfEncoder>(new RbfEncoder());
    enc->lengthscale_ = core::io::read_f32(in);
    enc->bases_ = read_matrix(in);
    enc->biases_ = core::io::read_f32_array(in);
    if (enc->biases_.size() != enc->bases_.rows()) {
      throw std::runtime_error("rbf bias/bases mismatch");
    }
    return enc;
  }
  if (kind == "ESGN") {
    auto enc =
        std::unique_ptr<SignProjectionEncoder>(new SignProjectionEncoder());
    enc->bases_ = read_matrix(in);
    return enc;
  }
  if (kind == "EIDL") {
    auto enc = std::unique_ptr<IdLevelEncoder>(new IdLevelEncoder());
    enc->num_features_ = core::io::read_u64(in);
    enc->dims_ = core::io::read_u64(in);
    enc->num_levels_ = core::io::read_u64(in);
    enc->id_ = core::io::read_f32_array(in);
    enc->level_ = core::io::read_f32_array(in);
    if (enc->id_.size() != enc->num_features_ * enc->dims_ ||
        enc->level_.size() != enc->num_levels_ * enc->dims_) {
      throw std::runtime_error("id-level payload mismatch");
    }
    return enc;
  }
  throw std::runtime_error("unknown encoder tag: " + kind);
}

// ---- factory ----------------------------------------------------------------

const char* to_string(EncoderKind kind) noexcept {
  switch (kind) {
    case EncoderKind::kRbf:
      return "rbf";
    case EncoderKind::kSignProjection:
      return "sign-projection";
    case EncoderKind::kIdLevel:
      return "id-level";
  }
  return "unknown";
}

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, std::size_t input_dim,
                                      std::size_t output_dim, core::Rng& rng,
                                      float rbf_lengthscale) {
  switch (kind) {
    case EncoderKind::kRbf:
      return std::make_unique<RbfEncoder>(input_dim, output_dim, rng,
                                          rbf_lengthscale);
    case EncoderKind::kSignProjection:
      return std::make_unique<SignProjectionEncoder>(input_dim, output_dim,
                                                     rng);
    case EncoderKind::kIdLevel:
      return std::make_unique<IdLevelEncoder>(input_dim, output_dim, rng);
  }
  return nullptr;
}

float median_heuristic_lengthscale(const core::Matrix& x, core::Rng& rng,
                                   std::size_t max_pairs) {
  if (x.rows() < 2 || max_pairs == 0) return 1.0f;
  std::vector<float> dist_sq;
  dist_sq.reserve(max_pairs);
  for (std::size_t p = 0; p < max_pairs; ++p) {
    const std::size_t i = rng.next_below(x.rows());
    std::size_t j = rng.next_below(x.rows() - 1);
    if (j >= i) ++j;
    const auto a = x.row(i);
    const auto b = x.row(j);
    float d = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float diff = a[c] - b[c];
      d += diff * diff;
    }
    dist_sq.push_back(d);
  }
  auto mid = dist_sq.begin() +
             static_cast<std::ptrdiff_t>(dist_sq.size() / 2);
  std::nth_element(dist_sq.begin(), mid, dist_sq.end());
  const float median = *mid;
  return median > 0.0f ? std::sqrt(median) : 1.0f;
}

}  // namespace cyberhd::hdc
