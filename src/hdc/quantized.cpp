#include "hdc/quantized.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/exec/execution_context.hpp"
#include "core/kernels/kernels.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {

QuantizedHdcModel::QuantizedHdcModel(const HdcModel& model, int bits)
    : bits_(bits), dims_(model.dims()) {
  if (!core::is_supported_bitwidth(bits)) {
    throw std::invalid_argument("unsupported bitwidth");
  }
  if (bits_ == 1) {
    packed_.reserve(model.num_classes());
    for (std::size_t c = 0; c < model.num_classes(); ++c) {
      packed_.push_back(core::pack_signs(model.class_vector(c)));
    }
  } else {
    levels_.reserve(model.num_classes());
    for (std::size_t c = 0; c < model.num_classes(); ++c) {
      levels_.push_back(core::quantize(model.class_vector(c), bits_));
    }
  }
  resync();
}

void QuantizedHdcModel::resync() {
  classes_i8_.clear();
  level_sumsq_.clear();
  classes_1b_.clear();
  if (bits_ == 1) {
    // Gather the packed class words into one contiguous classes x words
    // block — the layout the hamming tile kernel streams. Rebuilt here
    // rather than on every scoring call, which is why in-place
    // packed_classes() editors must resync() (see the header contract).
    const std::size_t words = packed_.empty() ? 0 : packed_[0].num_words();
    classes_1b_.resize(packed_.size() * words);
    for (std::size_t c = 0; c < packed_.size(); ++c) {
      std::memcpy(classes_1b_.data() + c * words, packed_[c].words(),
                  words * sizeof(std::uint64_t));
    }
    return;
  }
  if (bits_ > 8) return;
  classes_i8_.resize(levels_.size() * dims_);
  level_sumsq_.reserve(levels_.size());
  for (std::size_t c = 0; c < levels_.size(); ++c) {
    const core::QuantizedVector& qv = levels_[c];
    std::int8_t* mirror = classes_i8_.data() + c * dims_;
    double sumsq = 0.0;
    for (std::size_t i = 0; i < qv.levels.size(); ++i) {
      // Levels at <= 8 bits live in [-127, 127]; the cast is lossless.
      mirror[i] = static_cast<std::int8_t>(qv.levels[i]);
      const double v = qv.levels[i];
      sumsq += v * v;
    }
    level_sumsq_.push_back(sumsq);
  }
}

std::size_t QuantizedHdcModel::num_classes() const noexcept {
  return bits_ == 1 ? packed_.size() : levels_.size();
}

void QuantizedHdcModel::similarities(std::span<const float> h,
                                     std::span<float> scores) const {
  assert(h.size() == dims_);
  assert(scores.size() == num_classes());
  if (bits_ == 1) {
    const core::PackedBits q = core::pack_signs(h);
    for (std::size_t c = 0; c < packed_.size(); ++c) {
      scores[c] = core::cosine_bipolar(q, packed_[c]);
    }
    return;
  }
  const core::QuantizedVector q = core::quantize(h, bits_);
  if (bits_ <= 8) {
    // int8 fast path: SIMD integer dot against the cached class mirrors.
    // Matches cosine_quantized() bit-for-bit — all intermediate sums are
    // exact integers well inside double's mantissa, and the final
    // dot / (sqrt(na) * sqrt(nb)) expression is identical.
    const core::Kernels& kernels = core::active_kernels();
    std::vector<std::int8_t> q8(q.levels.size());
    double qn = 0.0;
    for (std::size_t i = 0; i < q.levels.size(); ++i) {
      q8[i] = static_cast<std::int8_t>(q.levels[i]);
      const double v = q.levels[i];
      qn += v * v;
    }
    for (std::size_t c = 0; c < level_sumsq_.size(); ++c) {
      if (qn == 0.0 || level_sumsq_[c] == 0.0) {
        scores[c] = 0.0f;
        continue;
      }
      const double dot = static_cast<double>(kernels.quantized_dot_i8(
          q8.data(), classes_i8_.data() + c * dims_, q8.size()));
      scores[c] = static_cast<float>(
          dot / (std::sqrt(qn) * std::sqrt(level_sumsq_[c])));
    }
    return;
  }
  for (std::size_t c = 0; c < levels_.size(); ++c) {
    scores[c] = core::cosine_quantized(q, levels_[c]);
  }
}

void QuantizedHdcModel::pack_row(std::span<const float> h,
                                 unsigned char* dst) const {
  assert(bits_ <= 8);
  assert(h.size() == dims_);
  if (bits_ == 1) {
    const core::PackedBits q = core::pack_signs(h);
    std::memcpy(dst, q.words(), q.num_words() * sizeof(std::uint64_t));
    return;
  }
  const core::QuantizedVector q = core::quantize(h, bits_);
  auto* levels = reinterpret_cast<std::int8_t*>(dst);
  for (std::size_t i = 0; i < dims_; ++i) {
    // Levels at <= 8 bits live in [-127, 127]; the cast is lossless.
    levels[i] = static_cast<std::int8_t>(q.levels[i]);
  }
}

void QuantizedHdcModel::similarities_packed(
    const PackedRows& h, float* out,
    const core::ExecutionContext& exec) const {
  assert(bits_ <= 8);
  assert(h.bits() == bits_);
  assert(h.dims() == dims_);
  const std::size_t classes = num_classes();
  if (h.rows() == 0 || classes == 0) return;
  const core::Kernels& k = exec.kernels();
  const std::size_t tile_rows = exec.score_block_rows(dims_);
  if (bits_ == 1) {
    // The class words stream from the contiguous classes_1b_ block that
    // resync() maintains — no per-call gather (in-place packed_classes()
    // editors must resync(), like level_classes() editors always had to).
    const std::size_t words = h.words();
    assert(classes_1b_.size() == classes * words);
    const std::uint64_t* const* rows_tbl = h.word_row_ptrs();
    exec.parallel_for(
        h.rows(),
        [&](std::size_t begin, std::size_t end) {
          // Accumulator tile from the worker's own workspace: grown once,
          // reused across flushes.
          std::vector<std::uint32_t>& ham = ScoringWorkspace::tl().ham_tile;
          if (ham.size() < tile_rows * classes) {
            ham.resize(tile_rows * classes);
          }
          for (std::size_t t = begin; t < end; t += tile_rows) {
            const std::size_t rows = std::min(tile_rows, end - t);
            k.hamming_tile_1b(rows_tbl + t, rows, classes_1b_.data(),
                              classes, words, ham.data());
            for (std::size_t r = 0; r < rows; ++r) {
              float* dst = out + (t + r) * classes;
              for (std::size_t c = 0; c < classes; ++c) {
                // Exactly cosine_bipolar(): dot = D - 2 * hamming, exact
                // in int64, divided by D in float.
                const std::int64_t dot =
                    static_cast<std::int64_t>(dims_) -
                    2 * static_cast<std::int64_t>(ham[r * classes + c]);
                dst[c] =
                    static_cast<float>(dot) / static_cast<float>(dims_);
              }
            }
          }
        },
        /*grain=*/32);
    return;
  }
  const std::int8_t* const* rows_tbl = h.i8_row_ptrs();
  exec.parallel_for(
      h.rows(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::int64_t>& dots = ScoringWorkspace::tl().dot_tile;
        if (dots.size() < tile_rows * classes) {
          dots.resize(tile_rows * classes);
        }
        for (std::size_t t = begin; t < end; t += tile_rows) {
          const std::size_t rows = std::min(tile_rows, end - t);
          k.similarities_tile_i8(rows_tbl + t, rows, classes_i8_.data(),
                                 classes, dims_, dots.data());
          for (std::size_t r = 0; r < rows; ++r) {
            // The query's sum of squared levels is an exact integer
            // (<= D * 127^2, far inside double's mantissa), recomputed
            // from the packed row itself — the same value similarities()
            // accumulates on the float detour, in any summation order.
            const double qn = static_cast<double>(k.quantized_dot_i8(
                rows_tbl[t + r], rows_tbl[t + r], dims_));
            float* dst = out + (t + r) * classes;
            for (std::size_t c = 0; c < classes; ++c) {
              if (qn == 0.0 || level_sumsq_[c] == 0.0) {
                dst[c] = 0.0f;
                continue;
              }
              const double dot =
                  static_cast<double>(dots[r * classes + c]);
              dst[c] = static_cast<float>(
                  dot / (std::sqrt(qn) * std::sqrt(level_sumsq_[c])));
            }
          }
        }
      },
      /*grain=*/32);
}

std::size_t QuantizedHdcModel::predict_encoded(
    std::span<const float> h) const {
  std::vector<float> scores(num_classes());
  similarities(h, scores);
  return core::argmax(scores);
}

std::size_t QuantizedHdcModel::storage_bits() const noexcept {
  return dims_ * num_classes() * static_cast<std::size_t>(bits_);
}

QuantizedCyberHd::QuantizedCyberHd(const CyberHdClassifier& trained,
                                   int bits)
    : encoder_(trained.encoder().clone()),
      model_(trained.model(), bits),
      exec_(trained.config().parallel ? core::ExecutionContext::process()
                                      : core::ExecutionContext::serial()) {
  set_encode_cache(EncodeCache::capacity_from_env());
}

void QuantizedCyberHd::fit(const core::Matrix&, std::span<const int>,
                           std::size_t) {
  throw std::logic_error(
      "QuantizedCyberHd is a post-training snapshot; train a "
      "CyberHdClassifier and re-quantize instead");
}

int QuantizedCyberHd::predict(std::span<const float> x) const {
  std::vector<float> encoded(encoder_->output_dim());
  encoder_->encode(x, encoded);
  return static_cast<int>(model_.predict_encoded(encoded));
}

void QuantizedCyberHd::scores(std::span<const float> x,
                              std::span<float> out) const {
  assert(out.size() == model_.num_classes());
  std::vector<float> encoded(encoder_->output_dim());
  encoder_->encode(x, encoded);
  model_.similarities(encoded, out);
}

std::size_t QuantizedCyberHd::preferred_batch_rows(
    const core::Matrix&) const {
  if (model_.bits() <= 8) {
    // Plan from the PACKED bytes per row: the same third-of-L3 budget
    // holds 4x (int8) to 32x (1-bit) more rows than a float sub-batch,
    // so serving batches grow accordingly.
    return exec_
        .plan_serving_bytes(model_.packed_row_bytes(),
                            exec_.score_block_rows(model_.dims()))
        .batch_rows;
  }
  return exec_.plan_serving(model_.dims()).batch_rows;
}

void QuantizedCyberHd::encode_tile_packed(const core::Matrix& x,
                                          std::size_t begin, std::size_t end,
                                          unsigned char* dst,
                                          std::size_t dst_stride) const {
  assert(model_.bits() <= 8);
  assert(dst_stride >= model_.packed_row_bytes());
  const std::size_t m = end - begin;
  if (m == 0) return;
  const std::size_t dims = model_.dims();
  const core::EncodeTilePlan plan =
      exec_.plan_encode_tile(dims, encoder_->input_dim());
  // Quantize in the tile epilogue: each flow block tile-encodes into a
  // per-worker flow_rows x D float scratch (L2-resident, reused across
  // blocks), and every finished row quantizes straight into its packed
  // slot. The quantize scale is a full-row statistic, so the row-sized
  // float scratch is the minimum staging possible — no batch-sized float
  // matrix. pack_row is the one quantize expression, so the packed bytes
  // match encode-then-pack bit for bit.
  exec_.parallel_for(
      m,
      [&](std::size_t lo, std::size_t hi) {
        thread_local core::Matrix scratch;
        for (std::size_t t = lo; t < hi; t += plan.flow_rows) {
          const std::size_t e = std::min(hi, t + plan.flow_rows);
          const std::size_t rows = e - t;
          if (scratch.rows() < rows || scratch.cols() != dims) {
            scratch.resize(plan.flow_rows, dims);
          }
          encoder_->encode_tile_block(x, begin + t, begin + e,
                                      scratch.data(), dims, exec_);
          for (std::size_t i = 0; i < rows; ++i) {
            model_.pack_row(scratch.row(i), dst + (t + i) * dst_stride);
          }
        }
      },
      /*grain=*/plan.flow_rows);
}

void QuantizedCyberHd::encode_packed_misses(const core::Matrix& x,
                                            std::size_t begin,
                                            std::span<const std::size_t> rows,
                                            unsigned char* o,
                                            std::size_t o_stride,
                                            ScoringWorkspace& ws) const {
  // Batched miss path: gather the lookup's misses into one contiguous
  // block, run them through the fused tile-encode-and-pack, scatter the
  // packed rows (a packed_row_bytes memcpy each) to their slots. The
  // gather block and the packed block live in the workspace — grown once,
  // reused every flush.
  const std::size_t k = rows.size();
  const std::size_t row_bytes = model_.packed_row_bytes();
  ws.miss_raw.resize(k, x.cols());
  for (std::size_t j = 0; j < k; ++j) {
    const auto src = x.row(begin + rows[j]);
    std::copy(src.begin(), src.end(), ws.miss_raw.row(j).begin());
  }
  if (ws.miss_packed.size() < k * row_bytes) {
    ws.miss_packed.resize(k * row_bytes);
  }
  encode_tile_packed(ws.miss_raw, 0, k, ws.miss_packed.data(), row_bytes);
  for (std::size_t j = 0; j < k; ++j) {
    std::memcpy(o + rows[j] * o_stride, ws.miss_packed.data() + j * row_bytes,
                row_bytes);
  }
}

PackedBatch QuantizedCyberHd::encode_block_packed(
    const core::Matrix& x, std::size_t begin, std::size_t end,
    PackedStaging& staging) const {
  // A thin materializer over the one stage-1 driver: misses pack straight
  // into `staging`, then borrowed hits and in-batch replays are copied
  // into their rows and the pins released.
  const std::size_t m = end - begin;
  const std::size_t dims = model_.dims();
  const int bits = model_.bits();
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  encode_block_packed_borrowed(x, begin, end, staging, ws);
  ws.materialize(staging.prepare(m, dims, bits), m,
                 model_.packed_row_bytes());
  return staging.view(m, dims, bits);
}

PackedRows QuantizedCyberHd::encode_block_packed_borrowed(
    const core::Matrix& x, std::size_t begin, std::size_t end,
    PackedStaging& staging, ScoringWorkspace& ws) const {
  assert(model_.bits() <= 8);
  const std::size_t m = end - begin;
  const std::size_t dims = model_.dims();
  const int bits = model_.bits();
  unsigned char* out = staging.prepare(m, dims, bits);
  const std::size_t row_bytes = model_.packed_row_bytes();
  if (encode_cache_ != nullptr) {
    encode_cache_->encode_entries_borrowed(
        x, begin, end, out, row_bytes,
        [&](std::span<const std::size_t> rows, unsigned char* o,
            std::size_t o_stride) {
          encode_packed_misses(x, begin, rows, o, o_stride, ws);
        },
        ws, exec_);
  } else {
    encode_tile_packed(x, begin, end, out, row_bytes);
    ScoringWorkspace::row_table(ws.entry_ptrs,
                                static_cast<const unsigned char*>(out), m,
                                row_bytes);
  }
  // Retype the entry pointers into the table the scoring tile consumes.
  if (bits == 1) return {ws.typed_rows(ws.word_rows, m), m, dims};
  return {ws.typed_rows(ws.i8_rows, m), m, dims, bits};
}

void QuantizedCyberHd::scores_encoded(const PackedBatch& h,
                                      core::Matrix& out) const {
  assert(h.dims() == model_.dims());
  assert(h.bits() == model_.bits());
  out.resize(h.rows(), model_.num_classes());
  if (h.rows() == 0) return;
  // Contiguous adapter: a trivial row table over the packed rows.
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  const std::size_t n = h.rows();
  const PackedRows rows =
      h.bits() == 1
          ? PackedRows(ScoringWorkspace::row_table(ws.word_rows,
                                                   h.word_row(0), n,
                                                   h.words()),
                       n, h.dims())
          : PackedRows(ScoringWorkspace::row_table(ws.i8_rows, h.i8_row(0),
                                                   n, h.dims()),
                       n, h.dims(), h.bits());
  model_.similarities_packed(rows, out.row(0).data(), exec_);
}

void QuantizedCyberHd::scores_block(const core::Matrix& x,
                                    std::size_t begin, std::size_t end,
                                    core::Matrix& out) const {
  const std::size_t m = end - begin;
  if (m == 0) return;
  if (model_.bits() <= 8) {
    // Quantized end to end, zero-copy: stage 1 packs each row at encode
    // time, PINS cache hits in the ring instead of memcpying them out,
    // and encodes only the misses into the thread-local staging; stage 2
    // streams the resulting row view through the integer tile kernels. No
    // float row crosses the stage boundary, no hit byte is copied, and
    // every score is bit-identical to quantize-then-similarities().
    thread_local PackedStaging staging;
    ScoringWorkspace& ws = ScoringWorkspace::tl();
    const PackedRows packed =
        encode_block_packed_borrowed(x, begin, end, staging, ws);
    model_.similarities_packed(packed, out.row(begin).data(), exec_);
    ws.borrow.release();
    return;
  }
  // bits 16/32 keep the float pipeline: the float stage-1 driver, then
  // per-row quantize-and-score of the row view into the block's output
  // rows. Staging is thread_local so the block loop reuses one allocation
  // per calling thread.
  thread_local core::Matrix staging;
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  const EncodedRows encoded = encode_block_borrowed(
      *encoder_, encode_cache_.get(), x, begin, end, staging, ws, exec_);
  exec_.parallel_for(
      m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          model_.similarities(encoded.row(i), out.row(begin + i));
        }
      },
      /*grain=*/32);
  ws.borrow.release();
}

void QuantizedCyberHd::set_encode_cache(std::size_t capacity_rows,
                                        std::size_t shards) {
  if (capacity_rows == 0) {
    encode_cache_.reset();
    return;
  }
  // bits <= 8: arm the ring with the packed entry size — the same row
  // capacity costs 1/4 (int8) to 1/32 (1-bit) of the float bytes, or put
  // the other way, the default 4096 rows of budget hold 4-32x more flows.
  const std::size_t entry_bytes =
      model_.bits() <= 8 ? model_.packed_row_bytes() : 0;
  encode_cache_ = std::make_unique<EncodeCache>(
      encoder_->input_dim(), encoder_->output_dim(), capacity_rows, shards,
      entry_bytes);
}

std::string QuantizedCyberHd::name() const {
  return "CyberHD-q" + std::to_string(model_.bits()) +
         "(D=" + std::to_string(model_.dims()) + ")";
}

}  // namespace cyberhd::hdc
