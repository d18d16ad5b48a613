#include "hdc/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/kernels/kernels.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {

namespace {

// Stripe sizing of the one-shot bundle: inputs under 2 * 512 rows stay
// single-stripe (bit-identical to the historical sequential bundle into a
// zero model); larger ones split into up to 16 fixed stripes so
// initialize() parallelizes without the result depending on thread count.
constexpr std::size_t kInitStripeMinRows = 512;
constexpr std::size_t kInitMaxStripes = 16;

// Column striping of the update replay: boundaries are multiples of 16
// floats (one full zmm vector, a whole number of ymm vectors and cache
// lines), so every backend's axpy runs identical full-vector arithmetic
// inside a stripe — the bit-identity precondition. Stripes below 512
// columns aren't worth the dispatch.
constexpr std::size_t kUpdateStripeAlign = 16;
constexpr std::size_t kUpdateMinStripeCols = 512;

}  // namespace

// ---- InitAccumulator --------------------------------------------------------

InitAccumulator::InitAccumulator(std::size_t num_classes, std::size_t dims,
                                 std::size_t total_rows)
    : total_rows_(total_rows) {
  const std::size_t stripes = std::clamp<std::size_t>(
      total_rows / kInitStripeMinRows, 1, kInitMaxStripes);
  stripe_rows_ = std::max<std::size_t>(1, (total_rows + stripes - 1) / stripes);
  stripe_sums_.assign(stripes, core::Matrix(num_classes, dims));
  stripe_means_.assign(stripes, std::vector<double>(dims, 0.0));
  stripe_counts_.assign(stripes, std::vector<std::size_t>(num_classes, 0));
}

std::size_t InitAccumulator::stripe_of(std::size_t global_row) const noexcept {
  return std::min(global_row / stripe_rows_, num_stripes() - 1);
}

std::pair<std::size_t, std::size_t> InitAccumulator::stripe_range(
    std::size_t s) const noexcept {
  const std::size_t begin = s * stripe_rows_;
  return {std::min(begin, total_rows_),
          std::min(begin + stripe_rows_, total_rows_)};
}

void InitAccumulator::accumulate(const core::Matrix& encoded,
                                 std::span<const int> labels,
                                 std::size_t begin, std::size_t end,
                                 std::size_t row_offset) {
  assert(end <= encoded.rows() && end <= labels.size());
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t s = stripe_of(row_offset + i);
    const int y = labels[i];
    assert(y >= 0 &&
           static_cast<std::size_t>(y) < stripe_counts_[s].size());
    const auto h = encoded.row(i);
    core::axpy(1.0f, h, stripe_sums_[s].row(static_cast<std::size_t>(y)));
    auto& mean = stripe_means_[s];
    for (std::size_t d = 0; d < h.size(); ++d) mean[d] += h[d];
    ++stripe_counts_[s][static_cast<std::size_t>(y)];
  }
}

void InitAccumulator::finish(HdcModel& model, const TrainerConfig& config) {
  const std::size_t num_classes = model.num_classes();
  const std::size_t dims = model.dims();
  for (std::size_t s = 0; s < num_stripes(); ++s) {
    assert(stripe_sums_[s].rows() == num_classes &&
           stripe_sums_[s].cols() == dims);
    for (std::size_t c = 0; c < num_classes; ++c) {
      core::axpy(1.0f, stripe_sums_[s].row(c), model.class_vector(c));
    }
  }
  if (config.center_initialization && total_rows_ > 0) {
    // Grand-mean encoding, then subtract each class's share of it so class
    // hypervectors start with purely discriminative content. Stripes merge
    // in index order, keeping the sums independent of how rows were fed in.
    std::vector<double> mean(dims, 0.0);
    std::vector<std::size_t> counts(num_classes, 0);
    for (std::size_t s = 0; s < num_stripes(); ++s) {
      for (std::size_t d = 0; d < dims; ++d) mean[d] += stripe_means_[s][d];
      for (std::size_t c = 0; c < num_classes; ++c) {
        counts[c] += stripe_counts_[s][c];
      }
    }
    const double inv_n = 1.0 / static_cast<double>(total_rows_);
    for (std::size_t c = 0; c < num_classes; ++c) {
      auto cv = model.class_vector(c);
      const double share = static_cast<double>(counts[c]) * inv_n;
      for (std::size_t d = 0; d < cv.size(); ++d) {
        cv[d] -= static_cast<float>(share * mean[d]);
      }
    }
  }
}

// ---- UpdateAccumulator ------------------------------------------------------

void UpdateAccumulator::collect(const float* tile, std::size_t rows,
                                const int* labels,
                                std::span<const float> scores,
                                std::size_t num_classes, std::size_t dims,
                                EpochStats& stats) {
  assert(scores.size() >= rows * num_classes);
  tile_ = tile;
  dims_ = dims;
  updates_.clear();
  const auto step_weight = [&](float score) {
    return config_.similarity_weighted
               ? config_.learning_rate * (1.0f - score)
               : config_.learning_rate;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    const auto truth = static_cast<std::size_t>(labels[r]);
    const std::span<const float> row_scores{scores.data() + r * num_classes,
                                            num_classes};
    const std::size_t pred = core::argmax(row_scores);
    if (pred != truth) {
      ++stats.mispredicted;
      // Truth before pred, matching the serial rule's axpy order (only the
      // per-class subsequence order matters — the axpys touch different
      // model rows — but keeping it identical costs nothing).
      updates_.push_back({static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(truth),
                          step_weight(row_scores[truth])});
      updates_.push_back({static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(pred),
                          -step_weight(row_scores[pred])});
    } else if (config_.reinforce_correct) {
      updates_.push_back({static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(truth),
                          step_weight(row_scores[truth])});
    }
  }
}

void UpdateAccumulator::apply(HdcModel& model,
                              const core::ExecutionContext& exec,
                              bool parallel) const {
  if (updates_.empty()) return;
  assert(model.dims() == dims_);
  const std::size_t dims = dims_;
  const core::Kernels& k = exec.kernels();
  // Replay the whole update list restricted to columns [d0, d1): every
  // class's updates land in visit order, and the 16-float boundary keeps
  // each element's axpy arithmetic identical to a full-row call.
  const auto replay = [&](std::size_t d0, std::size_t d1) {
    for (const Update& u : updates_) {
      k.axpy_f32(u.weight, tile_ + u.row * dims + d0,
                 model.class_vector(u.cls).data() + d0, d1 - d0);
    }
  };
  const std::size_t stripes =
      std::min(exec.workers(),
               std::max<std::size_t>(1, dims / kUpdateMinStripeCols));
  if (!parallel || exec.pool() == nullptr || stripes <= 1) {
    replay(0, dims);
    return;
  }
  const std::size_t stripe_cols =
      ((dims + stripes - 1) / stripes + kUpdateStripeAlign - 1) /
      kUpdateStripeAlign * kUpdateStripeAlign;
  exec.parallel_for(
      stripes,
      [&](std::size_t s_begin, std::size_t s_end) {
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const std::size_t d0 = s * stripe_cols;
          if (d0 >= dims) continue;
          replay(d0, std::min(dims, d0 + stripe_cols));
        }
      },
      /*grain=*/1);
}

// ---- Trainer ----------------------------------------------------------------

void Trainer::initialize(HdcModel& model, const core::Matrix& encoded,
                         std::span<const int> labels) const {
  assert(encoded.rows() == labels.size());
  assert(encoded.cols() == model.dims());
  InitAccumulator acc(model.num_classes(), model.dims(), encoded.rows());
  // One task per stripe: the partition is fixed by the row count, so the
  // merged result is the same whichever worker handles which stripe.
  exec_.parallel_for(
      acc.num_stripes(),
      [&](std::size_t s_begin, std::size_t s_end) {
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const auto [begin, end] = acc.stripe_range(s);
          acc.accumulate(encoded, labels, begin, end, /*row_offset=*/0);
        }
      },
      /*grain=*/1);
  acc.finish(model, config_);
}

std::vector<std::size_t> Trainer::epoch_order(std::size_t n, core::Rng& rng,
                                              bool shuffle) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (shuffle) rng.shuffle(order);
  return order;
}

void Trainer::update_tile(HdcModel& model, const float* tile,
                          std::size_t rows, const int* labels,
                          EpochStats& stats, std::span<float> scores,
                          std::span<float> class_norms,
                          UpdateAccumulator& acc, bool parallel) const {
  const std::size_t num_classes = model.num_classes();
  const std::size_t dims = model.dims();
  assert(scores.size() >= rows * num_classes);
  assert(class_norms.size() == num_classes);
  const core::Kernels& k = exec_.kernels();
  // Class norms once per tile — exactly the per-sample cadence when
  // batch_size == 1, where this runs once per sample as similarities() did.
  for (std::size_t c = 0; c < num_classes; ++c) {
    class_norms[c] = core::norm2(model.class_vector(c));
  }
  const float* classes = model.weights().data();
  // Frozen-model scoring: every row's cosines depend only on the tile and
  // the pre-update model, so the row range splits freely across workers;
  // the per-dot kernel contract keeps results identical for any split.
  // Sub-blocking keeps the block's rows L2-resident across the kernel pass
  // and the immediately following norm pass (one cold read per row, not
  // two); the block size is cache-derived, not hand-tuned.
  const std::size_t score_block = exec_.score_block_rows(dims);
  const auto score_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; b += score_block) {
      const std::size_t block = std::min(score_block, end - b);
      // The tile is contiguous: a trivial row table in the worker's own
      // reused scratch feeds the row-pointer kernel.
      const float* const* rows_tbl = ScoringWorkspace::row_table(
          ScoringWorkspace::tl().tile_f32_rows, tile + b * dims, block, dims);
      k.similarities_tile_f32(rows_tbl, block, classes, num_classes, dims,
                              scores.data() + b * num_classes);
      for (std::size_t r = b; r < b + block; ++r) {
        const float hn = core::norm2({tile + r * dims, dims});
        float* row_scores = scores.data() + r * num_classes;
        for (std::size_t c = 0; c < num_classes; ++c) {
          row_scores[c] =
              HdcModel::cosine_from_dot(row_scores[c], hn, class_norms[c]);
        }
      }
    }
  };
  if (parallel && rows > 1) {
    exec_.parallel_for(rows, score_rows, /*grain=*/8);
  } else {
    score_rows(0, rows);
  }
  // Update pass: serial decision sweep over the frozen scores, then the
  // striped replay — thread-parallel, deterministic for every worker count.
  acc.collect(tile, rows, labels, scores, num_classes, dims, stats);
  acc.apply(model, exec_, parallel);
}

EpochStats Trainer::train_epoch(HdcModel& model, const core::Matrix& encoded,
                                std::span<const int> labels,
                                core::Rng& rng) const {
  assert(encoded.rows() == labels.size());
  assert(encoded.cols() == model.dims());
  const std::size_t n = encoded.rows();
  const std::size_t num_classes = model.num_classes();
  const std::size_t dims = encoded.cols();
  const std::vector<std::size_t> order =
      epoch_order(n, rng, config_.shuffle);

  EpochStats stats;
  stats.samples = n;
  if (n == 0) return stats;
  // Clamp the tile to the data so scratch stays O(min(batch, n) x D).
  const std::size_t batch = std::min(resolved_batch_size(dims), n);
  std::vector<float> class_norms(num_classes);
  std::vector<float> scores(batch * num_classes);
  UpdateAccumulator acc(config_);
  core::Matrix gathered;
  std::vector<int> gathered_labels;
  if (batch > 1) {
    gathered.resize(batch, dims);
    gathered_labels.resize(batch);
  }
  for (std::size_t t = 0; t < n; t += batch) {
    const std::size_t m = std::min(batch, n - t);
    if (batch == 1) {
      // No gather: score the encoded row in place. One row through the
      // tile kernel is the classic sequential rule, bit-exactly.
      const std::size_t idx = order[t];
      update_tile(model, encoded.row(idx).data(), 1, &labels[idx], stats,
                  scores, class_norms, acc, /*parallel=*/false);
    } else {
      // Shuffled rows are scattered; gather the tile so the kernel streams
      // one contiguous block (and the update pass reuses the hot copy).
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t idx = order[t + j];
        std::copy_n(encoded.row(idx).data(), dims, gathered.row(j).data());
        gathered_labels[j] = labels[idx];
      }
      update_tile(model, gathered.data(), m, gathered_labels.data(), stats,
                  scores, class_norms, acc, /*parallel=*/true);
    }
  }
  return stats;
}

void Trainer::train_tile(HdcModel& model, const core::Matrix& tile,
                         std::span<const int> labels,
                         EpochStats& stats) const {
  const std::size_t n = labels.size();
  assert(tile.rows() >= n);
  assert(tile.cols() == model.dims());
  if (n == 0) return;
  const std::size_t num_classes = model.num_classes();
  const std::size_t batch = std::min(resolved_batch_size(tile.cols()), n);
  std::vector<float> class_norms(num_classes);
  std::vector<float> scores(batch * num_classes);
  UpdateAccumulator acc(config_);
  for (std::size_t t = 0; t < n; t += batch) {
    const std::size_t m = std::min(batch, n - t);
    update_tile(model, tile.row(t).data(), m, labels.data() + t, stats,
                scores, class_norms, acc, /*parallel=*/m > 1);
  }
}

EpochStats Trainer::train(HdcModel& model, const core::Matrix& encoded,
                          std::span<const int> labels, std::size_t epochs,
                          core::Rng& rng) const {
  EpochStats last;
  for (std::size_t e = 0; e < epochs; ++e) {
    last = train_epoch(model, encoded, labels, rng);
  }
  return last;
}

double Trainer::evaluate(const HdcModel& model, const core::Matrix& encoded,
                         std::span<const int> labels,
                         const core::ExecutionContext& exec) {
  assert(encoded.rows() == labels.size());
  if (encoded.rows() == 0) return 0.0;
  core::Matrix scores;
  model.similarities_batch(encoded, scores, exec);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < encoded.rows(); ++i) {
    if (core::argmax(scores.row(i)) == static_cast<std::size_t>(labels[i])) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(encoded.rows());
}

}  // namespace cyberhd::hdc
