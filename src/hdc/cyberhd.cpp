#include "hdc/cyberhd.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/io.hpp"

namespace cyberhd::hdc {

CyberHdClassifier::CyberHdClassifier(CyberHdConfig config)
    : config_(config) {
  if (config_.dims == 0) {
    throw std::invalid_argument("CyberHdConfig.dims must be positive");
  }
  if (config_.regen_rate < 0.0 || config_.regen_rate >= 1.0) {
    throw std::invalid_argument(
        "CyberHdConfig.regen_rate must be in [0, 1)");
  }
}

void CyberHdClassifier::fit(const core::Matrix& x, std::span<const int> y,
                            std::size_t num_classes) {
  assert(x.rows() == y.size());
  if (x.rows() == 0) {
    throw std::invalid_argument("fit() requires at least one sample");
  }
  num_classes_ = num_classes;
  report_ = {};

  core::Rng rng(config_.seed);
  core::Rng encoder_rng = rng.fork(1);
  core::Rng train_rng = rng.fork(2);
  core::Rng regen_rng = rng.fork(3);

  float lengthscale = config_.lengthscale;
  if (config_.encoder == EncoderKind::kRbf && lengthscale <= 0.0f) {
    core::Rng median_rng = rng.fork(4);
    lengthscale = config_.lengthscale_factor *
                  median_heuristic_lengthscale(x, median_rng);
  }
  encoder_ = make_encoder(config_.encoder, x.cols(), config_.dims,
                          encoder_rng, lengthscale);
  model_ = HdcModel(num_classes, config_.dims);
  regen_.emplace(config_.dims, config_.regen_rate,
                 config_.regen_anneal ? config_.regen_steps : 0);

  Trainer trainer(TrainerConfig{
                      .learning_rate = config_.learning_rate,
                      .similarity_weighted = config_.similarity_weighted_update,
                      .batch_size = config_.batch_size},
                  exec());

  // The schedule control flow lives exactly once, in the driver; the two
  // fit paths below differ only in the phase callbacks they plug in.
  const ScheduleDriver driver(
      ScheduleConfig{.regen_rate = config_.regen_rate,
                     .regen_steps = config_.regen_steps,
                     .epochs_per_step = config_.epochs_per_step,
                     .final_epochs = config_.final_epochs},
      *regen_, model_, *encoder_, regen_rng);

  // Streamed fit: encode→train in O(tile x D) chunks instead of holding
  // the n x D encoded training set. Engages only when the tile is actually
  // smaller than the set — otherwise the in-memory path is strictly better
  // (it encodes each sample once per fit, not once per epoch).
  if (config_.train_tile_rows > 0 && config_.train_tile_rows < x.rows()) {
    fit_streamed(x, y, num_classes, trainer, driver, train_rng);
  } else {
    fit_in_memory(x, y, num_classes, trainer, driver, train_rng);
  }

  // (Re)fitting replaces the encoder, so every cached encoding is stale;
  // re-arm the serving cache at the env-configured capacity.
  set_encode_cache(EncodeCache::capacity_from_env());
}

void CyberHdClassifier::fit_in_memory(const core::Matrix& x,
                                      std::span<const int> y,
                                      std::size_t num_classes,
                                      const Trainer& trainer,
                                      const ScheduleDriver& driver,
                                      core::Rng& train_rng) {
  const core::ExecutionContext& exec_ctx = exec();
  // Encode the whole training set once; every phase reads from it.
  core::Matrix encoded;
  encoder_->encode_batch(x, encoded, exec_ctx);
  report_.peak_encode_rows = encoded.rows();

  SchedulePhases phases;
  phases.bundle = [&] { trainer.initialize(model_, encoded, y); };
  phases.run_epoch = [&] {
    return trainer.train_epoch(model_, encoded, y, train_rng);
  };
  phases.refresh_dims = [&](std::span<const std::size_t> dims) {
    // Refresh only the touched columns of the cached encoded matrix, then
    // (when configured) re-bundle them into the model.
    encoder_->encode_batch_dims(x, dims, encoded, exec_ctx);
    if (config_.rebundle_after_regen) {
      RegenRebundle rebundle(num_classes, dims);
      for (std::size_t i = 0; i < encoded.rows(); ++i) {
        rebundle.add_row(encoded.row(i), static_cast<std::size_t>(y[i]));
      }
      rebundle.apply(model_, y);
    }
  };
  driver.run(report_, phases);
}

void CyberHdClassifier::fit_streamed(const core::Matrix& x,
                                     std::span<const int> y,
                                     std::size_t num_classes,
                                     const Trainer& trainer,
                                     const ScheduleDriver& driver,
                                     core::Rng& train_rng) {
  const core::ExecutionContext& exec_ctx = exec();
  const std::size_t n = x.rows();
  const std::size_t tile = config_.train_tile_rows;
  report_.peak_encode_rows = tile;

  // The one resident encode buffer — every phase refills it in place.
  core::Matrix enc_tile(tile, config_.dims);
  std::vector<int> tile_labels(tile);

  // Run `op(i)` for i in [0, m), split across the context's pool. Per-row
  // encodes are independent, so results never depend on the thread count.
  const auto for_rows = [&, this](std::size_t m, auto&& op) {
    exec_ctx.parallel_for(
        m,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) op(i);
        },
        /*grain=*/16);
  };
  // Both encode phases ride the GEMM-shaped tile path (bit-identical to
  // per-row encodes): the bundle phase tiles contiguous ranges of x
  // directly; the shuffled epoch phase gathers its picks' raw F-float
  // rows into one contiguous block first — the gather is tiny next to
  // the D x F encode it batches.
  core::Matrix raw_tile(tile, x.cols());
  const auto encode_range = [&](std::size_t t, std::size_t m) {
    encoder_->encode_tile(x, t, t + m, enc_tile.data(), config_.dims,
                          exec_ctx);
  };
  const auto encode_gathered = [&](std::size_t m, auto&& pick) {
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = x.row(pick(i));
      std::copy(src.begin(), src.end(), raw_tile.row(i).begin());
    }
    encoder_->encode_tile(raw_tile, 0, m, enc_tile.data(), config_.dims,
                          exec_ctx);
  };

  SchedulePhases phases;
  // One-shot bundling, tile by tile. The InitAccumulator routes rows into
  // stripes by global index, so this produces the exact model the
  // in-memory initialize() builds.
  phases.bundle = [&] {
    InitAccumulator acc(num_classes, config_.dims, n);
    for (std::size_t t = 0; t < n; t += tile) {
      const std::size_t m = std::min(tile, n - t);
      encode_range(t, m);
      acc.accumulate(enc_tile, y.subspan(t, m), 0, m, /*row_offset=*/t);
    }
    acc.finish(model_, trainer.config());
  };
  // One adaptive epoch: draw the same visit order train_epoch would, then
  // gather-encode and train tile by tile. With batch_size == 1 this is
  // bit-identical to the in-memory epoch (same order, same encodes, same
  // update sequence); larger batches split at tile boundaries.
  phases.run_epoch = [&] {
    const std::vector<std::size_t> order =
        Trainer::epoch_order(n, train_rng, trainer.config().shuffle);
    EpochStats stats;
    stats.samples = n;
    for (std::size_t t = 0; t < n; t += tile) {
      const std::size_t m = std::min(tile, n - t);
      encode_gathered(m, [&](std::size_t i) { return order[t + i]; });
      for (std::size_t i = 0; i < m; ++i) {
        tile_labels[i] = y[order[t + i]];
      }
      trainer.train_tile(model_, enc_tile, {tile_labels.data(), m}, stats);
    }
    return stats;
  };
  phases.refresh_dims = [&](std::span<const std::size_t> dims) {
    // Streamed centered re-bundle: recompute only the touched columns
    // tile by tile (the next epochs would see them anyway — there is no
    // cached encoded matrix to refresh) and feed the shared RegenRebundle
    // in the same row order as the in-memory path.
    if (!config_.rebundle_after_regen) return;
    RegenRebundle rebundle(num_classes, dims);
    for (std::size_t t = 0; t < n; t += tile) {
      const std::size_t m = std::min(tile, n - t);
      for_rows(m, [&](std::size_t i) {
        encoder_->encode_dims(x.row(t + i), dims, enc_tile.row(i));
      });
      for (std::size_t i = 0; i < m; ++i) {
        rebundle.add_row(enc_tile.row(i),
                         static_cast<std::size_t>(y[t + i]));
      }
    }
    rebundle.apply(model_, y);
  };
  driver.run(report_, phases);
}

int CyberHdClassifier::predict(std::span<const float> x) const {
  assert(encoder_ != nullptr && "predict() before fit()");
  std::vector<float> encoded(config_.dims);
  encoder_->encode(x, encoded);
  return static_cast<int>(model_.predict_encoded(encoded));
}

void CyberHdClassifier::scores(std::span<const float> x,
                               std::span<float> out) const {
  assert(encoder_ != nullptr && "scores() before fit()");
  assert(out.size() == num_classes_);
  std::vector<float> encoded(config_.dims);
  encoder_->encode(x, encoded);
  model_.similarities(encoded, out);
}

std::size_t CyberHdClassifier::preferred_batch_rows(
    const core::Matrix&) const {
  return exec().plan_serving(config_.dims).batch_rows;
}

EncodedBatch CyberHdClassifier::encode_block(const core::Matrix& x,
                                             std::size_t begin,
                                             std::size_t end,
                                             core::Matrix& storage) const {
  assert(encoder_ != nullptr && "encode_block() before fit()");
  // A thin materializer over the one stage-1 driver: misses encode
  // straight into `storage`, then borrowed hits and in-batch replays are
  // copied into their rows and the pins released.
  const std::size_t m = end - begin;
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  encode_block_borrowed(*encoder_, encode_cache_.get(), x, begin, end,
                        storage, ws, exec());
  ws.materialize(reinterpret_cast<unsigned char*>(storage.data()), m,
                 storage.cols() * sizeof(float));
  return EncodedBatch::front_of(storage, m);
}

void CyberHdClassifier::scores_encoded(const EncodedBatch& h,
                                       core::Matrix& out) const {
  out.resize(h.rows(), model_.num_classes());
  if (h.rows() == 0) return;
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  const EncodedRows rows(ScoringWorkspace::row_table(ws.f32_rows, h.data(),
                                                     h.rows(), h.dims()),
                         h.rows(), h.dims());
  model_.similarities_into(rows, out.data(), exec());
}

void CyberHdClassifier::scores_block(const core::Matrix& x,
                                     std::size_t begin, std::size_t end,
                                     core::Matrix& out) const {
  assert(encoder_ != nullptr && "scores_batch() before fit()");
  if (end == begin) return;
  // Zero-copy serving: stage 1 PINS cache hits in the ring instead of
  // memcpying them out and encodes only the misses (every row, cache off)
  // into the staging buffer; stage 2 streams the resulting row view
  // through the tile kernel. The staging buffer is thread_local so the
  // driver's block loop reuses one allocation per calling thread without
  // breaking const-concurrency.
  thread_local core::Matrix staging;
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  const EncodedRows rows = encode_block_borrowed(
      *encoder_, encode_cache_.get(), x, begin, end, staging, ws, exec());
  model_.similarities_into(rows, out.row(begin).data(), exec());
  ws.borrow.release();
}

void CyberHdClassifier::set_encode_cache(std::size_t capacity_rows,
                                         std::size_t shards) {
  if (capacity_rows == 0 || encoder_ == nullptr) {
    encode_cache_.reset();
    return;
  }
  encode_cache_ = std::make_unique<EncodeCache>(
      encoder_->input_dim(), encoder_->output_dim(), capacity_rows, shards);
}

std::string CyberHdClassifier::name() const {
  const bool regenerating =
      config_.regen_rate > 0.0 && config_.regen_steps > 0;
  std::string base = regenerating ? "CyberHD" : "BaselineHD";
  return base + "(D=" + std::to_string(config_.dims) + ")";
}

std::size_t CyberHdClassifier::effective_dims() const noexcept {
  return regen_.has_value() ? regen_->effective_dims() : config_.dims;
}

const Encoder& CyberHdClassifier::encoder() const {
  assert(encoder_ != nullptr && "encoder() before fit()");
  return *encoder_;
}

void CyberHdClassifier::encode(std::span<const float> x,
                               std::span<float> h) const {
  assert(encoder_ != nullptr && "encode() before fit()");
  encoder_->encode(x, h);
}

CyberHdConfig baseline_hd_config(std::size_t dims, std::uint64_t seed) {
  CyberHdConfig cfg;
  cfg.dims = dims;
  cfg.regen_rate = 0.0;
  cfg.regen_steps = 0;
  // Comparable total epoch budget to CyberHD's default schedule (57 + 10)
  // so accuracy comparisons isolate the effect of regeneration; the
  // adaptive trainer plateaus well before this point.
  cfg.epochs_per_step = 0;
  cfg.final_epochs = 50;
  cfg.seed = seed;
  return cfg;
}

// ---- persistence -------------------------------------------------------------

namespace {

// Version 2 (current): "CYHD" + version word, then CRC32C-checksummed
// sections — CFG0 (config + trained-state scalars), ENC0 (the encoder
// payload), and the class-hypervector matrix as either MDL0 (one
// buffered section) or MDLC (the same logical bytes streamed through
// fixed-size checksummed chunks; chosen when the payload outgrows the
// chunk size, so writer memory stays bounded). Version 1 is the same
// field sequence without section framing or checksums; load() still
// accepts everything.
constexpr std::uint64_t kFormatVersion = 2;

/// The scalar header fields, shared between the v1 inline layout and the
/// v2 CFG0 section (identical field order — v2 only adds framing).
struct SavedHeader {
  CyberHdConfig cfg;
  std::uint64_t num_classes = 0;
  std::uint64_t total_regenerated = 0;
  std::uint64_t regen_steps_done = 0;
};

void write_header_fields(std::ostream& out, const SavedHeader& h) {
  core::io::write_u64(out, h.cfg.dims);
  core::io::write_u64(out, static_cast<std::uint64_t>(h.cfg.encoder));
  core::io::write_f32(out, static_cast<float>(h.cfg.regen_rate));
  core::io::write_u64(out, h.cfg.regen_steps);
  core::io::write_u64(out, h.cfg.regen_anneal ? 1 : 0);
  core::io::write_u64(out, h.cfg.epochs_per_step);
  core::io::write_u64(out, h.cfg.final_epochs);
  core::io::write_f32(out, h.cfg.learning_rate);
  core::io::write_u64(out, h.cfg.seed);
  core::io::write_u64(out, h.num_classes);
  core::io::write_u64(out, h.total_regenerated);
  core::io::write_u64(out, h.regen_steps_done);
}

SavedHeader read_header_fields(std::istream& in) {
  SavedHeader h;
  h.cfg.dims = core::io::read_u64(in);
  const std::uint64_t encoder_kind = core::io::read_u64(in);
  if (encoder_kind > static_cast<std::uint64_t>(EncoderKind::kIdLevel)) {
    throw std::runtime_error("unknown encoder kind id " +
                             std::to_string(encoder_kind));
  }
  h.cfg.encoder = static_cast<EncoderKind>(encoder_kind);
  h.cfg.regen_rate = core::io::read_f32(in);
  h.cfg.regen_steps = core::io::read_u64(in);
  h.cfg.regen_anneal = core::io::read_u64(in) != 0;
  h.cfg.epochs_per_step = core::io::read_u64(in);
  h.cfg.final_epochs = core::io::read_u64(in);
  h.cfg.learning_rate = core::io::read_f32(in);
  h.cfg.seed = core::io::read_u64(in);
  h.num_classes = core::io::read_u64(in);
  h.total_regenerated = core::io::read_u64(in);
  h.regen_steps_done = core::io::read_u64(in);
  return h;
}

}  // namespace

void CyberHdClassifier::save(std::ostream& out,
                             std::size_t model_chunk_bytes) const {
  assert(encoder_ != nullptr && "save() before fit()");
  if (model_chunk_bytes == 0 ||
      model_chunk_bytes > core::io::kMaxSectionChunkBytes) {
    throw std::invalid_argument("save(): model_chunk_bytes out of range");
  }
  core::io::write_tag(out, "CYHD");
  core::io::write_u64(out, kFormatVersion);
  {
    std::ostringstream cfg;
    write_header_fields(
        cfg, SavedHeader{.cfg = config_,
                         .num_classes = num_classes_,
                         .total_regenerated =
                             regen_ ? regen_->total_regenerated() : 0,
                         .regen_steps_done = regen_ ? regen_->steps() : 0});
    core::io::write_section(out, "CFG0", cfg.str());
  }
  {
    std::ostringstream enc;
    encoder_->serialize(enc);
    core::io::write_section(out, "ENC0", enc.str());
  }
  // Model payload (identical logical bytes in both layouts):
  //   u64 num_classes | u64 dims | u64 count | count f32 weights.
  const std::size_t payload_bytes =
      3 * sizeof(std::uint64_t) + model_.weights().size() * sizeof(float);
  if (payload_bytes <= model_chunk_bytes) {
    std::ostringstream mdl;
    core::io::write_u64(mdl, model_.num_classes());
    core::io::write_u64(mdl, model_.dims());
    core::io::write_f32_array(
        mdl, {model_.weights().data(), model_.weights().size()});
    core::io::write_section(out, "MDL0", mdl.str());
    return;
  }
  // Chunked layout: the weights stream straight out of the model through
  // one chunk-sized buffer — nothing proportional to D x classes is ever
  // materialized on the way to disk.
  core::io::write_tag(out, "MDLC");
  core::io::write_u64(out, model_chunk_bytes);
  core::io::ChunkedSectionWriter writer(out, model_chunk_bytes);
  std::ostream chunked(&writer);
  core::io::write_u64(chunked, model_.num_classes());
  core::io::write_u64(chunked, model_.dims());
  core::io::write_u64(chunked, model_.weights().size());
  chunked.write(
      reinterpret_cast<const char*>(model_.weights().data()),
      static_cast<std::streamsize>(model_.weights().size() * sizeof(float)));
  writer.finish();
}

void CyberHdClassifier::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save(out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

CyberHdClassifier CyberHdClassifier::load(std::istream& in) {
  core::io::expect_tag(in, "CYHD");
  const std::uint64_t version = core::io::read_u64(in);
  if (version != 1 && version != 2) {
    throw std::runtime_error("unsupported CyberHD format version " +
                             std::to_string(version));
  }

  // Shared assembly from parsed header + encoder + a stream positioned at
  // the model payload; field semantics are identical across versions.
  const auto assemble = [](SavedHeader h, std::unique_ptr<Encoder> enc,
                           std::istream& mdl_in) -> CyberHdClassifier {
    CyberHdClassifier model(h.cfg);
    model.num_classes_ = h.num_classes;
    if (enc->kind() != h.cfg.encoder) {
      throw std::runtime_error(
          "encoder kind mismatch: config says " +
          std::string(to_string(h.cfg.encoder)) + ", payload holds " +
          std::string(to_string(enc->kind())));
    }
    model.encoder_ = std::move(enc);
    const std::uint64_t k = core::io::read_u64(mdl_in);
    const std::uint64_t dims = core::io::read_u64(mdl_in);
    const std::uint64_t count = core::io::read_u64(mdl_in);
    if (count > (1ULL << 32)) {
      throw std::runtime_error("implausible array size");
    }
    // k must also match the header's class count: the staged scores_batch
    // driver sizes outputs from the header while stage 2 writes one score
    // per *model* class, so a mismatch would become an out-of-bounds
    // write at serving time, not a scoring quirk.
    if (k == 0 || k != h.num_classes || dims != h.cfg.dims ||
        count != k * dims || model.encoder_->output_dim() != dims) {
      throw std::runtime_error("inconsistent CyberHD payload");
    }
    // Read straight into the model's storage: no transient full-size
    // weight vector, so peak load memory is the model itself plus (for
    // the chunked layout) one chunk buffer.
    model.model_ = HdcModel(k, dims);
    mdl_in.read(
        reinterpret_cast<char*>(model.model_.weights().data()),
        static_cast<std::streamsize>(count * sizeof(float)));
    if (!mdl_in) {
      throw std::runtime_error("truncated stream (model weights)");
    }
    model.regen_.emplace(h.cfg.dims, h.cfg.regen_rate,
                         h.cfg.regen_anneal ? h.cfg.regen_steps : 0);
    model.regen_->restore(h.total_regenerated, h.regen_steps_done);
    // A restored model serves immediately: arm the encode cache exactly
    // as a fresh fit() would.
    model.set_encode_cache(EncodeCache::capacity_from_env());
    return model;
  };

  if (version == 2) {
    // Checksummed sections: each payload is CRC-verified before any field
    // of it is parsed, so a flipped byte fails with a section-naming
    // checksum error instead of deserializing garbage.
    std::istringstream cfg_in(core::io::read_section(in, "CFG0"));
    SavedHeader header = read_header_fields(cfg_in);
    std::istringstream enc_in(core::io::read_section(in, "ENC0"));
    std::unique_ptr<Encoder> enc = deserialize_encoder(enc_in);
    // The model section carries either layout: MDL0 (one buffered,
    // checksummed section) or MDLC (the same bytes streamed through
    // fixed-size checksummed chunks, verified chunk by chunk as the
    // weights flow directly into the model). The tag is consumed once and
    // branched on, so non-seekable streams load fine.
    const std::string mdl_tag = core::io::read_tag(in);
    if (mdl_tag == "MDLC") {
      const std::uint64_t chunk_bytes = core::io::read_u64(in);
      core::io::ChunkedSectionReader reader(in, "MDLC", chunk_bytes);
      std::istream chunked(&reader);
      // Rethrow the reader's section-naming errors instead of letting
      // istream swallow them into badbit.
      chunked.exceptions(std::ios::badbit);
      CyberHdClassifier model =
          assemble(std::move(header), std::move(enc), chunked);
      // The chunk stream must end exactly at its terminator — trailing
      // bytes or a missing terminator mean the payload and its header
      // disagree.
      if (chunked.peek() != std::istream::traits_type::eof() ||
          !reader.finished()) {
        throw std::runtime_error("inconsistent CyberHD payload (MDLC)");
      }
      return model;
    }
    if (mdl_tag != "MDL0") {
      throw std::runtime_error("bad model section tag, expected MDL0 or "
                               "MDLC");
    }
    std::istringstream mdl_in(core::io::read_section_body(in, "MDL0"));
    return assemble(std::move(header), std::move(enc), mdl_in);
  }
  // Version 1: the same fields inline, no checksums.
  SavedHeader header = read_header_fields(in);
  std::unique_ptr<Encoder> enc = deserialize_encoder(in);
  return assemble(std::move(header), std::move(enc), in);
}

CyberHdClassifier CyberHdClassifier::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load(in);
}

}  // namespace cyberhd::hdc
