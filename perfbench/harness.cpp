#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "hdc/encoded_batch.hpp"
#include "hdc/quantized.hpp"
#include "hdc/regen.hpp"
#include "hdc/trainer.hpp"
#include "nids/datasets.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = cyberhd::core;
namespace hdc = cyberhd::hdc;
namespace nids = cyberhd::nids;

namespace {
std::atomic<const char*> g_phase{"start"};
}  // namespace

void set_phase(const char* name) noexcept {
  g_phase.store(name, std::memory_order_relaxed);
}

const char* phase() noexcept { return g_phase.load(std::memory_order_relaxed); }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<double>& v, double q) {
  const std::size_t w = v.size() / kLatencyWindows;
  if (w == 0) return quantile(v, q);
  std::vector<double> per_window;
  for (std::size_t k = 0; k < kLatencyWindows; ++k) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(k * w);
    per_window.push_back(
        quantile(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(w)), q));
  }
  return undisturbed_time(per_window);
}

double undisturbed_rate(std::vector<double> rates) {
  return quantile(std::move(rates), 0.9);
}

double undisturbed_time(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double accuracy(const core::Matrix& scores, const std::vector<int>& labels) {
  std::size_t hit = 0;
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const auto r = scores.row(i);
    hit += (std::max_element(r.begin(), r.end()) - r.begin()) == labels[i];
  }
  return scores.rows() == 0 ? 0.0
                            : static_cast<double>(hit) /
                                  static_cast<double>(scores.rows());
}

Corpus make_corpus(std::uint64_t seed) {
  Corpus c;
  const double t0 = now_s();
  nids::Dataset raw, raw_extra;
  {
    trace::Scope span("nids.synthesize");
    const nids::FlowSynthesizer synth =
        nids::make_synthesizer(nids::DatasetId::kCicIds2017, seed);
    raw = synth.generate(kCorpusFlows, /*stream=*/0);
    raw_extra = synth.generate(kExtraFlows, /*stream=*/1);
  }
  {
    trace::Scope span("nids.preprocess");
    c.split = nids::preprocess(raw, kTestFraction, seed ^ 0x5eedULL);
    const core::Matrix expanded = nids::expand_features(raw);
    nids::MinMaxScaler scaler;
    scaler.fit(expanded);
    c.extra = nids::expand_features(raw_extra);
    scaler.transform(c.extra);
    c.extra_y = raw_extra.y;
  }
  c.nids_s = now_s() - t0;
  const auto hist =
      nids::class_histogram(c.split.test.y, c.split.test.num_classes);
  c.majority_share =
      static_cast<double>(*std::max_element(hist.begin(), hist.end())) /
      static_cast<double>(c.split.test.size());
  return c;
}

hdc::CyberHdConfig paper_config() {
  hdc::CyberHdConfig cfg;  // the library defaults are the paper's schedule
  cfg.dims = 512;
  cfg.seed = 3;
  return cfg;
}

double timed_fit(hdc::CyberHdClassifier& clf, const Corpus& c, Outcome& out) {
  const double t0 = now_s();
  {
    trace::Scope span("hdc.fit");
    clf.fit(c.split.train.x, c.split.train.y, c.split.train.num_classes);
  }
  const double fit_s = now_s() - t0;
  const hdc::FitReport& r = clf.last_fit_report();
  const hdc::CyberHdConfig& cfg = clf.config();
  const std::size_t regenerated = std::accumulate(
      r.regenerated_per_step.begin(), r.regenerated_per_step.end(),
      std::size_t{0});
  out.expect(r.effective_dims == cfg.dims + regenerated,
             "FitReport::effective_dims != D + sum(regenerated_per_step)");
  out.expect(r.epochs == cfg.regen_steps * cfg.epochs_per_step +
                             cfg.final_epochs,
             "FitReport::epochs != regen_steps * epochs_per_step + "
             "final_epochs");
  return fit_s;
}

namespace {

template <class Fn>
double median_seconds(std::size_t reps, const char* span, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    {
      trace::Scope s(span);
      fn(i);
    }
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

}  // namespace

void probe_fit_layers(const hdc::CyberHdClassifier& clf, const Corpus& c,
                      double fit_s, std::vector<Metric>& layers) {
  const core::ExecutionContext& exec = clf.exec();
  const core::Matrix& x = c.split.train.x;
  const std::vector<int>& y = c.split.train.y;
  const hdc::Encoder& enc = clf.encoder();
  const std::size_t n = x.rows(), dims = enc.output_dim(),
                    features = enc.input_dim();

  core::Matrix encoded(n, dims);
  const double encode_s = median_seconds(3, "hdc.encoder.encode_tile", [&](std::size_t) {
    enc.encode_tile(x, 0, n, encoded.data(), dims, exec);
  });
  const double rows = static_cast<double>(n);
  layers.push_back({"hdc.encoder.rows_per_s", rows / encode_s, "1/s"});
  layers.push_back({"core.kernels.encode_gmac_per_s",
                    rows * static_cast<double>(dims * features) / encode_s / 1e9,
                    "GMAC/s"});

  const hdc::CyberHdConfig& cfg = clf.config();
  const hdc::Trainer trainer(
      hdc::TrainerConfig{.learning_rate = cfg.learning_rate,
                         .similarity_weighted = cfg.similarity_weighted_update,
                         .batch_size = cfg.batch_size},
      exec);
  std::vector<hdc::HdcModel> copies(3, clf.model());
  core::Rng rng(cfg.seed);
  const double epoch_s = median_seconds(3, "hdc.trainer.train_epoch", [&](std::size_t i) {
    trainer.train_epoch(copies[i], encoded, y, rng);
  });
  const hdc::FitReport& report = clf.last_fit_report();
  layers.push_back({"hdc.trainer.epoch_s", epoch_s, "s"});
  layers.push_back({"hdc.trainer.epochs", static_cast<double>(report.epochs), "count"});

  core::Matrix scores;
  const double score_s = median_seconds(3, "hdc.model.scores_encoded", [&](std::size_t) {
    clf.scores_encoded(hdc::EncodedBatch::of(encoded), scores);
  });
  layers.push_back({"hdc.model.score_rows_per_s", rows / score_s, "1/s"});

  // One step at the fit's mean per-step rate, so per-call time x step count
  // approximates the fit's total regeneration time.
  const std::size_t steps = report.regenerated_per_step.size();
  const std::size_t regenerated =
      std::accumulate(report.regenerated_per_step.begin(),
                      report.regenerated_per_step.end(), std::size_t{0});
  const double mean_rate =
      steps == 0 ? 0.0
                 : static_cast<double>(regenerated) /
                       static_cast<double>(steps * dims);
  std::vector<hdc::HdcModel> models(3, clf.model());
  std::vector<std::unique_ptr<hdc::Encoder>> encoders;
  for (int i = 0; i < 3; ++i) encoders.push_back(enc.clone());
  const double regen_s = median_seconds(3, "hdc.regen.step", [&](std::size_t i) {
    hdc::RegenController regen(dims, mean_rate);
    core::Rng regen_rng(cfg.seed + i);
    const hdc::RegenStep step = regen.step(models[i], *encoders[i], regen_rng);
    encoders[i]->encode_batch_dims(x, step.dims, encoded, exec);
  });
  layers.push_back({"hdc.regen.step_s", regen_s, "s"});
  layers.push_back({"hdc.regen.dims", static_cast<double>(regenerated), "count"});
  const double attributed = encode_s +
                            static_cast<double>(report.epochs) * epoch_s +
                            static_cast<double>(steps) * regen_s;
  layers.push_back({"hdc.fit.unattributed_s", fit_s - attributed, "s"});
}

void probe_quantized_layers(const hdc::CyberHdClassifier& clf, int bits,
                            const core::Matrix& distinct,
                            std::vector<Metric>& layers) {
  hdc::QuantizedCyberHd snapshot(clf, bits);
  snapshot.set_encode_cache(0);
  const std::size_t n = distinct.rows();
  hdc::PackedStaging staging;
  hdc::PackedBatch packed;
  const double pack_s = median_seconds(3, "hdc.quantized.encode_block_packed", [&](std::size_t) {
    packed = snapshot.encode_block_packed(distinct, 0, n, staging);
  });
  core::Matrix scores;
  const double score_s = median_seconds(5, "hdc.quantized.scores_encoded", [&](std::size_t) {
    snapshot.scores_encoded(packed, scores);
  });
  const auto row_bytes = static_cast<double>(snapshot.model().packed_row_bytes());
  const double rows = static_cast<double>(n);
  layers.push_back({"hdc.quantized.pack_rows_per_s", rows / pack_s, "1/s"});
  layers.push_back({"hdc.quantized.score_rows_per_s", rows / score_s, "1/s"});
  layers.push_back({"core.kernels.score_bytes_per_row",
                    static_cast<double>(snapshot.num_classes()) * row_bytes + row_bytes,
                    "bytes"});
}

}  // namespace perfbench
