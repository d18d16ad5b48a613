// Pieces the workloads share: the seeded corpus, the paper configuration,
// the timed fit with its ledger checks, and the per-layer probes of the
// traced run. Everything here calls only the library's public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/matrix.hpp"
#include "hdc/cyberhd.hpp"
#include "nids/preprocess.hpp"

namespace perfbench {

/// CIC-IDS-2017 flows synthesized for one run.
inline constexpr std::size_t kCorpusFlows = 30000;
inline constexpr double kTestFraction = 0.30;
/// Distinct flows drawn from a separate generator stream: the batch-scoring
/// corpus and the serving pools.
inline constexpr std::size_t kExtraFlows = 20000;
/// Set-ups per run; setup_s is their median. Five, because the serving
/// workloads take fit_s from their set-up fits (the fastest of them).
inline constexpr std::size_t kSetupReps = 5;

struct Corpus {
  cyberhd::nids::TrainTestSplit split;
  cyberhd::core::Matrix extra;
  std::vector<int> extra_y;
  double majority_share = 0.0;  // of the test split
  double nids_s = 0.0;          // time in synthesis and preprocessing calls
};

/// Synthesize and preprocess the corpus for `seed`: a 70/30 split of
/// kCorpusFlows flows, plus kExtraFlows distinct flows from stream 1 scaled
/// with a min-max scaler fitted on the corpus.
Corpus make_corpus(std::uint64_t seed);

/// The paper configuration: D = 512, RBF encoder, R = 25% annealed over 57
/// steps, one epoch per step and 10 final epochs (the library defaults).
cyberhd::hdc::CyberHdConfig paper_config();

/// Wall time of clf.fit on the training split. Checks the FitReport
/// ledger: effective_dims == D + sum(regenerated_per_step) and epochs ==
/// regen_steps * epochs_per_step + final_epochs.
double timed_fit(cyberhd::hdc::CyberHdClassifier& clf, const Corpus& c,
                 Outcome& out);

/// Traced-run probes of the training-side layers over a fitted classifier:
/// encoder tile, one trainer epoch, one regeneration step, float scoring,
/// and the fit residual those per-call times leave unexplained.
void probe_fit_layers(const cyberhd::hdc::CyberHdClassifier& clf,
                      const Corpus& c, double fit_s,
                      std::vector<Metric>& layers);

/// Traced-run probes of the quantized layers at `bits` (<= 8): the cache-off
/// pack of distinct rows, packed scoring, and the bytes one scored row moves.
void probe_quantized_layers(const cyberhd::hdc::CyberHdClassifier& clf,
                            int bits, const cyberhd::core::Matrix& distinct,
                            std::vector<Metric>& layers);

/// Seconds on the steady clock.
double now_s();

/// Fraction of rows whose argmax over `scores` equals `labels`.
double accuracy(const cyberhd::core::Matrix& scores,
                const std::vector<int>& labels);

}  // namespace perfbench
