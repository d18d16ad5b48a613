// train-cic17: the paper's learning path on the float model. Three rounds
// each fit the paper configuration on the training split and then score
// slices of a separately generated corpus of distinct flows offline
// (predict_batch); the last model is then served through serve::Server, in
// an open and a closed loop, over the same distinct flows: every probe of
// its encode cache misses. No quantized snapshot is involved.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>

#include "bench.hpp"
#include "harness.hpp"
#include "loadgen.hpp"
#include "reference.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = cyberhd::core;
namespace hdc = cyberhd::hdc;
namespace serve = cyberhd::serve;

namespace {

/// Offered open-loop rate, well under the float model's closed-loop rate.
constexpr double kServeRate = 20000.0;
constexpr std::size_t kSegment = 4096;
/// Rows per predict_batch pass (a quarter of the distinct-flow corpus).
constexpr std::size_t kBatchRows = 5000;
/// Rounds per run. Each fits once and then runs its share of the batch
/// passes, so the repetitions of both spread over the run: the host's slow
/// spells last seconds (see bench.hpp).
constexpr std::size_t kRounds = 5;

struct Timed {
  std::vector<double> fit_s;
  std::unique_ptr<hdc::CyberHdClassifier> clf;  // the last fit
  std::vector<double> batch_rates;
  std::uint64_t batch_rows = 0;
  std::uint64_t batch_mismatched = 0;
  ServingRun run;
};

/// Per-row scores() of `clf` over the distinct corpus: what every batch
/// class and served response must reproduce.
core::Matrix per_row_scores(const hdc::CyberHdClassifier& clf,
                            const core::Matrix& x) {
  core::Matrix out(x.rows(), clf.num_classes());
  for (std::size_t i = 0; i < x.rows(); ++i) clf.scores(x.row(i), out.row(i));
  return out;
}

Timed run_phases(const Corpus& c, const Options& opt, const Flows& flows,
                 core::Matrix& expected, Outcome& out) {
  Timed t;
  const std::size_t slices = c.extra.rows() / kBatchRows;
  core::Matrix slice(kBatchRows, c.extra.cols());
  std::vector<int> predicted(kBatchRows);
  std::size_t pass = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    set_phase("fit");
    t.clf = std::make_unique<hdc::CyberHdClassifier>(paper_config());
    t.fit_s.push_back(timed_fit(*t.clf, c, out));
    if (expected.rows() == 0) expected = per_row_scores(*t.clf, c.extra);

    const trace::Scope span("phase.batch");
    set_phase("batch");
    const double start = now_s();
    do {
      const std::size_t first = (pass++ % slices) * kBatchRows;
      std::copy_n(c.extra.row(first).data(), slice.size(), slice.data());
      const double t0 = now_s();
      {
        const trace::Scope call("hdc.model.predict_batch");
        t.clf->predict_batch(slice, predicted);
      }
      t.batch_rates.push_back(static_cast<double>(kBatchRows) /
                              (now_s() - t0));
      t.batch_rows += kBatchRows;
      for (std::size_t i = 0; i < kBatchRows; ++i) {
        const auto e = expected.row(first + i);
        t.batch_mismatched +=
            predicted[i] != std::max_element(e.begin(), e.end()) - e.begin();
      }
    } while (now_s() - start < 0.25 * opt.seconds / kRounds);
  }

  std::unique_ptr<TimedClassifier> timed;
  const core::Classifier* served = t.clf.get();
  if (opt.trace) {
    timed = std::make_unique<TimedClassifier>(*t.clf);
    served = timed.get();
  }
  serve::Server server(*served, c.extra.cols());
  ServeClient client(server, flows, kClientSlots);
  const PhaseStats warm = client.warmup(kSegment, kClosedWindow);
  out.expect(warm.mismatched == 0, "warm-up: kOk response differs from scores()");
  const std::size_t n = flows.order.size();
  ServingPlan plan;
  plan.open_rate = kServeRate;
  plan.open_requests =
      static_cast<std::size_t>(std::max<long long>(
          1, std::llround(kServeRate * 0.3 * opt.seconds / static_cast<double>(n)))) *
      n;
  plan.window = kClosedWindow;
  plan.segment = kSegment;
  plan.closed_budget_s = 0.3 * opt.seconds;
  plan.seed = opt.seed;
  t.run = run_serving(client, server, t.clf->encode_cache(), timed.get(), plan);
  server.shutdown();
  const serve::ServerStats st = server.stats();
  out.expect(st.completed == st.accepted, "ServerStats::completed != accepted");
  out.expect(st.ok + st.expired + st.failed == st.completed,
             "ok + expired + failed != completed");
  return t;
}

}  // namespace

Outcome run_train(const Options& opt) {
  Outcome out;
  std::vector<double> setup_s, nids_s;
  double traced_setup_s = 0.0;
  Corpus c;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool traced_rep = opt.trace && rep + 1 == kSetupReps;
    trace::set_enabled(traced_rep);
    const trace::Scope span("setup");
    set_phase("setup");
    const double t0 = now_s();
    c = make_corpus(opt.seed);
    {
      // Warm-up: start the worker pool and touch every fit stage once.
      const trace::Scope warm("warmup.fit");
      hdc::CyberHdConfig tiny = paper_config();
      tiny.dims = 64;
      tiny.regen_steps = 2;
      tiny.final_epochs = 1;
      hdc::CyberHdClassifier warmup(tiny);
      core::Matrix x(512, c.split.train.x.cols());
      std::copy_n(c.split.train.x.data(), x.size(), x.data());
      warmup.fit(x, std::span(c.split.train.y).first(512),
                 c.split.train.num_classes);
    }
    (traced_rep ? traced_setup_s : setup_s.emplace_back()) = now_s() - t0;
    nids_s.push_back(c.nids_s);
  }
  trace::set_enabled(false);

  core::Matrix expected;
  const std::vector<char> none(c.extra.rows(), 0);
  Flows flows;
  flows.pool = &c.extra;
  flows.labels = &c.extra_y;
  flows.malformed = &none;
  flows.expected = &expected;
  flows.order.resize(c.extra.rows());
  std::iota(flows.order.begin(), flows.order.end(), std::size_t{0});
  std::mt19937_64 gen(opt.seed ^ 0x0c0ffeeULL);
  std::shuffle(flows.order.begin(), flows.order.end(), gen);

  const Timed a = run_phases(c, opt, flows, expected, out);
  Timed b;
  if (opt.trace) {
    trace::set_enabled(true);
    b = run_phases(c, opt, flows, expected, out);
  }
  const Timed& measured = opt.trace ? b : a;
  const hdc::CyberHdClassifier& clf = *measured.clf;

  set_phase("checks");
  std::uint64_t predicted = 0, correct = 0;
  const Timed* passes[] = {&a, &b};
  for (const Timed* t : passes) {
    if (t == &b && !opt.trace) break;
    out.attempted += t->fit_s.size() + t->batch_rows;
    out.expect(t->batch_mismatched == 0,
               "predict_batch class differs from the per-row scores() argmax");
    for (const PhaseStats* p : {&t->run.open, &t->run.closed}) {
      out.expect(p->succeeded + p->failed() == p->attempted,
                 p->name + ": a request did not end in exactly one status");
      out.expect(p->mismatched == 0,
                 p->name + ": kOk response differs from scores()");
      out.attempted += p->attempted;
      out.failed += p->failed();
      predicted += p->predicted;
      correct += p->predicted_correct;
    }
  }
  const double served_accuracy =
      predicted == 0 ? 0.0 : static_cast<double>(correct) /
                                 static_cast<double>(predicted);
  out.expect(served_accuracy > c.majority_share,
             "served accuracy does not beat the majority-class share");
  core::Matrix test_scores;
  clf.scores_batch(c.split.test.x, test_scores);
  const double test_accuracy = accuracy(test_scores, c.split.test.y);
  out.expect(test_accuracy > c.majority_share,
             "held-out accuracy does not beat the majority-class share");

  // Independent reference over every row of the distinct corpus.
  const Reference ref(clf, 32);
  std::vector<std::size_t> rows(c.extra.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  core::Matrix batch_scores;
  clf.scores_batch(c.extra, batch_scores);
  const CheckCounts cc = check_scores(ref, c.extra, rows, batch_scores, 4);
  std::printf("reference check (float): %zu rows, max |diff| %.3g (tolerance "
              "%.3g), %zu near ties, %zu score and %zu class violations\n",
              cc.rows, cc.max_abs_diff, ref.tolerance(), cc.near_ties,
              cc.score_violations, cc.class_violations);
  out.expect(cc.ok(), "batch scores disagree with the independent reference");
  out.expect(perturbation_is_caught(ref, c.extra, 0, batch_scores.row(0)),
             "self-test: a perturbed score passed the checks");

  std::printf("workload train-cic17: setup %.3f s (median of %zu), %zu fits "
              "(fastest %.3f s), held-out accuracy %.4f, served accuracy "
              "%.4f, majority share %.4f, D* = %zu\n",
              median(setup_s), setup_s.size(), measured.fit_s.size(),
              undisturbed_time(measured.fit_s), test_accuracy, served_accuracy,
              c.majority_share, clf.effective_dims());
  std::printf("phase %-14s attempted %8zu\n", "fit", measured.fit_s.size());
  std::printf("phase %-14s attempted %8llu  (%zu passes of %zu flows)\n",
              "batch", static_cast<unsigned long long>(measured.batch_rows),
              measured.batch_rates.size(), kBatchRows);
  measured.run.open.print();
  measured.run.closed.print();
  const auto& lat = measured.run.open.latency_us;
  std::printf("open loop: %zu latency samples (%zu per window); whole phase "
              "p50 %.1f p90 %.1f p99 %.1f us; generator late p99 %.1f us\n",
              lat.size(), lat.size() / kLatencyWindows, quantile(lat, 0.5),
              quantile(lat, 0.9), quantile(lat, 0.99),
              quantile(measured.run.open.late_us, 0.99));

  const auto e2e = [&](const Timed& t, double setup) {
    std::vector<Metric> m;
    m.push_back({"setup_s", setup, "s"});
    m.push_back({"fit_s", undisturbed_time(t.fit_s), "s"});
    m.push_back({"batch_flows_per_s", undisturbed_rate(t.batch_rates), "1/s"});
    m.push_back({"flows_per_s", undisturbed_rate(t.run.closed.segment_rates), "1/s"});
    m.push_back({"p50_us", windowed_quantile(t.run.open.latency_us, 0.50), "us"});
    m.push_back({"p90_us", windowed_quantile(t.run.open.latency_us, 0.90), "us"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    return m;
  };
  out.end_to_end = e2e(a, median(setup_s));
  if (opt.trace) {
    out.traced_end_to_end = e2e(b, traced_setup_s);
    set_phase("layer probes");
    out.layers.push_back({"nids.setup_s", median(nids_s), "s"});
    probe_fit_layers(clf, c, undisturbed_time(a.fit_s), out.layers);
    probe_quantized_layers(clf, 8, c.extra, out.layers);
    serving_layer_metrics(b.run, out.layers);
  }
  trace::set_enabled(false);
  return out;
}

}  // namespace perfbench
