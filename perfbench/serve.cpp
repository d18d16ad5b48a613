// serve-hot-1b and serve-cold-i8: a quantized snapshot of the paper model
// served through serve::Server by one client thread.
//
// serve-hot-1b replays a 1024-flow working set (a quarter of the default
// 4096-row encode cache), so after warm-up nearly every row is a borrowed
// cache hit and the time goes to the front end. serve-cold-i8 replays a
// pool of 16384 distinct flows in a fixed cyclic order; every shard's FIFO
// ring has evicted a flow long before it recurs, so every probe misses,
// encodes, packs, inserts and evicts. One pool flow in 1024 carries a NaN
// or +-Inf feature; the right outcome for it is an explicit non-OK status.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <random>

#include "bench.hpp"
#include "harness.hpp"
#include "hdc/quantized.hpp"
#include "loadgen.hpp"
#include "reference.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = cyberhd::core;
namespace hdc = cyberhd::hdc;
namespace serve = cyberhd::serve;

namespace {

constexpr std::size_t kHotWorkingSet = 1024;
constexpr std::size_t kColdPool = 16384;
constexpr std::size_t kMalformedEvery = 1024;
// Offered open-loop rates, well under each path's closed-loop capacity.
constexpr double kHotRate = 50000.0;
constexpr double kColdRate = 20000.0;
constexpr std::size_t kSegment = 16384;
constexpr std::size_t kBatchRows = 16384;

struct ServeSetup {
  Corpus corpus;
  std::unique_ptr<hdc::CyberHdClassifier> clf;
  std::unique_ptr<hdc::QuantizedCyberHd> snapshot;
  core::Matrix pool;
  std::vector<int> labels;
  std::vector<char> malformed;
  core::Matrix expected;  // per-row scores() of the snapshot
  core::Matrix batch;     // the batch-scoring input, kBatchRows pool rows
  std::vector<std::size_t> batch_rows;
  Flows flows;
  std::unique_ptr<TimedClassifier> timed;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<ServeClient> client;
  double fit_s = 0.0;
  double setup_s = 0.0;
};

std::unique_ptr<ServeSetup> set_up(const Options& opt, bool hot, bool traced,
                                   Outcome& out) {
  const trace::Scope span("setup");
  set_phase("setup");
  auto s = std::make_unique<ServeSetup>();
  const double t0 = now_s();
  s->corpus = make_corpus(opt.seed);
  s->clf = std::make_unique<hdc::CyberHdClassifier>(paper_config());
  s->fit_s = timed_fit(*s->clf, s->corpus, out);
  {
    const trace::Scope q("hdc.quantize");
    s->snapshot = std::make_unique<hdc::QuantizedCyberHd>(*s->clf, hot ? 1 : 8);
  }

  const std::size_t n = hot ? kHotWorkingSet : kColdPool;
  const std::size_t features = s->corpus.extra.cols();
  s->pool.resize(n, features);
  std::copy_n(s->corpus.extra.data(), n * features, s->pool.data());
  s->labels.assign(s->corpus.extra_y.begin(), s->corpus.extra_y.begin() + n);
  s->malformed.assign(n, 0);
  if (!hot) {
    // Fixed positions and values: which flows fail does not depend on the
    // seed, only the rest of their features do.
    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity()};
    for (std::size_t i = kMalformedEvery - 1; i < n; i += kMalformedEvery) {
      const std::size_t k = i / kMalformedEvery;
      s->pool(i, k % features) = bad[k % 3];
      s->malformed[i] = 1;
    }
  }
  s->flows.pool = &s->pool;
  s->flows.labels = &s->labels;
  s->flows.malformed = &s->malformed;
  s->flows.expected = &s->expected;
  s->flows.order.resize(n);
  std::iota(s->flows.order.begin(), s->flows.order.end(), std::size_t{0});
  std::mt19937_64 gen(opt.seed ^ 0x0c0ffeeULL);
  std::shuffle(s->flows.order.begin(), s->flows.order.end(), gen);
  s->batch.resize(kBatchRows, features);
  for (std::size_t i = 0; i < kBatchRows; ++i) {
    const std::size_t row = s->flows.order[i % n];
    s->batch_rows.push_back(row);
    std::copy_n(s->pool.row(row).data(), features, s->batch.row(i).data());
  }

  // The reference responses are the benchmark's, not the program's set-up.
  const double e0 = now_s();
  s->expected.resize(n, s->snapshot->num_classes());
  for (std::size_t i = 0; i < n; ++i) {
    s->snapshot->scores(s->pool.row(i), s->expected.row(i));
  }
  const double expected_s = now_s() - e0;

  const core::Classifier* served = s->snapshot.get();
  if (traced) {
    s->timed = std::make_unique<TimedClassifier>(*s->snapshot);
    served = s->timed.get();
  }
  s->server = std::make_unique<serve::Server>(*served, features);
  s->client = std::make_unique<ServeClient>(*s->server, s->flows, kClientSlots);
  const PhaseStats warm = s->client->warmup(hot ? 4 * n : n, kClosedWindow);
  out.expect(warm.mismatched == 0, "warm-up: kOk response differs from scores()");
  s->setup_s = now_s() - t0 - expected_s;
  return s;
}

struct Timed {
  ServingRun run;
  std::vector<double> batch_rates;
  std::uint64_t batch_attempted = 0;
  std::uint64_t batch_failed = 0;
  std::uint64_t batch_mismatched = 0;
};

Timed run_phases(ServeSetup& s, const Options& opt, bool hot, Outcome& out) {
  Timed t;
  const std::size_t n = s.pool.rows();
  ServingPlan plan;
  plan.open_rate = hot ? kHotRate : kColdRate;
  const auto passes = std::max<long long>(
      1, std::llround(plan.open_rate * 0.4 * opt.seconds / static_cast<double>(n)));
  plan.open_requests = static_cast<std::size_t>(passes) * n;
  plan.window = kClosedWindow;
  plan.segment = kSegment;
  plan.closed_budget_s = 0.4 * opt.seconds;
  plan.seed = opt.seed;
  t.run = run_serving(*s.client, *s.server, s.snapshot->encode_cache(),
                      s.timed.get(), plan);

  // Offline batch scoring of the same flows through the same snapshot.
  const trace::Scope span("phase.batch");
  set_phase("batch");
  std::vector<int> predicted(kBatchRows);
  const double budget = 0.15 * opt.seconds;
  const double start = now_s();
  while (t.batch_rates.size() < 3 || now_s() - start < budget) {
    const double t0 = now_s();
    {
      const trace::Scope call("hdc.quantized.predict_batch");
      s.snapshot->predict_batch(s.batch, predicted);
    }
    t.batch_rates.push_back(static_cast<double>(kBatchRows) / (now_s() - t0));
    for (std::size_t i = 0; i < kBatchRows; ++i) {
      const std::size_t row = s.batch_rows[i];
      ++t.batch_attempted;
      if (s.malformed[row] != 0) {
        ++t.batch_failed;  // a verdict for a non-finite flow, no status
        continue;
      }
      const auto e = s.expected.row(row);
      t.batch_mismatched +=
          predicted[i] != std::max_element(e.begin(), e.end()) - e.begin();
    }
  }
  out.expect(t.batch_mismatched == 0,
             "predict_batch class differs from the per-row scores() argmax");
  return t;
}

void print_phases(const Timed& t) {
  t.run.open.print();
  t.run.closed.print();
  std::printf("phase %-14s attempted %8llu  succeeded %8llu  failed %6llu "
              "(malformed scored)  mismatched %llu\n",
              "batch", static_cast<unsigned long long>(t.batch_attempted),
              static_cast<unsigned long long>(t.batch_attempted - t.batch_failed),
              static_cast<unsigned long long>(t.batch_failed),
              static_cast<unsigned long long>(t.batch_mismatched));
  const auto& lat = t.run.open.latency_us;
  std::printf("open loop: %zu latency samples (%zu per window); whole phase "
              "p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f us; generator late p99 "
              "%.1f us, max %.1f us\n",
              lat.size(), lat.size() / kLatencyWindows, quantile(lat, 0.5),
              quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 0.999),
              quantile(t.run.open.late_us, 0.99),
              quantile(t.run.open.late_us, 1.0));
  const auto& seg = t.run.closed.segment_rates;
  std::printf("closed loop: %zu segments of %zu, rate q1 %.0f median %.0f q3 "
              "%.0f flows/s; %.0f flows/s over the whole phase\n",
              seg.size(), kSegment, quantile(seg, 0.25), quantile(seg, 0.5),
              quantile(seg, 0.75),
              static_cast<double>(t.run.closed.attempted) / t.run.closed.wall_s);
}

}  // namespace

Outcome run_serve(const Options& opt, bool hot) {
  Outcome out;
  // Set-up kSetupReps times; keep the last. In the traced run the last
  // set-up is the traced one, and the others give the untraced figure.
  std::vector<double> setup_s, fit_s, nids_s;
  std::unique_ptr<ServeSetup> s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool traced_rep = opt.trace && rep + 1 == kSetupReps;
    trace::set_enabled(traced_rep);
    s.reset();
    s = set_up(opt, hot, opt.trace, out);
    if (!traced_rep) {
      setup_s.push_back(s->setup_s);
      fit_s.push_back(s->fit_s);
    }
    nids_s.push_back(s->corpus.nids_s);
  }
  trace::set_enabled(false);

  const Timed a = run_phases(*s, opt, hot, out);
  Timed b;
  if (opt.trace) {
    trace::set_enabled(true);
    b = run_phases(*s, opt, hot, out);
  }
  const Timed& measured = opt.trace ? b : a;

  s->server->shutdown();
  const serve::ServerStats st = s->server->stats();
  out.expect(st.completed == st.accepted, "ServerStats::completed != accepted");
  out.expect(st.ok + st.expired + st.failed == st.completed,
             "ok + expired + failed != completed");
  std::printf("server: accepted %llu, completed %llu, flushes %llu "
              "(mean %.1f rows), batch rows planned %zu, watchdog stalls "
              "%llu\n",
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.batches), st.mean_batch_rows,
              s->server->max_batch_rows(),
              static_cast<unsigned long long>(st.watchdog_stalls));

  set_phase("checks");
  // Every timed phase of every pass: counts, bit-identity, accuracy.
  std::uint64_t predicted = 0, correct = 0, malformed_sent = 0;
  const Timed* passes[] = {&a, &b};
  for (const Timed* t : passes) {
    if (t == &b && !opt.trace) break;
    for (const PhaseStats* p : {&t->run.open, &t->run.closed}) {
      out.expect(p->succeeded + p->failed() == p->attempted,
                 p->name + ": a request did not end in exactly one status");
      out.expect(p->mismatched == 0,
                 p->name + ": kOk response differs from scores()");
      out.expect(p->failed_other == 0,
                 p->name + ": a well-formed flow ended without scores");
      out.attempted += p->attempted;
      out.failed += p->failed();
      predicted += p->predicted;
      correct += p->predicted_correct;
      if (!hot) malformed_sent += p->attempted / kMalformedEvery;
    }
    out.attempted += t->batch_attempted;
    out.failed += t->batch_failed;
    if (!hot) malformed_sent += t->batch_attempted / kMalformedEvery;
    if (!hot) {
      out.expect(t->run.closed_cache_hits == 0,
                 "cold closed-loop phase recorded encode-cache hits");
    }
  }
  std::printf("malformed flows sent in the timed phases: %llu, of which "
              "served kOk with a verdict (failed): %llu -- Server::try_submit "
              "checks neither width nor finiteness, so no invalid-input "
              "status exists\n",
              static_cast<unsigned long long>(malformed_sent),
              static_cast<unsigned long long>(out.failed));
  out.expect(out.failed <= malformed_sent,
             "more failures than malformed flows sent");
  const double served_accuracy =
      predicted == 0 ? 0.0 : static_cast<double>(correct) /
                                 static_cast<double>(predicted);
  out.expect(served_accuracy > s->corpus.majority_share,
             "served accuracy does not beat the majority-class share");

  // Independent reference over every well-formed pool row; served kOk
  // responses equal these rows bit for bit (checked above).
  const Reference ref(*s->clf, hot ? 1 : 8, s->snapshot.get());
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < s->pool.rows(); ++i) {
    if (s->malformed[i] == 0) rows.push_back(i);
  }
  core::Matrix served(rows.size(), ref.num_classes());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy_n(s->expected.row(rows[i]).data(), ref.num_classes(),
                served.row(i).data());
  }
  const CheckCounts cc = check_scores(ref, s->pool, rows, served, 4);
  std::printf("reference check (%d-bit): %zu rows, max |diff| %.3g (tolerance "
              "%.3g), %zu near ties, %zu score and %zu class violations\n",
              ref.bits(), cc.rows, cc.max_abs_diff, ref.tolerance(),
              cc.near_ties, cc.score_violations, cc.class_violations);
  out.expect(cc.ok(), "served scores disagree with the independent reference");
  // Self-test: one perturbed score must fail the same check.
  out.expect(perturbation_is_caught(ref, s->pool, rows[0], served.row(0)),
             "self-test: a perturbed score passed the checks");

  std::printf("workload %s: setup %.3f s (median of %zu), fastest fit %.3f s, "
              "served accuracy %.4f vs majority share %.4f\n",
              hot ? "serve-hot-1b" : "serve-cold-i8", median(setup_s),
              setup_s.size(), undisturbed_time(fit_s), served_accuracy,
              s->corpus.majority_share);
  print_phases(measured);
  const auto& c = measured.run.cache;
  std::printf("encode cache over the timed phases: hit rate %.4f, %llu misses, "
              "%llu evictions, %llu borrowed rows, %llu resident bytes\n",
              c.hit_rate(), static_cast<unsigned long long>(c.misses),
              static_cast<unsigned long long>(c.evictions),
              static_cast<unsigned long long>(c.borrowed_rows),
              static_cast<unsigned long long>(c.bytes_resident));

  const auto e2e = [&](const Timed& t, double setup, double fit) {
    std::vector<Metric> m;
    m.push_back({"setup_s", setup, "s"});
    m.push_back({"fit_s", fit, "s"});
    m.push_back({"batch_flows_per_s", undisturbed_rate(t.batch_rates), "1/s"});
    m.push_back({"flows_per_s", undisturbed_rate(t.run.closed.segment_rates), "1/s"});
    m.push_back({"p50_us", windowed_quantile(t.run.open.latency_us, 0.50), "us"});
    m.push_back({"p90_us", windowed_quantile(t.run.open.latency_us, 0.90), "us"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    return m;
  };
  out.end_to_end = e2e(a, median(setup_s), undisturbed_time(fit_s));
  if (opt.trace) {
    out.traced_end_to_end = e2e(b, s->setup_s, s->fit_s);
    set_phase("layer probes");
    out.layers.push_back({"nids.setup_s", median(nids_s), "s"});
    probe_fit_layers(*s->clf, s->corpus, undisturbed_time(fit_s), out.layers);
    probe_quantized_layers(*s->clf, hot ? 1 : 8, s->corpus.extra, out.layers);
    serving_layer_metrics(b.run, out.layers);
  }
  trace::set_enabled(false);
  return out;
}

}  // namespace perfbench
