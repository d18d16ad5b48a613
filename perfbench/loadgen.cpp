#include "loadgen.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>

#include "trace.hpp"

namespace perfbench {

using cyberhd::serve::RequestStatus;
using cyberhd::serve::ResultSlot;
using trace::now_ns;

std::uint64_t spin_until(std::uint64_t due_ns) noexcept {
  std::uint64_t now = now_ns();
  while (now < due_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    now = now_ns();
  }
  return now;
}

void PhaseStats::print() const {
  std::printf(
      "phase %-14s attempted %8llu  succeeded %8llu  failed %6llu "
      "(malformed served kOk %llu, other %llu)  mismatched %llu  "
      "ring-full retries %llu  wall %.3f s\n",
      name.c_str(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(succeeded),
      static_cast<unsigned long long>(failed()),
      static_cast<unsigned long long>(failed_malformed),
      static_cast<unsigned long long>(failed_other),
      static_cast<unsigned long long>(mismatched),
      static_cast<unsigned long long>(rejected), wall_s);
}

ServeClient::ServeClient(cyberhd::serve::Server& server, const Flows& flows,
                         std::size_t slots)
    : server_(server),
      flows_(flows),
      slots_(slots),
      pending_(slots),
      classes_(server.num_classes()) {
  if (flows.order.empty()) throw std::invalid_argument("no flows to replay");
}

std::uint64_t ServeClient::completion_ns(const ResultSlot& s) const {
  // Server stamps are whole microseconds since its epoch; take the middle.
  return epoch_ns_ + s.completed_at_us() * 1000 + 500;
}

void ServeClient::send(std::size_t slot, std::size_t request,
                       std::uint64_t intended_ns, std::uint64_t sent_ns,
                       PhaseStats& st) {
  Pending& p = pending_[slot];
  p.request = request;
  p.row = flows_.order[request % flows_.order.size()];
  p.intended_ns = intended_ns;
  p.sent_ns = sent_ns;
  p.live = true;
  const auto x = flows_.pool->row(p.row);
  ResultSlot& s = slots_[slot];
  if (!server_.try_submit(x, s)) {
    ++st.rejected;
    if (!server_.submit(x, s)) {
      throw std::runtime_error("server shut down while the client was sending");
    }
  }
  ++st.attempted;
  if (p.sent_ns != 0) {
    p.after_ns = now_ns();
    st.submit_ns += p.after_ns - p.sent_ns;
    ++st.submits;
  }
}

void ServeClient::harvest(std::size_t slot, Mode mode, PhaseStats& st) {
  Pending& p = pending_[slot];
  if (!p.live) return;
  p.live = false;
  const ResultSlot& s = slots_[slot];
  s.wait();
  const bool malformed = (*flows_.malformed)[p.row] != 0;
  if (s.status() == RequestStatus::kOk) {
    if (malformed) {
      ++st.failed_malformed;
    } else {
      ++st.succeeded;
      const auto got = s.scores();
      const auto want = flows_.expected->row(p.row);
      if (std::memcmp(got.data(), want.data(), classes_ * sizeof(float)) != 0) {
        ++st.mismatched;
      }
      const auto best = std::max_element(got.begin(), got.end()) - got.begin();
      ++st.predicted;
      st.predicted_correct += best == (*flows_.labels)[p.row];
    }
  } else if (malformed) {
    ++st.succeeded;  // an explicit non-OK status is the right outcome
  } else {
    ++st.failed_other;
  }

  if (mode == Mode::kWarmup) {
    const auto sub = static_cast<std::int64_t>(s.submitted_at_us()) * 1000;
    epoch_lo_ = std::max(epoch_lo_,
                         static_cast<std::int64_t>(p.sent_ns) - sub - 999);
    epoch_hi_ = std::min(epoch_hi_, static_cast<std::int64_t>(p.after_ns) - sub);
    return;
  }
  const std::uint64_t done = completion_ns(s);
  if (mode == Mode::kOpen) {
    st.latency_us.push_back(
        static_cast<double>(static_cast<std::int64_t>(done - p.intended_ns)) /
        1e3);
    st.service_us_sum +=
        static_cast<double>(static_cast<std::int64_t>(done - p.sent_ns)) / 1e3;
  } else if (segment_ != 0 && (p.request + 1) % segment_ == 0) {
    boundary_ns_[(p.request + 1) / segment_ - 1] = done;
  }
  if (trace::enabled()) {
    trace::record("serve.request",
                  mode == Mode::kOpen ? p.intended_ns : p.sent_ns, done,
                  trace::new_id(), st.span_id, st.span_id);
  }
}

void ServeClient::drain(Mode mode, PhaseStats& st) {
  std::vector<std::size_t> live;
  for (std::size_t j = 0; j < pending_.size(); ++j) {
    if (pending_[j].live) live.push_back(j);
  }
  std::sort(live.begin(), live.end(), [this](std::size_t a, std::size_t b) {
    return pending_[a].request < pending_[b].request;
  });
  for (std::size_t j : live) harvest(j, mode, st);
}

PhaseStats ServeClient::warmup(std::size_t requests, std::size_t window) {
  PhaseStats st;
  st.name = "warm-up";
  set_phase("warm-up");
  window = std::min(window, slots_.size());
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t j = i % window;
    harvest(j, Mode::kWarmup, st);
    send(j, i, 0, now_ns(), st);
  }
  drain(Mode::kWarmup, st);
  st.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  if (epoch_lo_ > epoch_hi_) {
    throw std::runtime_error("server clock offset could not be bracketed");
  }
  epoch_ns_ = static_cast<std::uint64_t>(epoch_lo_ + (epoch_hi_ - epoch_lo_) / 2);
  return st;
}

PhaseStats ServeClient::open_loop(std::size_t requests, double rate,
                                  std::uint64_t seed) {
  PhaseStats st;
  st.name = "open-loop";
  set_phase("open-loop");
  st.latency_us.reserve(requests);
  st.late_us.reserve(requests);
  if (trace::enabled()) st.span_id = trace::new_id();
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  const std::uint64_t start = now_ns() + 1'000'000;
  double t = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t j = i % slots_.size();
    harvest(j, Mode::kOpen, st);
    t += gap(gen);
    const std::uint64_t due = start + static_cast<std::uint64_t>(t * 1e9);
    const std::uint64_t now = spin_until(due);
    st.late_us.push_back(static_cast<double>(now - due) / 1e3);
    send(j, i, due, now, st);
  }
  drain(Mode::kOpen, st);
  const std::uint64_t end = now_ns();
  st.wall_s = static_cast<double>(end - start) / 1e9;
  if (st.span_id != 0) {
    trace::record("phase.open_loop", start, end, st.span_id, trace::current());
  }
  return st;
}

PhaseStats ServeClient::closed_loop(std::size_t window, std::size_t segment,
                                    double budget_s,
                                    std::size_t min_segments) {
  PhaseStats st;
  st.name = "closed-loop";
  set_phase("closed-loop");
  window = std::min(window, slots_.size());
  if (trace::enabled()) st.span_id = trace::new_id();
  segment_ = segment;
  boundary_ns_.clear();
  const std::uint64_t start = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(budget_s * 1e9);
  const bool timed = trace::enabled();
  std::size_t i = 0;
  for (;; ++i) {
    if (i % segment == 0) {
      if (boundary_ns_.size() >= min_segments && now_ns() - start >= budget_ns) {
        break;
      }
      boundary_ns_.push_back(0);
    }
    const std::size_t j = i % window;
    harvest(j, Mode::kClosed, st);
    send(j, i, 0, timed ? now_ns() : 0, st);
  }
  drain(Mode::kClosed, st);
  const std::uint64_t end = now_ns();
  st.wall_s = static_cast<double>(end - start) / 1e9;
  std::uint64_t prev = start;
  for (std::uint64_t b : boundary_ns_) {
    st.segment_rates.push_back(static_cast<double>(segment) /
                               (static_cast<double>(b - prev) / 1e9));
    prev = b;
  }
  segment_ = 0;
  if (st.span_id != 0) {
    trace::record("phase.closed_loop", start, end, st.span_id,
                  trace::current());
  }
  return st;
}

void TimedClassifier::fit(const cyberhd::core::Matrix&, std::span<const int>,
                          std::size_t) {
  throw std::logic_error("TimedClassifier only serves a fitted model");
}

void TimedClassifier::scores_block(const cyberhd::core::Matrix& x,
                                   std::size_t begin, std::size_t end,
                                   cyberhd::core::Matrix& out) const {
  if (!trace::enabled()) {
    inner_.scores_block(x, begin, end, out);
    return;
  }
  const std::uint64_t t0 = now_ns();
  inner_.scores_block(x, begin, end, out);
  const std::uint64_t t1 = now_ns();
  const std::uint64_t rows = end - begin;
  calls_.fetch_add(1, std::memory_order_relaxed);
  ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
  rows_.fetch_add(rows, std::memory_order_relaxed);
  row_weighted_ns_.fetch_add((t1 - t0) * rows, std::memory_order_relaxed);
  const std::uint32_t parent = parent_.load(std::memory_order_relaxed);
  trace::record("serve.server.flush", t0, t1, trace::new_id(), parent, parent);
}

namespace {

TimedClassifier::Totals minus(const TimedClassifier::Totals& a,
                              const TimedClassifier::Totals& b) {
  return {a.calls - b.calls, a.ns - b.ns, a.rows - b.rows,
          a.row_weighted_ns - b.row_weighted_ns};
}

double batched_rows(const cyberhd::serve::ServerStats& s) {
  return s.mean_batch_rows * static_cast<double>(s.batches);
}

}  // namespace

ServingRun run_serving(ServeClient& client,
                       const cyberhd::serve::Server& server,
                       const cyberhd::hdc::EncodeCache* cache,
                       TimedClassifier* timed, const ServingPlan& plan) {
  using cyberhd::hdc::EncodeCacheStats;
  const auto cache_stats = [cache] {
    return cache != nullptr ? cache->stats() : EncodeCacheStats{};
  };
  const auto flush_totals = [timed] {
    return timed != nullptr ? timed->totals() : TimedClassifier::Totals{};
  };
  ServingRun run;
  const EncodeCacheStats c0 = cache_stats();
  const cyberhd::serve::ServerStats s0 = server.stats();
  const TimedClassifier::Totals f0 = flush_totals();

  const trace::Scope span("phase.serving");
  if (timed != nullptr) timed->set_parent(span.id());
  run.open = client.open_loop(plan.open_requests, plan.open_rate, plan.seed);
  const EncodeCacheStats c1 = cache_stats();
  const TimedClassifier::Totals f1 = flush_totals();
  run.closed = client.closed_loop(plan.window, plan.segment,
                                  plan.closed_budget_s, plan.min_segments);
  const EncodeCacheStats c2 = cache_stats();
  const cyberhd::serve::ServerStats s2 = server.stats();
  const TimedClassifier::Totals f2 = flush_totals();

  run.cache.hits = c2.hits - c0.hits;
  run.cache.misses = c2.misses - c0.misses;
  run.cache.evictions = c2.evictions - c0.evictions;
  run.cache.borrowed_rows = c2.borrowed_rows - c0.borrowed_rows;
  run.cache.copied_bytes = c2.copied_bytes - c0.copied_bytes;
  run.cache.bytes_resident = c2.bytes_resident;
  run.cache.bytes_capacity = c2.bytes_capacity;
  run.closed_cache_hits = c2.hits - c1.hits;
  run.rejected = s2.rejected - s0.rejected;
  run.flushes = s2.batches - s0.batches;
  run.batch_rows = run.flushes == 0 ? 0.0
                                    : (batched_rows(s2) - batched_rows(s0)) /
                                          static_cast<double>(run.flushes);
  run.open_flush = minus(f1, f0);
  run.closed_flush = minus(f2, f1);
  return run;
}

void serving_layer_metrics(const ServingRun& run, std::vector<Metric>& layers) {
  const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const auto& c = run.cache;
  layers.push_back({"hdc.encode_cache.hit_rate", c.hit_rate(), "ratio"});
  layers.push_back({"hdc.encode_cache.misses", static_cast<double>(c.misses), "count"});
  layers.push_back({"hdc.encode_cache.evictions", static_cast<double>(c.evictions), "count"});
  layers.push_back({"hdc.encode_cache.borrowed_rows", static_cast<double>(c.borrowed_rows), "count"});
  layers.push_back({"hdc.encode_cache.copied_bytes", static_cast<double>(c.copied_bytes), "bytes"});
  layers.push_back({"hdc.encode_cache.bytes_resident", static_cast<double>(c.bytes_resident), "bytes"});

  const double submits = static_cast<double>(run.open.submits + run.closed.submits);
  layers.push_back({"serve.queue.submit_ns",
                    ratio(static_cast<double>(run.open.submit_ns + run.closed.submit_ns), submits),
                    "ns"});
  layers.push_back({"serve.queue.rejected", static_cast<double>(run.rejected), "count"});
  layers.push_back({"serve.server.flushes", static_cast<double>(run.flushes), "count"});
  layers.push_back({"serve.server.batch_rows", run.batch_rows, "rows"});
  const double calls = static_cast<double>(run.open_flush.calls + run.closed_flush.calls);
  const double flush_ns = static_cast<double>(run.open_flush.ns + run.closed_flush.ns);
  layers.push_back({"serve.server.flush_us", ratio(flush_ns, calls) / 1e3, "us"});
  layers.push_back({"serve.server.busy_frac",
                    ratio(static_cast<double>(run.closed_flush.ns) / 1e9, run.closed.wall_s),
                    "ratio"});
  const double mean_service_us =
      ratio(run.open.service_us_sum, static_cast<double>(run.open.attempted));
  const double weighted_flush_us =
      ratio(run.open_flush.row_weighted_ns, static_cast<double>(run.open_flush.rows)) / 1e3;
  layers.push_back({"serve.server.queue_wait_us", mean_service_us - weighted_flush_us, "us"});
  layers.push_back({"gen.late_p99_us", quantile(run.open.late_us, 0.99), "us"});
}

TimedClassifier::Totals TimedClassifier::totals() const noexcept {
  Totals t;
  t.calls = calls_.load(std::memory_order_relaxed);
  t.ns = ns_.load(std::memory_order_relaxed);
  t.rows = rows_.load(std::memory_order_relaxed);
  t.row_weighted_ns =
      static_cast<double>(row_weighted_ns_.load(std::memory_order_relaxed));
  return t;
}

}  // namespace perfbench
