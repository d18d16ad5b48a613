// Shared declarations of the end-to-end benchmark harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the end-to-end metrics (always measured with
/// tracing off), the per-layer metrics (traced run only), the operation
/// counts and every correctness violation found.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Traced run: the same end-to-end metrics with tracing on, so the
  /// difference to end_to_end is the tracing overhead.
  std::vector<Metric> traced_end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> violations;

  void expect(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  bool correct() const { return violations.empty(); }
};

/// The phase the run is in (a string literal), named by the diagnostic a
/// run prints when it overstays its time limit.
void set_phase(const char* name) noexcept;
const char* phase() noexcept;

Outcome run_train(const Options& opt);
Outcome run_serve(const Options& opt, bool hot);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);
// Host steal on a shared VM pauses whole vCPUs for milliseconds at a time,
// in spells that come and go within seconds; while it runs near 10%, a
// run's throughput reads up to 2x lower and its open-loop p90 up to 25x
// higher. A figure that a run measures many times is therefore taken from
// its least disturbed repetitions: the 90th percentile of rates, the
// fastest of repeated timings, and the lowest of the open-loop latency
// windows' percentiles. A change to the program moves every repetition,
// so it moves these figures too; host steal has to cover nearly the whole
// run to move them.

/// 90th percentile of repeated rate measurements.
double undisturbed_rate(std::vector<double> rates);
/// Fastest of repeated time measurements.
double undisturbed_time(const std::vector<double>& times);

/// Open-loop latency windows: each window is a run of consecutive requests.
inline constexpr std::size_t kLatencyWindows = 64;
/// Quantile q of each of kLatencyWindows consecutive windows of `v` (in
/// send order); the lowest of them.
double windowed_quantile(const std::vector<double>& v, double q);
/// Peak resident set size of this process (VmHWM) in MB.
double peak_rss_mb();

}  // namespace perfbench
