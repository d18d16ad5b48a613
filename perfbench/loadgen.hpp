// The load generator: one client thread driving serve::Server through its
// public API, in an open loop (seeded Poisson arrivals, latency from each
// request's intended send time, generator lateness reported) or a closed
// loop (a fixed window of outstanding requests, whole segments of a fixed
// request count). Every response is checked as it is harvested: a kOk
// response must be bit-identical to that row's per-row scores() call, and
// a malformed (non-finite) flow must end in an explicit non-OK status.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/classifier.hpp"
#include "core/matrix.hpp"
#include "hdc/encode_cache.hpp"
#include "serve/result_slot.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Result slots of the client: the open loop may have this many requests
/// in flight before it waits on the oldest.
inline constexpr std::size_t kClientSlots = 16384;
/// Outstanding requests of the closed-loop client.
inline constexpr std::size_t kClosedWindow = 1024;

/// Busy-wait until the steady clock reads at least `due_ns`; returns the
/// reading. The open loops send on time this way, not a sleep's late wake.
std::uint64_t spin_until(std::uint64_t due_ns) noexcept;

/// What a serving phase replays: request i sends row order[i % size] of
/// `pool`.
struct Flows {
  const cyberhd::core::Matrix* pool = nullptr;
  const std::vector<int>* labels = nullptr;
  const std::vector<char>* malformed = nullptr;  // per pool row
  /// Per-row scores() of the served model: what every kOk must equal.
  const cyberhd::core::Matrix* expected = nullptr;
  std::vector<std::size_t> order;
};

struct PhaseStats {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  /// Malformed flows served kOk with a verdict (the program fails open).
  std::uint64_t failed_malformed = 0;
  /// Well-formed flows that ended without scores.
  std::uint64_t failed_other = 0;
  /// kOk responses that differ from the per-row scores() call.
  std::uint64_t mismatched = 0;
  /// try_submit refusals (ring full) that the client retried.
  std::uint64_t rejected = 0;
  std::uint64_t predicted = 0;
  std::uint64_t predicted_correct = 0;
  std::vector<double> latency_us;  // open loop: completion - intended send
  std::vector<double> late_us;     // open loop: actual - intended send
  double service_us_sum = 0.0;     // completion - actual send, summed
  std::vector<double> segment_rates;  // closed loop: requests/s per segment
  double wall_s = 0.0;
  std::uint64_t submit_ns = 0;  // traced: client time inside submit calls
  std::uint64_t submits = 0;
  std::uint32_t span_id = 0;

  std::uint64_t failed() const noexcept {
    return failed_malformed + failed_other;
  }
  void print() const;
};

class ServeClient {
 public:
  ServeClient(cyberhd::serve::Server& server, const Flows& flows,
              std::size_t slots);

  /// Closed-loop warm-up, discarded from the metrics. It also pins the
  /// offset of the server's clock, so completion stamps can be compared
  /// with intended send times.
  PhaseStats warmup(std::size_t requests, std::size_t window);
  /// `requests` sends on a seeded Poisson schedule at `rate` per second.
  PhaseStats open_loop(std::size_t requests, double rate,
                       std::uint64_t seed);
  /// Whole segments of `segment` requests with `window` outstanding, until
  /// `budget_s` has passed and at least `min_segments` are done.
  PhaseStats closed_loop(std::size_t window, std::size_t segment,
                         double budget_s, std::size_t min_segments);

 private:
  struct Pending {
    std::size_t request = 0;
    std::size_t row = 0;
    std::uint64_t intended_ns = 0;
    std::uint64_t sent_ns = 0;
    std::uint64_t after_ns = 0;
    bool live = false;
  };
  enum class Mode { kWarmup, kOpen, kClosed };

  void send(std::size_t slot, std::size_t request, std::uint64_t intended_ns,
            std::uint64_t sent_ns, PhaseStats& st);
  void harvest(std::size_t slot, Mode mode, PhaseStats& st);
  void drain(Mode mode, PhaseStats& st);
  std::uint64_t completion_ns(const cyberhd::serve::ResultSlot& s) const;

  cyberhd::serve::Server& server_;
  const Flows& flows_;
  std::vector<cyberhd::serve::ResultSlot> slots_;
  std::vector<Pending> pending_;
  std::size_t classes_;
  // Server-clock epoch in our steady-clock nanoseconds, bracketed by the
  // warm-up's submit calls.
  std::int64_t epoch_lo_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t epoch_hi_ = std::numeric_limits<std::int64_t>::max();
  std::uint64_t epoch_ns_ = 0;
  // Closed loop: completion stamp of each segment's last request.
  std::size_t segment_ = 0;
  std::vector<std::uint64_t> boundary_ns_;
};

/// A Classifier decorator handed to Server in the traced run: forwards
/// every virtual the server consults and times each scores_block call.
class TimedClassifier final : public cyberhd::core::Classifier {
 public:
  explicit TimedClassifier(const cyberhd::core::Classifier& inner)
      : inner_(inner) {}

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t rows = 0;
    double row_weighted_ns = 0.0;  // sum of call time x rows
  };
  Totals totals() const noexcept;
  /// Parent span of the flush spans recorded from now on.
  void set_parent(std::uint32_t span) noexcept {
    parent_.store(span, std::memory_order_relaxed);
  }

  void fit(const cyberhd::core::Matrix&, std::span<const int>,
           std::size_t) override;
  std::size_t num_classes() const noexcept override {
    return inner_.num_classes();
  }
  int predict(std::span<const float> x) const override {
    return inner_.predict(x);
  }
  void scores(std::span<const float> x,
              std::span<float> out) const override {
    inner_.scores(x, out);
  }
  void predict_batch(const cyberhd::core::Matrix& x,
                     std::span<int> out) const override {
    inner_.predict_batch(x, out);
  }
  std::size_t preferred_batch_rows(
      const cyberhd::core::Matrix& x) const override {
    return inner_.preferred_batch_rows(x);
  }
  void scores_block(const cyberhd::core::Matrix& x, std::size_t begin,
                    std::size_t end,
                    cyberhd::core::Matrix& out) const override;
  std::string name() const override { return inner_.name(); }

 private:
  const cyberhd::core::Classifier& inner_;
  std::atomic<std::uint32_t> parent_{0};
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> ns_{0};
  mutable std::atomic<std::uint64_t> rows_{0};
  mutable std::atomic<std::uint64_t> row_weighted_ns_{0};
};

/// The two timed serving phases of a run.
struct ServingPlan {
  double open_rate = 0.0;          ///< offered requests per second
  std::size_t open_requests = 0;   ///< whole passes over the flows
  std::size_t window = 0;          ///< closed-loop outstanding requests
  std::size_t segment = 0;         ///< closed-loop requests per segment
  double closed_budget_s = 0.0;
  std::size_t min_segments = 3;
  std::uint64_t seed = 0;
};

struct ServingRun {
  PhaseStats open;
  PhaseStats closed;
  /// Encode-cache counter deltas over both phases (bytes_resident: at end).
  cyberhd::hdc::EncodeCacheStats cache;
  std::uint64_t closed_cache_hits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t flushes = 0;
  double batch_rows = 0.0;
  TimedClassifier::Totals open_flush, closed_flush;  // traced run only
};

/// Run the open-loop phase, then the closed-loop phase. `cache` (may be
/// null) and `timed` (null when untraced) are read before and after each.
ServingRun run_serving(ServeClient& client,
                       const cyberhd::serve::Server& server,
                       const cyberhd::hdc::EncodeCache* cache,
                       TimedClassifier* timed, const ServingPlan& plan);

/// The serve.*, hdc.encode_cache.* and gen.* layer metrics of a traced run.
void serving_layer_metrics(const ServingRun& run, std::vector<Metric>& layers);

}  // namespace perfbench
