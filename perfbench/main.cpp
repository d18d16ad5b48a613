// cyberhd_perfbench: one run of one benchmark workload.
//
//   cyberhd_perfbench --workload <train-cic17|serve-hot-1b|serve-cold-i8>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <spans.jsonl>]
//
// Prints a human-readable report, then as its last line one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when a correctness check fails, 2 on a usage or run error.
#include <malloc.h>
#include <sched.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using perfbench::Metric;

constexpr int kRunLimitSeconds = 160;

std::size_t online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

bool parse(int argc, char** argv, perfbench::Options& opt) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

void print_metrics(const char* title, const std::vector<Metric>& m) {
  std::printf("%s\n", title);
  for (const Metric& x : m) {
    std::printf("  %-36s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
}

void print_overhead(const std::vector<Metric>& off,
                    const std::vector<Metric>& on) {
  std::printf("tracing overhead (traced - untraced, same process)\n");
  for (std::size_t i = 0; i < off.size() && i < on.size(); ++i) {
    const double d = on[i].value - off[i].value;
    std::printf("  %-20s untraced %12.6g  traced %12.6g  diff %+12.6g %s "
                "(%+.1f%%)\n",
                off[i].name.c_str(), off[i].value, on[i].value, d,
                off[i].unit.c_str(),
                off[i].value != 0.0 ? 100.0 * d / off[i].value : 0.0);
  }
}

void print_spans() {
  std::printf("layer table (spans recorded from the benchmark's calls)\n");
  std::printf("  %-36s %10s %12s %12s %12s\n", "span", "count", "total ms",
              "self ms", "mean us");
  for (const auto& [name, t] : perfbench::trace::summarize()) {
    std::printf("  %-36s %10llu %12.3f %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6,
                t.count == 0 ? 0.0
                             : static_cast<double>(t.total_ns) / 1e3 /
                                   static_cast<double>(t.count));
  }
  std::printf("  spans kept in aggregates only (per-thread cap): %llu\n",
              static_cast<unsigned long long>(perfbench::trace::dropped()));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <train-cic17|serve-hot-1b|serve-cold-i8>"
                 " --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  const bool train = opt.workload == "train-cic17";
  const bool hot = opt.workload == "serve-hot-1b";
  const bool cold = opt.workload == "serve-cold-i8";
  if (!train && !hot && !cold) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // whether a freed encode matrix stays resident depends on thread timing;
  // with it, peak_rss_mb follows live memory and repeats run to run.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  // Thread budget: every workload serves through Server, so one client
  // thread and the batcher sit beside the pool within the CPUs this
  // process may use.
  const std::size_t cpus = online_cpus();
  if (std::getenv("CYBERHD_THREADS") == nullptr) {
    const std::string workers = std::to_string(cpus > 3 ? cpus - 2 : 1);
    setenv("CYBERHD_THREADS", workers.c_str(), 1);
  }
  std::printf("workload %s seed %llu seconds %g trace %d cpus %zu "
              "CYBERHD_THREADS=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, cpus,
              std::getenv("CYBERHD_THREADS") ? std::getenv("CYBERHD_THREADS")
                                             : "(default)");

  // A run that overstays its limit names the phase it is stuck in and
  // ends the process, threads and all, well before the caller's timeout.
  std::mutex guard_mutex;
  std::condition_variable guard_cv;
  bool finished = false;
  std::thread guard([&] {
    std::unique_lock<std::mutex> lock(guard_mutex);
    if (!guard_cv.wait_for(lock, std::chrono::seconds(kRunLimitSeconds),
                           [&] { return finished; })) {
      std::fprintf(stderr, "run still in phase '%s' after %d s; aborting\n",
                   perfbench::phase(), kRunLimitSeconds);
      std::fflush(stdout);
      std::_Exit(5);
    }
  });
  const auto stop_guard = [&] {
    {
      const std::lock_guard<std::mutex> lock(guard_mutex);
      finished = true;
    }
    guard_cv.notify_all();
    guard.join();
  };

  perfbench::Outcome out;
  try {
    out = train ? perfbench::run_train(opt) : perfbench::run_serve(opt, hot);
  } catch (const std::exception& e) {
    stop_guard();
    std::fprintf(stderr, "run failed in phase '%s': %s\n", perfbench::phase(),
                 e.what());
    return 2;
  }
  stop_guard();

  print_metrics("end-to-end metrics (tracing off)", out.end_to_end);
  const std::vector<Metric>& reported = opt.trace ? out.layers : out.end_to_end;
  if (opt.trace) {
    print_overhead(out.end_to_end, out.traced_end_to_end);
    print_metrics("per-layer metrics (traced run)", out.layers);
    print_spans();
    if (!opt.trace_out.empty() &&
        !perfbench::trace::write_jsonl(opt.trace_out)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   opt.trace_out.c_str());
      return 2;
    }
  }
  for (const Metric& m : reported) {
    out.expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  for (const std::string& v : out.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return out.correct() ? 0 : 1;
}
