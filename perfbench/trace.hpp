// Span recorder of the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around calls into the
// library's public functions (the library itself carries no tracing). Each
// thread appends to its own buffer, so recording takes no lock after a
// thread's first span; buffers are read only after the run, when the
// recording threads are quiescent. Every span also feeds a per-thread,
// per-name aggregate (count and total time), which stays exact when the
// stored span list hits its cap.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Whether spans are recorded. Off for the runs that give end-to-end
/// metrics; on for the traced run.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// A fresh span id (never 0; 0 means "no parent").
std::uint32_t new_id() noexcept;

/// Record one finished span. `name` must be a string literal. `group` is
/// the id shared by the request spans of one phase (0 when none).
void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint32_t id, std::uint32_t parent, std::uint32_t group = 0);

/// RAII span: starts at construction, records at destruction when tracing
/// is on. Nested scopes on one thread take the enclosing scope as parent.
class Scope {
 public:
  explicit Scope(const char* name) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t start_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};

/// The innermost open Scope of the calling thread (0 when none).
std::uint32_t current() noexcept;

struct Totals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  /// Total minus the time covered by recorded child spans.
  std::uint64_t self_ns = 0;
};

/// Per-name totals over every thread's spans.
std::map<std::string, Totals> summarize();
/// Spans recorded in aggregates but not stored (per-thread cap reached).
std::uint64_t dropped();
/// Write every stored span as one JSON object per line. Returns false on
/// I/O failure.
bool write_jsonl(const std::string& path);

}  // namespace perfbench::trace
