#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench::trace {
namespace {

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t group;
};

struct Aggregate {
  const char* name;
  std::uint64_t count;
  std::uint64_t total_ns;
};

// One million stored spans per thread (~32 MiB) bounds the traced run's
// memory; the aggregates keep counting past the cap.
constexpr std::size_t kMaxStoredSpans = std::size_t{1} << 20;

struct Buffer {
  std::vector<Span> spans;
  std::vector<Aggregate> aggregates;
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_registry;  // guarded by the mutex

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint32_t t_current = 0;

Buffer& local_buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(4096);
    t_buffer = owned.get();
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::move(owned));
  }
  return *t_buffer;
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t new_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint32_t id, std::uint32_t parent, std::uint32_t group) {
  Buffer& b = local_buffer();
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  auto it = std::find_if(b.aggregates.begin(), b.aggregates.end(),
                         [name](const Aggregate& a) { return a.name == name; });
  if (it == b.aggregates.end()) {
    b.aggregates.push_back({name, 1, dur});
  } else {
    ++it->count;
    it->total_ns += dur;
  }
  if (b.spans.size() < kMaxStoredSpans) {
    b.spans.push_back({name, start_ns, end_ns, id, parent, group});
  } else {
    ++b.dropped;
  }
}

Scope::Scope(const char* name) noexcept : name_(name) {
  if (!enabled()) return;
  id_ = new_id();
  parent_ = t_current;
  t_current = id_;
  start_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::uint64_t end = now_ns();
  t_current = parent_;
  record(name_, start_, end, id_, parent_);
}

std::uint32_t current() noexcept { return t_current; }

std::map<std::string, Totals> summarize() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::map<std::string, Totals> out;
  for (const auto& b : g_registry) {
    for (const Aggregate& a : b->aggregates) {
      Totals& t = out[a.name];
      t.count += a.count;
      t.total_ns += a.total_ns;
    }
  }
  // Self time: each stored parent span minus the union of its stored
  // children's intervals (children may run in parallel on other threads).
  std::unordered_map<std::uint32_t, const Span*> by_id;
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& b : g_registry) {
    for (const Span& s : b->spans) {
      by_id.emplace(s.id, &s);
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (auto& [name, t] : out) t.self_ns = t.total_ns;
  for (auto& [parent_id, intervals] : children) {
    const auto found = by_id.find(parent_id);
    if (found == by_id.end()) continue;
    const Span& p = *found->second;
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    Totals& t = out[p.name];
    t.self_ns -= std::min(t.self_ns, covered);
  }
  return out;
}

std::uint64_t dropped() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::uint64_t n = 0;
  for (const auto& b : g_registry) n += b->dropped;
  return n;
}

bool write_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (std::size_t t = 0; t < g_registry.size(); ++t) {
    for (const Span& s : g_registry[t]->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"id\":%u,\"parent\":%u,\"group\":%u,\"thread\":%zu}\n",
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.id, s.parent,
                   s.group, t);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
