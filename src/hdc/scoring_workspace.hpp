// ScoringWorkspace — the reusable per-thread scratch that makes a
// steady-state serving flush allocation-free, and BorrowGuard — the RAII
// pin set that makes cache hits zero-copy.
//
// Before this layer, every flush through the serving pipeline allocated:
// the cache's routing scratch (hashes, per-shard row lists), the scorers'
// accumulator tiles (hamming counts, int8 dots), the model's class-norm
// vector, and the miss gather buffers were all per-call std::vectors. None
// of them depends on anything but batch size and model shape, so after a
// warmup pass they can all live in one workspace whose vectors only ever
// grow. The workspace is accessed through a thread_local (tl()), because
// scores_block is const and called concurrently: each server worker gets
// its own scratch with zero synchronization, and the monotonic-growth
// policy means the steady state touches no allocator at all (a test pins
// this with a counting operator new).
//
// BorrowGuard is the other half of zero-copy hits: instead of memcpying a
// hit entry out of the cache ring, the stage-1 drivers PIN the slot
// (a per-slot pin count, mutated only under the shard mutex) and record a
// stable pointer into the ring storage. Ring eviction skips pinned slots,
// and ring storage never reallocates after its lazy ensure_storage, so the
// pointer stays valid until the guard releases — which the drivers do
// right after stage 2 consumes the scores. The guard is deliberately
// non-copyable and tied to one cache at a time; release() is idempotent
// and batches unpins per shard so a flush's worth of pins costs one lock
// round per shard, not per row.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/matrix.hpp"

namespace cyberhd::hdc {

class EncodeCache;

/// RAII set of pinned cache slots. Filled by the stage-1 cache driver;
/// released (unpinning every slot) explicitly after scoring, or
/// at destruction as a backstop. Never holds pins across flushes.
class BorrowGuard {
 public:
  BorrowGuard() = default;
  BorrowGuard(const BorrowGuard&) = delete;
  BorrowGuard& operator=(const BorrowGuard&) = delete;
  ~BorrowGuard() { release(); }

  /// Unpin every recorded slot (batched per shard) and forget the cache.
  /// Idempotent; keeps the pin vector's capacity for the next flush.
  void release();

  bool empty() const noexcept { return pins_.empty(); }
  std::size_t size() const noexcept { return pins_.size(); }

 private:
  friend class EncodeCache;
  struct Pin {
    std::uint32_t shard;
    std::uint32_t slot;
  };
  EncodeCache* cache_ = nullptr;
  std::vector<Pin> pins_;  // shard-grouped (probe walks shard by shard)
};

/// Per-thread scratch for the serving hot path. Every member grows
/// monotonically and is reused across flushes; none carries state between
/// calls (each driver overwrites what it reads). Distinct pipeline stages
/// use distinct members, so one flush may touch all of them without
/// aliasing.
struct ScoringWorkspace {
  // --- cache routing (EncodeCache::encode_entries_borrowed) --------------
  std::vector<std::uint64_t> hashes;        // per batch row
  std::vector<std::uint32_t> shard_of_row;  // per batch row
  // Counting-sort bucketing of batch rows by shard (replaces the old
  // vector-of-vectors): counts/offsets per shard, then rows_by_shard holds
  // each shard's rows contiguously IN BATCH ORDER — the stability the
  // in-batch dedup relies on (the dup source must be the earlier
  // occurrence).
  std::vector<std::uint32_t> shard_counts;
  std::vector<std::uint32_t> shard_offsets;
  std::vector<std::uint32_t> rows_by_shard;
  // Miss list (std::size_t so the encode_misses callback keeps its
  // span<const size_t> shape). Misses are appended walking shards in
  // order, so shard s's misses are the contiguous range
  // [miss_shard_end[s-1], miss_shard_end[s]).
  std::vector<std::size_t> misses;
  std::vector<std::uint32_t> miss_shard_end;

  /// In-batch duplicate: `row` replays the fresh encode of `src`.
  struct BatchDup {
    std::size_t row;
    std::size_t src;
  };
  std::vector<BatchDup> dups;

  /// Open-addressed hash -> first-occurrence map, replacing the per-call
  /// unordered_map. Generation-stamped so reset() is O(1) after the first
  /// sizing: a slot is live only when its stamp equals the current
  /// generation.
  struct DedupTable {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> vals;
    std::vector<std::uint32_t> stamps;
    std::uint32_t gen = 0;
    std::size_t mask = 0;

    /// Make the table empty with capacity for `n` distinct keys at a load
    /// factor <= 0.5.
    void reset(std::size_t n) {
      std::size_t need = 16;
      while (need < 2 * n) need *= 2;
      if (keys.size() < need) {
        keys.resize(need);
        vals.resize(need);
        stamps.assign(need, 0);
        mask = need - 1;
        gen = 1;
        return;
      }
      if (++gen == 0) {  // generation wrap: hard-reset the stamps once
        std::fill(stamps.begin(), stamps.end(), 0);
        gen = 1;
      }
    }

    /// The value previously recorded for `key`, or `val` after recording
    /// it — the open-addressed analogue of try_emplace(key, val).second.
    std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t val) {
      // splitmix64-style finalizer: FNV's low bits cluster for similar
      // rows, and linear probing needs the spread.
      std::uint64_t z = key;
      z ^= z >> 30;
      z *= 0xbf58476d1ce4e5b9ULL;
      z ^= z >> 27;
      z *= 0x94d049bb133111ebULL;
      z ^= z >> 31;
      std::size_t idx = static_cast<std::size_t>(z) & mask;
      while (stamps[idx] == gen) {
        if (keys[idx] == key) return vals[idx];
        idx = (idx + 1) & mask;
      }
      stamps[idx] = gen;
      keys[idx] = key;
      vals[idx] = val;
      return val;
    }
  };
  DedupTable batch_first;

  // --- zero-copy row tables ---------------------------------------------
  // Per batch row: where its encoded entry lives (borrowed ring slot or
  // staging row). entry_ptrs is what every stage-1 driver fills, cache on
  // or off; the typed tables are what the scoring tiles consume.
  std::vector<const unsigned char*> entry_ptrs;
  std::vector<const float*> f32_rows;
  std::vector<const std::int8_t*> i8_rows;
  std::vector<const std::uint64_t*> word_rows;
  /// Trivial table over one contiguous tile, filled right before a single
  /// tile-kernel call and read by it alone (the trainer's score blocks,
  /// the sign-projection encoder). Kept apart from f32_rows so an encode
  /// nested inside a stage-1 driver never clobbers the batch's view.
  std::vector<const float*> tile_f32_rows;
  /// The pins backing any borrowed entries above, released after stage 2.
  BorrowGuard borrow;

  /// Point `table` at `rows` consecutive rows `stride` elements apart from
  /// `base` and return it — the trivial row-pointer table through which
  /// contiguous callers feed the scoring tiles. The table only grows, so
  /// steady-state calls never allocate.
  template <class T>
  static const T* const* row_table(std::vector<const T*>& table,
                                   const T* base, std::size_t rows,
                                   std::size_t stride) {
    if (table.size() < rows) table.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) table[r] = base + r * stride;
    return table.data();
  }

  /// Retype the first `rows` entry_ptrs into `table`, the typed view the
  /// scoring tile of that element type reads, and return it. Ring entries
  /// are 64-byte aligned and staging rows sit a multiple of the element
  /// size apart in aligned buffers, so the casts are sound.
  template <class T>
  const T* const* typed_rows(std::vector<const T*>& table,
                             std::size_t rows) {
    if (table.size() < rows) table.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      table[r] = reinterpret_cast<const T*>(entry_ptrs[r]);
    }
    return table.data();
  }

  /// Make the last stage-1 view contiguous in `staging` (rows of
  /// `row_bytes` each): copy every entry that entry_ptrs places outside
  /// its own staging row — a borrowed ring slot or an in-batch replay —
  /// into that row, then release the pins. The cache never copies a hit;
  /// callers that need contiguous rows pay for the copy here.
  void materialize(unsigned char* staging, std::size_t rows,
                   std::size_t row_bytes) {
    for (std::size_t r = 0; r < rows; ++r) {
      unsigned char* dst = staging + r * row_bytes;
      if (entry_ptrs[r] != dst) std::memcpy(dst, entry_ptrs[r], row_bytes);
    }
    borrow.release();
  }

  // --- scoring scratch ---------------------------------------------------
  /// Per-class norms (float path) or reused norm scratch; recomputed every
  /// call, allocation reused.
  std::vector<float> class_norms;
  /// Integer accumulator tiles for the quantized scorers (tile_rows x
  /// classes): XOR-popcount hamming counts at 1 bit, int64 dots at 2-8
  /// bits. Each pool worker scores through its own workspace, so these
  /// replace the per-call vectors the scoring lambdas used to allocate.
  std::vector<std::uint32_t> ham_tile;
  std::vector<std::int64_t> dot_tile;

  // --- miss gather scratch (packed pipeline) ----------------------------
  core::Matrix miss_raw;  // gathered raw miss rows
  core::Matrix miss_enc;  // their float encodings before quantization
  std::vector<unsigned char, core::AlignedAllocator<unsigned char>>
      miss_packed;  // their packed entries

  /// This thread's workspace. Server workers each score on their own
  /// thread, so per-thread scratch needs no locking; a thread's workspace
  /// reaches steady-state capacity after one warm flush.
  static ScoringWorkspace& tl() {
    thread_local ScoringWorkspace ws;
    return ws;
  }
};

}  // namespace cyberhd::hdc
