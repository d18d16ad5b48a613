// Content-addressed encode cache — the stage between encoding and scoring
// that lets repeated flows skip the encode entirely.
//
// NIDS serving traffic is dominated by recurring flows: the same feature
// vector arrives again and again (heartbeats, retries, scans, the benign
// background). Encoding is the expensive stage (D x F multiply-adds plus a
// cosine per hypervector dimension, ~10x the scoring cost at NIDS shapes),
// yet its output is a pure function of the raw row once the encoder is
// trained. The cache exploits exactly that: rows are keyed by a 64-bit
// content hash of their raw feature bytes, hits are verified by comparing
// the stored raw row byte-for-byte (a hash collision can therefore never
// serve a wrong vector — the bit-identical-scores contract survives
// adversarial inputs), and storage is a fixed-capacity ring so the working
// set of a stream ages out FIFO with zero per-hit bookkeeping.
//
// Concurrency: the cache is hash-partitioned into independent SHARDS, each
// with its own mutex, ring, index, and counters. Rows map to shards by
// content hash, so N serving streams probing concurrently contend only
// when their rows land in the same shard — the single global mutex the
// first version serialized every stream on is gone. The shard count is a
// construction knob (CYBERHD_CACHE_SHARDS; auto = enough shards to cover
// the shared-L3 domains and typical worker counts), and every contract
// below holds per shard: content-verified hits, FIFO ring eviction,
// deterministic replay.
//
// Determinism contract: a hit replays the float vector a previous encode
// produced for the *identical* raw row; encoders are deterministic, so
// scores computed through the cache are bit-identical to cache-off scoring
// for any capacity, shard count, eviction pattern, thread count, or kernel
// backend.
//
// The capacity knob is CYBERHD_ENCODE_CACHE (rows; 0 disables) — see
// capacity_from_env().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/exec/execution_context.hpp"
#include "core/function_ref.hpp"
#include "core/matrix.hpp"
#include "hdc/encoded_batch.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {

class Encoder;

/// Hit/miss counters of one cache (cumulative since the last clear()),
/// plus the byte-residency snapshot (entries currently held x entry size —
/// how full the ring actually is, and what it could hold; packed entries
/// multiply rows-per-byte 4-32x over float entries at the same capacity).
struct EncodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Bytes of encoded entries resident right now (occupied slots x entry
  /// bytes, summed per shard).
  std::uint64_t bytes_resident = 0;
  /// Bytes the ring can hold (capacity x entry bytes).
  std::uint64_t bytes_capacity = 0;
  /// Rows served zero-copy: hits handed out as borrowed (pinned) pointers
  /// into the ring.
  std::uint64_t borrowed_rows = 0;
  /// Bytes the cache memcpy'd to serve hits. Always 0: the cache never
  /// copies a hit (hits and in-batch replays are handed out as pointers),
  /// and callers that need contiguous rows copy them themselves. Kept
  /// because the benchmark reports and serving_concurrent.csv read it.
  std::uint64_t copied_bytes = 0;
  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// Fixed-capacity, ring-evicting, content-addressed cache of encoded rows,
/// hash-partitioned into independently locked shards. Thread-safe: probe
/// and insert phases serialize per shard; the miss encodes themselves run
/// outside any lock, split across the execution context's pool.
class EncodeCache {
 public:
  /// Default capacity when CYBERHD_ENCODE_CACHE is unset: 4096 rows (at
  /// D = 512 about 8 MiB of encoded vectors — one L3's worth).
  static constexpr std::size_t kDefaultCapacityRows = 4096;
  /// Auto shard count floor: covers the worker counts a single socket
  /// typically throws at the serving path; more L3 domains raise it.
  static constexpr std::size_t kDefaultShards = 8;

  /// The CYBERHD_ENCODE_CACHE knob: a row count ("8192"), 0 to disable,
  /// kDefaultCapacityRows when unset or malformed.
  static std::size_t capacity_from_env() noexcept;

  /// The CYBERHD_CACHE_SHARDS knob: an explicit shard count (clamped to
  /// [1, 256]); 0, unset, or malformed selects auto (max of kDefaultShards
  /// and the detected shared-L3 domain count). The construction-time
  /// clamp to the row capacity still applies either way.
  static std::size_t shards_from_env() noexcept;

  /// A cache for rows of `input_dim` raw features encoding to
  /// `encoded_dim`-dimensional hypervectors, holding up to `capacity_rows`
  /// entries split across `shards` shards (0 = shards_from_env(); always
  /// clamped to at most capacity_rows so every shard owns at least one
  /// slot). Each shard's ring storage is allocated lazily on its first
  /// insert, so models that never take the batch serving path pay nothing
  /// for the default-armed cache.
  ///
  /// `entry_bytes` is the fixed size of one cached encoded entry, set at
  /// arm time: 0 (the default) stores float rows (encoded_dim * 4 bytes);
  /// the quantized pipeline arms its cache with the packed row size
  /// (PackedBatch::row_bytes), so the same ring holds int8 or packed-bit
  /// entries — same content hash, same byte-verified hits, same in-batch
  /// dedup, 4-32x the flows per byte.
  EncodeCache(std::size_t input_dim, std::size_t encoded_dim,
              std::size_t capacity_rows, std::size_t shards = 0,
              std::size_t entry_bytes = 0);

  /// Total row capacity across all shards.
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t encoded_dim() const noexcept { return encoded_dim_; }
  /// Bytes per cached encoded entry (what one slot stores).
  std::size_t entry_bytes() const noexcept { return entry_bytes_; }
  std::size_t shard_count() const noexcept { return num_shards_; }
  /// Rows currently resident (summed across shards).
  std::size_t size() const;

  /// Drop every resident row in every shard and reset all stats.
  void clear();

  /// Aggregate hit/miss/eviction counters, summed across shards.
  EncodeCacheStats stats() const;
  /// One shard's counters (tests pin the per-shard accounting with this).
  EncodeCacheStats shard_stats(std::size_t shard) const;

  /// FNV-1a 64-bit content hash of a raw row's bytes.
  static std::uint64_t hash_row(std::span<const float> x) noexcept;

  /// The shard a hash routes to (exposed so tests can steer rows).
  std::size_t shard_of(std::uint64_t hash) const noexcept;

  /// The batched miss-encode callback of the stage-1 driver. A non-owning
  /// FunctionRef (not std::function): the driver invokes it before
  /// returning, and erasing by reference keeps the call allocation-free —
  /// a capturing lambda passed as a temporary never hits the heap.
  using EncodeMissesFn = core::FunctionRef<void(
      std::span<const std::size_t>, unsigned char*, std::size_t)>;

  /// The stage-1 driver the float and packed pipelines share: point
  /// ws.entry_ptrs[i] at the cached encoding of row begin + i of `x`
  /// (entry_bytes() bytes each), for i in [0, end - begin). Each hit's
  /// ring slot is PINNED (eviction skips it) and its entry pointer is the
  /// slot's stable address inside the ring — no hit byte is copied.
  /// Misses are handed to `encode_misses` in ONE batched call —
  /// `encode_misses(rows, staging, out_stride)` must write, for every
  /// batch-row index i in `rows`, exactly entry_bytes() bytes of the
  /// encoding of batch row i (x.row(begin + i)) to staging + i *
  /// out_stride, deterministically — and their entry pointers point at
  /// those staging rows. The callback owns its own
  /// gather/tile/parallelism (the tile encoders batch the whole miss list
  /// into GEMM-shaped kernel calls) and runs outside every shard lock.
  /// Fresh entries are then inserted; in-batch duplicates alias their
  /// first occurrence's pointer. `staging` must cover all end - begin
  /// rows at `out_stride` >= entry_bytes(). The pins land in ws.borrow,
  /// which the caller MUST release (or let unwind) after stage 2 has
  /// consumed the rows — until then the pinned slots cannot be evicted,
  /// so the pointers stay valid across concurrent inserts. Returns the
  /// number of hits (including in-batch replays). Safe to call
  /// concurrently; ws is the caller's (typically thread-local) scratch.
  std::size_t encode_entries_borrowed(const core::Matrix& x,
                                      std::size_t begin, std::size_t end,
                                      unsigned char* staging,
                                      std::size_t out_stride,
                                      EncodeMissesFn encode_misses,
                                      ScoringWorkspace& ws,
                                      const core::ExecutionContext& exec);

  /// The float form of the driver: encode_entries_borrowed with the float
  /// miss-encode callback (misses batched through encoder.encode_tile
  /// into `staging`, grown to (end - begin) x encoded_dim when too small),
  /// leaving ws.f32_rows[i] pointing at row i's encoding (ring or staging)
  /// for the scoring tile. Only valid for float-armed caches. Returns the
  /// number of hits.
  std::size_t encode_rows_borrowed(const Encoder& encoder,
                                   const core::Matrix& x, std::size_t begin,
                                   std::size_t end, core::Matrix& staging,
                                   ScoringWorkspace& ws,
                                   const core::ExecutionContext& exec);

 private:
  friend class BorrowGuard;
  /// One independently locked partition of the cache.
  struct Shard {
    mutable std::mutex mutex;
    std::size_t capacity = 0;  // slots this shard owns
    // Ring storage, empty until the first insert (see ensure_storage):
    core::Matrix raw;  // capacity x input_dim: the verification copies
    // capacity x entry_stride bytes: the cached encoded entries (float
    // rows, int8 rows, or packed words — the cache is agnostic).
    std::vector<unsigned char, core::AlignedAllocator<unsigned char>>
        entries;
    std::vector<std::uint64_t> slot_hash;  // per slot; valid when occupied
    std::vector<bool> occupied;
    // Per-slot borrow pin counts, mutated only under this shard's mutex.
    // insert() skips pinned slots, so a borrowed entry's bytes are
    // immutable (and data-race-free to read without the lock) until every
    // BorrowGuard holding it releases. Survives clear(): a cleared cache
    // drops its index, not the storage outstanding borrows still read.
    std::vector<std::uint32_t> pins;
    std::size_t resident = 0;  // occupied slot count (bytes accounting)
    std::unordered_map<std::uint64_t, std::uint32_t> index;  // hash -> slot
    std::size_t next_slot = 0;  // ring cursor
    EncodeCacheStats stats;
  };

  /// Slot index of the verified-resident row, or shard.capacity when
  /// absent. Caller holds shard.mutex.
  std::size_t find_slot(const Shard& shard, std::uint64_t hash,
                        std::span<const float> x) const;
  /// Insert (or refresh) a row into the shard's ring. Caller holds
  /// shard.mutex.
  void insert(Shard& shard, std::uint64_t hash, std::span<const float> x,
              const unsigned char* entry);
  /// Allocate the shard's ring storage on first use. Caller holds
  /// shard.mutex.
  void ensure_storage(Shard& shard);
  /// Byte pointer of a shard's slot entry.
  unsigned char* slot_entry(Shard& shard, std::size_t slot) const {
    return shard.entries.data() + slot * entry_stride_;
  }
  const unsigned char* slot_entry(const Shard& shard,
                                  std::size_t slot) const {
    return shard.entries.data() + slot * entry_stride_;
  }

  std::size_t input_dim_;
  std::size_t encoded_dim_;
  std::size_t capacity_;
  std::size_t entry_bytes_;
  std::size_t entry_stride_;  // entry_bytes_ rounded up to a cache line
  std::size_t num_shards_;
  // unique_ptr<[]> rather than vector: a Shard owns a mutex and is
  // therefore immovable.
  std::unique_ptr<Shard[]> shards_;
};

/// The float stage-1 function of both classifiers (the float pipeline and
/// the quantized snapshot's bits 16/32 path): encode rows [begin, end) of
/// `x` and return a row view over them, cache on or off. With `cache` the
/// rows come from encode_rows_borrowed (hits pinned in ws.borrow); without
/// one the block is a single pool-parallel encode_tile into `staging`
/// (grown to (end - begin) x D when too small) and nothing is pinned.
/// Either way ws.entry_ptrs and ws.f32_rows describe the rows, and the
/// caller releases ws.borrow once the view has been consumed.
EncodedRows encode_block_borrowed(const Encoder& encoder, EncodeCache* cache,
                                  const core::Matrix& x, std::size_t begin,
                                  std::size_t end, core::Matrix& staging,
                                  ScoringWorkspace& ws,
                                  const core::ExecutionContext& exec);

}  // namespace cyberhd::hdc
