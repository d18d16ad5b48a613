#include "hdc/encode_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "core/env.hpp"
#include "hdc/encoder.hpp"

namespace cyberhd::hdc {

std::size_t EncodeCache::capacity_from_env() noexcept {
  // "0" is an explicit disable; the ceiling keeps a typo from demanding
  // terabytes of ring storage (rejected with a warning, not clamped —
  // the shared env contract).
  return static_cast<std::size_t>(core::env::u64(
      "CYBERHD_ENCODE_CACHE", kDefaultCapacityRows, 0, 1ULL << 24));
}

std::size_t EncodeCache::shards_from_env() noexcept {
  // Auto default: at least one shard per shared-L3 domain (the worker
  // groups that probe concurrently), with a floor that keeps contention
  // low even on single-domain hosts serving many client streams.
  const std::size_t auto_shards = std::max<std::size_t>(
      kDefaultShards, core::CacheTopology::detected().l3_domains);
  return static_cast<std::size_t>(
      core::env::u64("CYBERHD_CACHE_SHARDS", auto_shards, 1, 256));
}

EncodeCache::EncodeCache(std::size_t input_dim, std::size_t encoded_dim,
                         std::size_t capacity_rows, std::size_t shards,
                         std::size_t entry_bytes)
    : input_dim_(input_dim),
      encoded_dim_(encoded_dim),
      capacity_(capacity_rows),
      entry_bytes_(entry_bytes != 0 ? entry_bytes
                                    : encoded_dim * sizeof(float)),
      // Cache-line stride: float entries stay 4-aligned and packed-word
      // entries 8-aligned whatever the entry size, and neighbouring slots
      // never share a line.
      entry_stride_((entry_bytes_ + 63) & ~std::size_t{63}) {
  assert(input_dim > 0 && encoded_dim > 0 && capacity_rows > 0);
  if (shards == 0) shards = shards_from_env();
  // Every shard must own at least one ring slot, so tiny caches collapse
  // to fewer shards (capacity 1 = the single-slot aliasing ring the tests
  // exercise, now per shard).
  num_shards_ = std::clamp<std::size_t>(shards, 1, capacity_rows);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  const std::size_t base = capacity_ / num_shards_;
  const std::size_t rem = capacity_ % num_shards_;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    shards_[s].capacity = base + (s < rem ? 1 : 0);
  }
}

std::size_t EncodeCache::shard_of(std::uint64_t hash) const noexcept {
  // FNV's low bits correlate with the last bytes hashed; run the whole
  // word through a splitmix64-style finalizer before the modulus so shard
  // load stays balanced for structured feature rows.
  std::uint64_t z = hash;
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % num_shards_);
}

void EncodeCache::ensure_storage(Shard& shard) {
  if (shard.raw.rows() == shard.capacity) return;
  shard.raw.resize(shard.capacity, input_dim_);
  shard.entries.assign(shard.capacity * entry_stride_, 0);
  shard.slot_hash.assign(shard.capacity, 0);
  shard.occupied.assign(shard.capacity, false);
  shard.pins.assign(shard.capacity, 0);
  shard.resident = 0;
  shard.index.reserve(shard.capacity);
}

void BorrowGuard::release() {
  if (cache_ != nullptr) {
    // Unpin in shard-grouped runs: the probe pass records pins walking one
    // shard at a time, so one lock acquisition covers each run.
    std::size_t i = 0;
    while (i < pins_.size()) {
      const std::uint32_t s = pins_[i].shard;
      EncodeCache::Shard& shard = cache_->shards_[s];
      const std::lock_guard<std::mutex> lock(shard.mutex);
      for (; i < pins_.size() && pins_[i].shard == s; ++i) {
        --shard.pins[pins_[i].slot];
      }
    }
  }
  pins_.clear();
  cache_ = nullptr;
}

std::size_t EncodeCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].index.size();
  }
  return total;
}

void EncodeCache::clear() {
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();
    std::fill(shard.occupied.begin(), shard.occupied.end(), false);
    shard.resident = 0;
    shard.next_slot = 0;
    shard.stats = {};
  }
}

EncodeCacheStats EncodeCache::stats() const {
  EncodeCacheStats total;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total.hits += shards_[s].stats.hits;
    total.misses += shards_[s].stats.misses;
    total.evictions += shards_[s].stats.evictions;
    total.borrowed_rows += shards_[s].stats.borrowed_rows;
    total.bytes_resident +=
        static_cast<std::uint64_t>(shards_[s].resident) * entry_bytes_;
    total.bytes_capacity +=
        static_cast<std::uint64_t>(shards_[s].capacity) * entry_bytes_;
  }
  return total;
}

EncodeCacheStats EncodeCache::shard_stats(std::size_t shard) const {
  assert(shard < num_shards_);
  const std::lock_guard<std::mutex> lock(shards_[shard].mutex);
  EncodeCacheStats s = shards_[shard].stats;
  s.bytes_resident =
      static_cast<std::uint64_t>(shards_[shard].resident) * entry_bytes_;
  s.bytes_capacity =
      static_cast<std::uint64_t>(shards_[shard].capacity) * entry_bytes_;
  return s;
}

std::uint64_t EncodeCache::hash_row(std::span<const float> x) noexcept {
  // FNV-1a 64 over the raw bytes: cheap relative to even one hypervector
  // dimension's encode, and collisions are harmless (find_slot verifies
  // content before serving a hit).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  const std::size_t n = x.size_bytes();
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::size_t EncodeCache::find_slot(const Shard& shard, std::uint64_t hash,
                                   std::span<const float> x) const {
  // Before the shard's first insert its index is empty, so the
  // unallocated ring is never dereferenced.
  const auto it = shard.index.find(hash);
  if (it == shard.index.end()) return shard.capacity;
  const std::size_t slot = it->second;
  if (!shard.occupied[slot] || shard.slot_hash[slot] != hash) {
    return shard.capacity;
  }
  // Content verification: a colliding row must re-encode, never replay
  // another flow's hypervector.
  if (std::memcmp(shard.raw.row(slot).data(), x.data(), x.size_bytes()) !=
      0) {
    return shard.capacity;
  }
  return slot;
}

void EncodeCache::insert(Shard& shard, std::uint64_t hash,
                         std::span<const float> x,
                         const unsigned char* entry) {
  // Borrowed slots are immutable until their guards release: the ring
  // cursor skips pinned slots (bounded scan), and when a flush has pinned
  // the entire shard the insert is simply dropped — the row stays a miss
  // next time, which only costs a re-encode, never a dangling pointer.
  std::size_t slot = shard.next_slot;
  std::size_t tries = 0;
  while (tries < shard.capacity && shard.pins[slot] != 0) {
    slot = (slot + 1) % shard.capacity;
    ++tries;
  }
  if (tries == shard.capacity) return;
  shard.next_slot = (slot + 1) % shard.capacity;
  if (shard.occupied[slot]) {
    // Ring eviction: drop the index entry that still points at this slot
    // (a later insert of the same hash may have redirected it already).
    const auto it = shard.index.find(shard.slot_hash[slot]);
    if (it != shard.index.end() && it->second == slot) {
      shard.index.erase(it);
    }
    ++shard.stats.evictions;
  } else {
    ++shard.resident;
  }
  std::copy(x.begin(), x.end(), shard.raw.row(slot).begin());
  std::memcpy(slot_entry(shard, slot), entry, entry_bytes_);
  shard.slot_hash[slot] = hash;
  shard.occupied[slot] = true;
  shard.index[hash] = static_cast<std::uint32_t>(slot);
}

namespace {

/// The float pipelines' batched miss encode: gather the miss rows into
/// one contiguous block (ws scratch, reused across flushes), run the
/// whole list through the encoder's tile path, then scatter to the miss
/// slots (a D-float memcpy per row — cheap next to the encode it rides
/// on).
void encode_float_misses(const Encoder& encoder, const core::Matrix& x,
                         std::size_t begin, std::size_t input_dim,
                         std::size_t encoded_dim, ScoringWorkspace& ws,
                         const core::ExecutionContext& exec,
                         std::span<const std::size_t> rows,
                         unsigned char* out, std::size_t out_stride) {
  const std::size_t k = rows.size();
  ws.miss_raw.resize(k, input_dim);
  for (std::size_t j = 0; j < k; ++j) {
    const auto src = x.row(begin + rows[j]);
    std::copy(src.begin(), src.end(), ws.miss_raw.row(j).begin());
  }
  ws.miss_enc.resize(k, encoded_dim);
  encoder.encode_tile(ws.miss_raw, 0, k, ws.miss_enc.data(), encoded_dim,
                      exec);
  for (std::size_t j = 0; j < k; ++j) {
    std::memcpy(out + rows[j] * out_stride, ws.miss_enc.row(j).data(),
                encoded_dim * sizeof(float));
  }
}

}  // namespace

std::size_t EncodeCache::encode_rows_borrowed(
    const Encoder& encoder, const core::Matrix& x, std::size_t begin,
    std::size_t end, core::Matrix& staging, ScoringWorkspace& ws,
    const core::ExecutionContext& exec) {
  assert(x.cols() == input_dim_);
  assert(entry_bytes_ == encoded_dim_ * sizeof(float) &&
         "float driver on a float-armed cache only");
  const std::size_t m = end - begin;
  if (staging.rows() < m || staging.cols() != encoded_dim_) {
    staging.resize(m, encoded_dim_);
  }
  auto* out = reinterpret_cast<unsigned char*>(staging.data());
  const std::size_t stride = staging.cols() * sizeof(float);
  const std::size_t hits = encode_entries_borrowed(
      x, begin, end, out, stride,
      [&](std::span<const std::size_t> rows, unsigned char* o,
          std::size_t o_stride) {
        encode_float_misses(encoder, x, begin, input_dim_, encoded_dim_, ws,
                            exec, rows, o, o_stride);
      },
      ws, exec);
  ws.typed_rows(ws.f32_rows, m);
  return hits;
}

std::size_t EncodeCache::encode_entries_borrowed(
    const core::Matrix& x, std::size_t begin, std::size_t end,
    unsigned char* staging, std::size_t out_stride,
    EncodeMissesFn encode_misses, ScoringWorkspace& ws,
    const core::ExecutionContext&) {
  assert(end >= begin && end <= x.rows());
  assert(x.cols() == input_dim_);
  assert(out_stride >= entry_bytes_);
  assert(ws.borrow.empty() &&
         "previous flush's borrows must be released before the next");
  const std::size_t m = end - begin;
  if (m == 0) return 0;
  ws.entry_ptrs.resize(m);
  ws.borrow.cache_ = this;

  // Hashing and shard routing are pure functions of the rows — done
  // before any lock, so concurrent scorers only serialize on their own
  // shards' index lookups, never on the full-batch sweep. Rows are
  // bucketed by shard with a counting sort over flat workspace arrays
  // (no per-call allocation, no vector-of-vectors): the placement walks i
  // ascending, so each shard's bucket keeps BATCH ORDER — the stability
  // the in-batch dedup below relies on.
  ws.hashes.resize(m);
  ws.shard_of_row.resize(m);
  ws.shard_counts.assign(num_shards_, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ws.hashes[i] = hash_row(x.row(begin + i));
    const std::size_t s = shard_of(ws.hashes[i]);
    ws.shard_of_row[i] = static_cast<std::uint32_t>(s);
    ++ws.shard_counts[s];
  }
  ws.shard_offsets.resize(num_shards_);
  std::uint32_t run = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    ws.shard_offsets[s] = run;
    run += ws.shard_counts[s];
  }
  ws.rows_by_shard.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    ws.rows_by_shard[ws.shard_offsets[ws.shard_of_row[i]]++] =
        static_cast<std::uint32_t>(i);
  }
  // shard_offsets[s] now marks the END of shard s's bucket.

  // Probe pass (per shard, under that shard's lock only): pin hits in
  // place and collect miss indices. A row repeated *within* this batch
  // — common when a large coalesced drain covers many arrivals of the
  // same flow — encodes once: later occurrences are deduplicated against
  // the first one and replayed after the encode pass. Identical rows
  // share a hash and therefore a shard, and a shard's bucket is walked in
  // batch order, so the dedup source is always the earlier occurrence.
  // Locks are taken one shard at a time (never nested).
  ws.misses.clear();
  ws.miss_shard_end.resize(num_shards_);
  ws.dups.clear();
  ws.batch_first.reset(m);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::uint32_t bucket_end = ws.shard_offsets[s];
    const std::uint32_t bucket_begin = bucket_end - ws.shard_counts[s];
    if (bucket_begin == bucket_end) {
      ws.miss_shard_end[s] = static_cast<std::uint32_t>(ws.misses.size());
      continue;
    }
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::uint32_t b = bucket_begin; b < bucket_end; ++b) {
      const std::size_t i = ws.rows_by_shard[b];
      const auto row = x.row(begin + i);
      const std::size_t slot = find_slot(shard, ws.hashes[i], row);
      if (slot < shard.capacity) {
        ++shard.pins[slot];
        ws.borrow.pins_.push_back({static_cast<std::uint32_t>(s),
                                   static_cast<std::uint32_t>(slot)});
        ws.entry_ptrs[i] = slot_entry(shard, slot);
        ++shard.stats.borrowed_rows;
        ++shard.stats.hits;
        continue;
      }
      const std::uint32_t first = ws.batch_first.find_or_insert(
          ws.hashes[i], static_cast<std::uint32_t>(i));
      if (first != i &&
          std::memcmp(x.row(begin + first).data(), row.data(),
                      row.size_bytes()) == 0) {
        ws.dups.push_back({i, first});
        ++shard.stats.hits;
      } else {
        ws.misses.push_back(i);
        ++shard.stats.misses;
      }
    }
    ws.miss_shard_end[s] = static_cast<std::uint32_t>(ws.misses.size());
  }

  // Encode pass (lock-free): the whole miss list in one batched callback.
  // The callback owns gather, tiling, and pool-parallelism — the tile
  // encoders turn the list into GEMM-shaped kernel calls, so every base
  // row fetched from cache is reused across the batch's misses instead of
  // re-streamed per row. Per-row results are independent of the batching,
  // so output never depends on the miss mix.
  if (!ws.misses.empty()) {
    encode_misses(std::span<const std::size_t>(ws.misses), staging,
                  out_stride);
  }
  for (const std::size_t i : ws.misses) {
    ws.entry_ptrs[i] = staging + i * out_stride;
  }

  // In-batch duplicates replay the fresh encode of their first occurrence
  // (bit-identical by encoder determinism, like any cache hit) as a
  // pointer alias — the dup source is always a miss row of this same
  // batch, so its staging address is already recorded.
  for (const ScoringWorkspace::BatchDup& d : ws.dups) {
    ws.entry_ptrs[d.row] = ws.entry_ptrs[d.src];
  }

  // Insert pass (per shard, under that shard's lock only): fresh encodes
  // enter their shard's ring in batch order — shard s's misses are the
  // contiguous range [miss_shard_end[s-1], miss_shard_end[s]) of the miss
  // list. In-batch duplicates never reach the misses list (the probe pass
  // routed them into dups), so each distinct row inserts at most once;
  // the re-probe guards against a concurrent caller having inserted the
  // same row between our probe and now.
  std::uint32_t miss_begin = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const std::uint32_t miss_end = ws.miss_shard_end[s];
    if (miss_begin == miss_end) continue;
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ensure_storage(shard);
    for (std::uint32_t j = miss_begin; j < miss_end; ++j) {
      const std::size_t i = ws.misses[j];
      if (find_slot(shard, ws.hashes[i], x.row(begin + i)) <
          shard.capacity) {
        continue;
      }
      insert(shard, ws.hashes[i], x.row(begin + i),
             staging + i * out_stride);
    }
    miss_begin = miss_end;
  }
  return m - ws.misses.size();
}

EncodedRows encode_block_borrowed(const Encoder& encoder, EncodeCache* cache,
                                  const core::Matrix& x, std::size_t begin,
                                  std::size_t end, core::Matrix& staging,
                                  ScoringWorkspace& ws,
                                  const core::ExecutionContext& exec) {
  assert(end >= begin && end <= x.rows());
  const std::size_t m = end - begin;
  const std::size_t dims = encoder.output_dim();
  if (cache != nullptr) {
    cache->encode_rows_borrowed(encoder, x, begin, end, staging, ws, exec);
    return {ws.f32_rows.data(), m, dims};
  }
  if (staging.rows() < m || staging.cols() != dims) staging.resize(m, dims);
  // Cache-off path: the block is one contiguous tile call — the dominant
  // shape under cold (non-replay) traffic — behind a trivial table.
  encoder.encode_tile(x, begin, end, staging.data(), dims, exec);
  ScoringWorkspace::row_table(
      ws.entry_ptrs, reinterpret_cast<const unsigned char*>(staging.data()),
      m, dims * sizeof(float));
  return {ws.typed_rows(ws.f32_rows, m), m, dims};
}

}  // namespace cyberhd::hdc
