// Tests for the stage-split serving pipeline: the EncodedBatch view, the
// content-addressed encode cache (bit-identical scores cache on / off /
// evicting, with and without the thread pool — CI's kernels and threads
// matrix legs re-run this file per backend and per worker count), the
// staged encode_block / scores_encoded API, and the CYBERHD_ENCODE_CACHE
// knob.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/encoded_batch.hpp"
#include "hdc/quantized.hpp"
#include "hdc/scoring_workspace.hpp"

namespace cyberhd::hdc {
namespace {

/// Three separated Gaussian blobs plus a query batch whose second half
/// repeats the first half row-for-row (the replay shape the cache serves).
struct ServingFixture {
  core::Matrix train{150, 5};
  std::vector<int> y = std::vector<int>(150);
  core::Matrix queries{128, 5};

  explicit ServingFixture(bool parallel = false)
      : model(config(parallel)) {
    core::Rng rng(17);
    for (std::size_t i = 0; i < train.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < train.cols(); ++f) {
        train(i, f) = 0.4f * static_cast<float>(cls) +
                      static_cast<float>(rng.gaussian(0.0, 0.08));
      }
      y[i] = cls;
    }
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t f = 0; f < queries.cols(); ++f) {
        queries(i, f) = 0.4f * static_cast<float>(i % 3) +
                        static_cast<float>(rng.gaussian(0.0, 0.08));
        queries(i + 64, f) = queries(i, f);  // exact replay
      }
    }
    model.fit(train, y, 3);
  }

  static CyberHdConfig config(bool parallel) {
    CyberHdConfig cfg;
    cfg.dims = 128;
    cfg.regen_steps = 3;
    cfg.final_epochs = 2;
    cfg.parallel = parallel;
    return cfg;
  }

  CyberHdClassifier model;
};

/// Reference scores via the per-sample path (never touches the pipeline).
core::Matrix per_sample_scores(const core::Classifier& model,
                               const core::Matrix& x) {
  core::Matrix out(x.rows(), model.num_classes());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    model.scores(x.row(i), out.row(i));
  }
  return out;
}

TEST(EncodedBatch, ViewsAddressRowsLikeTheMatrix) {
  core::Matrix m(4, 3);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m(r, c) = static_cast<float>(r * 3 + c);
    }
  }
  const EncodedBatch all = EncodedBatch::of(m);
  EXPECT_EQ(all.rows(), 4u);
  EXPECT_EQ(all.dims(), 3u);
  EXPECT_EQ(all.row(2).data(), m.row(2).data());

  const EncodedBatch front = EncodedBatch::front_of(m, 2);
  EXPECT_EQ(front.rows(), 2u);
  EXPECT_EQ(front.row(1)[0], 3.0f);

  const EncodedBatch slice = all.slice(1, 2);
  EXPECT_EQ(slice.rows(), 2u);
  EXPECT_EQ(slice.row(0).data(), m.row(1).data());
  EXPECT_TRUE(EncodedBatch().empty());
}

/// Snapshot/restore an environment variable around a test that mutates
/// it — CI's matrix legs pin these knobs for the *whole* binary, so a
/// test must never leave a different value behind for the tests after it.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* value = std::getenv(name);
    if (value != nullptr) saved_ = value;
    had_value_ = value != nullptr;
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(EncodeCacheKnob, ParsesRowsZeroAndMalformed) {
  const ScopedEnv guard("CYBERHD_ENCODE_CACHE");
  ::setenv("CYBERHD_ENCODE_CACHE", "0", 1);
  EXPECT_EQ(EncodeCache::capacity_from_env(), 0u);
  ::setenv("CYBERHD_ENCODE_CACHE", "256", 1);
  EXPECT_EQ(EncodeCache::capacity_from_env(), 256u);
  for (const char* bad : {"banana", "-1", "12x", ""}) {
    ::setenv("CYBERHD_ENCODE_CACHE", bad, 1);
    EXPECT_EQ(EncodeCache::capacity_from_env(),
              EncodeCache::kDefaultCapacityRows)
        << bad;
  }
  ::unsetenv("CYBERHD_ENCODE_CACHE");
  EXPECT_EQ(EncodeCache::capacity_from_env(),
            EncodeCache::kDefaultCapacityRows);
}

class ServingDeterminism : public ::testing::TestWithParam<bool> {};

TEST_P(ServingDeterminism, ScoresBitIdenticalCacheOnOffEvicting) {
  ServingFixture t(/*parallel=*/GetParam());
  const core::Matrix reference = per_sample_scores(t.model, t.queries);

  // Cache off.
  t.model.set_encode_cache(0);
  ASSERT_EQ(t.model.encode_cache(), nullptr);
  core::Matrix off;
  t.model.scores_batch(t.queries, off);
  EXPECT_EQ(off, reference);

  // Cache on: the cold pass (fills + in-batch replays) and the warm pass
  // (every row a hit) must both reproduce the reference bit-for-bit.
  t.model.set_encode_cache(1024);
  ASSERT_NE(t.model.encode_cache(), nullptr);
  core::Matrix cold, warm;
  t.model.scores_batch(t.queries, cold);
  t.model.scores_batch(t.queries, warm);
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  EXPECT_GT(t.model.encode_cache()->stats().hits, 0u);

  // A 3-row cache evicts on nearly every insert; correctness must not
  // depend on residency.
  t.model.set_encode_cache(3);
  core::Matrix evicting;
  t.model.scores_batch(t.queries, evicting);
  EXPECT_EQ(evicting, reference);
  EXPECT_GT(t.model.encode_cache()->stats().evictions, 0u);
}

TEST_P(ServingDeterminism, PredictBatchRidesTheStagedDriver) {
  ServingFixture t(/*parallel=*/GetParam());
  t.model.set_encode_cache(64);
  std::vector<int> batched(t.queries.rows());
  t.model.predict_batch(t.queries, batched);
  for (std::size_t i = 0; i < t.queries.rows(); ++i) {
    EXPECT_EQ(batched[i], t.model.predict(t.queries.row(i))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndPool, ServingDeterminism,
                         ::testing::Values(false, true));

TEST(ServingPipeline, StagedApiMatchesTheDriver) {
  ServingFixture t;
  t.model.set_encode_cache(256);
  core::Matrix driver_scores;
  t.model.scores_batch(t.queries, driver_scores);

  // Stage 1 + stage 2 run by hand over two arbitrary blocks.
  core::Matrix staging, out;
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 50},
                                                        {50, 128}}) {
    const EncodedBatch encoded =
        t.model.encode_block(t.queries, begin, end, staging);
    ASSERT_EQ(encoded.rows(), end - begin);
    ASSERT_EQ(encoded.dims(), t.model.physical_dims());
    t.model.scores_encoded(encoded, out);
    for (std::size_t r = 0; r < encoded.rows(); ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) {
        EXPECT_EQ(out(r, c), driver_scores(begin + r, c))
            << begin << "+" << r << "," << c;
      }
    }
  }
}

TEST(ServingPipeline, WarmPassHitsEveryRow) {
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);  // cold: 64 misses + 64 replays
  const EncodeCacheStats cold = t.model.encode_cache()->stats();
  EXPECT_EQ(cold.misses, 64u);  // distinct rows
  EXPECT_EQ(cold.hits, 64u);    // the in-batch replays
  t.model.scores_batch(t.queries, scores);
  const EncodeCacheStats warm = t.model.encode_cache()->stats();
  EXPECT_EQ(warm.misses, cold.misses);  // no new encodes
  EXPECT_EQ(warm.hits, cold.hits + t.queries.rows());
  // 64 + 128 hits over 256 probes.
  EXPECT_NEAR(warm.hit_rate(), 0.75, 1e-9);
}

TEST(ServingPipeline, ClearResetsResidencyAndStats) {
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);
  EXPECT_GT(t.model.encode_cache()->size(), 0u);
  t.model.encode_cache()->clear();
  EXPECT_EQ(t.model.encode_cache()->size(), 0u);
  EXPECT_EQ(t.model.encode_cache()->stats().hits, 0u);
  EXPECT_EQ(t.model.encode_cache()->stats().misses, 0u);
  // And scoring after a clear is still bit-identical.
  core::Matrix again;
  t.model.scores_batch(t.queries, again);
  EXPECT_EQ(again, scores);
}

TEST(ServingPipeline, RefitRearmsTheCacheWithFreshEncodings) {
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);
  EXPECT_GT(t.model.encode_cache()->size(), 0u);
  // Refit replaces the encoder; stale encodings must not survive. Pin the
  // env knob for the refit so the re-armed-cache assertions hold even on
  // the CI leg that exports CYBERHD_ENCODE_CACHE=0.
  {
    const ScopedEnv guard("CYBERHD_ENCODE_CACHE");
    ::setenv("CYBERHD_ENCODE_CACHE", "1024", 1);
    t.model.fit(t.train, t.y, 3);
  }
  ASSERT_NE(t.model.encode_cache(), nullptr);
  EXPECT_EQ(t.model.encode_cache()->stats().hits, 0u);
  const core::Matrix reference = per_sample_scores(t.model, t.queries);
  core::Matrix refit_scores;
  t.model.scores_batch(t.queries, refit_scores);
  EXPECT_EQ(refit_scores, reference);
}

class QuantizedServing : public ::testing::TestWithParam<int> {};

TEST_P(QuantizedServing, ScoresBitIdenticalCacheOnOffEvicting) {
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  const core::Matrix reference = per_sample_scores(q, t.queries);

  q.set_encode_cache(0);
  core::Matrix off;
  q.scores_batch(t.queries, off);
  EXPECT_EQ(off, reference);

  q.set_encode_cache(1024);
  core::Matrix cold, warm;
  q.scores_batch(t.queries, cold);
  q.scores_batch(t.queries, warm);
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  EXPECT_GT(q.encode_cache()->stats().hits, 0u);

  q.set_encode_cache(3);
  core::Matrix evicting;
  q.scores_batch(t.queries, evicting);
  EXPECT_EQ(evicting, reference);
}

TEST_P(QuantizedServing, PackedStageSplitMatchesTheDriver) {
  // The packed stage-1/stage-2 API pulled apart: encode_block_packed's
  // view scored through the packed scores_encoded must equal the fused
  // scores_batch driver, and a sub-slice must score exactly its rows.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  core::Matrix reference;
  q.scores_batch(t.queries, reference);

  PackedStaging staging;
  const PackedBatch packed =
      q.encode_block_packed(t.queries, 0, t.queries.rows(), staging);
  EXPECT_EQ(packed.rows(), t.queries.rows());
  EXPECT_EQ(packed.bits(), GetParam());
  EXPECT_EQ(packed.row_bytes(),
            PackedBatch::row_bytes(q.model().dims(), GetParam()));
  core::Matrix out;
  q.scores_encoded(packed, out);
  EXPECT_EQ(out, reference);

  core::Matrix slice_out;
  q.scores_encoded(packed.slice(8, 16), slice_out);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < slice_out.cols(); ++c) {
      EXPECT_EQ(slice_out(r, c), reference(8 + r, c));
    }
  }
}

TEST_P(QuantizedServing, CacheStoresPackedEntriesAndCountsBytes) {
  // The quantized cache ring is armed with the PACKED entry size — the
  // whole point of the packed pipeline's memory win — and the byte
  // residency stats must track occupied slots times that entry size.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  q.set_encode_cache(256);
  ASSERT_NE(q.encode_cache(), nullptr);
  const std::size_t entry =
      PackedBatch::row_bytes(q.model().dims(), GetParam());
  EXPECT_EQ(q.encode_cache()->entry_bytes(), entry);

  const EncodeCacheStats before = q.encode_cache()->stats();
  EXPECT_EQ(before.bytes_resident, 0u);
  EXPECT_EQ(before.bytes_capacity, 256u * entry);

  core::Matrix scores;
  q.scores_batch(t.queries, scores);
  const EncodeCacheStats after = q.encode_cache()->stats();
  EXPECT_EQ(after.bytes_resident, q.encode_cache()->size() * entry);
  EXPECT_GT(after.bytes_resident, 0u);
  EXPECT_LE(after.bytes_resident, after.bytes_capacity);
}

TEST_P(QuantizedServing, FusedTileEncodeMatchesEncodeThenPack) {
  // The fused quantize-on-encode epilogue: encode_tile_packed's bytes must
  // be identical to float-encoding the same rows (the cloned encoder's
  // stage 1) and pack_row-ing them one at a time — the contract that lets
  // the cache-miss batch and the cache-off path ride the tile without
  // perturbing a single packed entry.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  const std::size_t row_bytes = q.model().packed_row_bytes();

  const std::size_t stride = row_bytes + 9;
  std::vector<unsigned char> fused(t.queries.rows() * stride, 0xc3);
  q.encode_tile_packed(t.queries, 0, t.queries.rows(), fused.data(), stride);

  core::Matrix staging;
  const EncodedBatch encoded =
      t.model.encode_block(t.queries, 0, t.queries.rows(), staging);
  std::vector<unsigned char> ref(row_bytes);
  for (std::size_t i = 0; i < t.queries.rows(); ++i) {
    q.model().pack_row(encoded.row(i), ref.data());
    EXPECT_EQ(std::memcmp(fused.data() + i * stride, ref.data(), row_bytes),
              0)
        << "row " << i;
    for (std::size_t b = row_bytes; b < stride; ++b) {
      EXPECT_EQ(fused[i * stride + b], 0xc3) << "pad overwritten, row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, QuantizedServing,
                         ::testing::Values(1, 2, 4, 8));

TEST(PackedBatchView, RowBytesAndSlicesAddressPackedRows) {
  // int8 rows: one byte per dimension; 1-bit rows: whole 64-bit words.
  EXPECT_EQ(PackedBatch::row_bytes(128, 8), 128u);
  EXPECT_EQ(PackedBatch::row_bytes(128, 2), 128u);
  EXPECT_EQ(PackedBatch::row_bytes(128, 1), 16u);
  EXPECT_EQ(PackedBatch::row_bytes(65, 1), 16u);  // tail word rounds up
  EXPECT_TRUE(PackedBatch().empty());

  PackedStaging staging;
  unsigned char* base = staging.prepare(4, 16, 8);
  for (std::size_t i = 0; i < 4 * 16; ++i) {
    base[i] = static_cast<unsigned char>(i);
  }
  const PackedBatch view = staging.view(4, 16, 8);
  EXPECT_EQ(view.rows(), 4u);
  EXPECT_EQ(view.row_bytes(), 16u);
  EXPECT_EQ(view.i8_row(2)[0], static_cast<std::int8_t>(32));
  const PackedBatch slice = view.slice(1, 2);
  EXPECT_EQ(slice.rows(), 2u);
  EXPECT_EQ(slice.i8_row(0), view.i8_row(1));

  unsigned char* wbase = staging.prepare(2, 130, 1);
  const PackedBatch words = staging.view(2, 130, 1);
  EXPECT_EQ(words.words(), 3u);
  EXPECT_EQ(words.row_bytes(), 24u);
  EXPECT_EQ(reinterpret_cast<const unsigned char*>(words.word_row(1)),
            wbase + 24);
}

// ---- zero-copy borrow protocol ---------------------------------------------

/// Stage 1 of rows [begin, end) into the front of `h` through the model's
/// cache: the borrowing driver, then every borrowed or replayed row copied
/// into place and this thread's pins released.
void encode_into(EncodeCache& cache, const ServingFixture& t,
                 std::size_t begin, std::size_t end, core::Matrix& h,
                 const core::ExecutionContext& exec) {
  ScoringWorkspace& ws = ScoringWorkspace::tl();
  cache.encode_rows_borrowed(t.model.encoder(), t.queries, begin, end, h, ws,
                             exec);
  ws.materialize(reinterpret_cast<unsigned char*>(h.data()), end - begin,
                 h.cols() * sizeof(float));
}

TEST(BorrowPin, PinnedRowsSurviveFullRingWrap) {
  // Pin two ring slots, then wrap the ring many times over with fresh
  // inserts: eviction must route around the pinned slots, so the borrowed
  // pointers keep serving the ORIGINAL encodings bit for bit the whole
  // time, and the pinned rows are still resident afterwards.
  ServingFixture t;
  t.model.set_encode_cache(8, /*shards=*/1);  // one ring: wrap is total
  EncodeCache* cache = t.model.encode_cache();
  ASSERT_NE(cache, nullptr);
  const core::ExecutionContext& exec = core::ExecutionContext::serial();
  const std::size_t dims = t.model.physical_dims();

  // Fill all 8 slots, then re-probe rows 0..2 in borrow mode: both rows
  // hit and pin their slots.
  core::Matrix fill(8, dims);
  encode_into(*cache, t, 0, 8, fill, exec);
  ScoringWorkspace ws;
  core::Matrix staging;
  const std::size_t hits = cache->encode_rows_borrowed(
      t.model.encoder(), t.queries, 0, 2, staging, ws, exec);
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(ws.borrow.size(), 2u);
  std::vector<float> snapshot(2 * dims);
  for (std::size_t r = 0; r < 2; ++r) {
    std::memcpy(snapshot.data() + r * dims, ws.f32_rows[r],
                dims * sizeof(float));
  }

  // 48 distinct rows through a full 8-slot ring: several complete wraps'
  // worth of eviction pressure while the pins are held.
  core::Matrix churn(16, dims);
  for (std::size_t begin = 8; begin < 56; begin += 16) {
    encode_into(*cache, t, begin, begin + 16, churn, exec);
  }
  EXPECT_GT(cache->stats().evictions, 0u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(std::memcmp(ws.f32_rows[r], snapshot.data() + r * dims,
                          dims * sizeof(float)),
              0)
        << "pinned row " << r << " was overwritten during ring wrap";
  }

  // The pinned rows were never evicted: a fresh probe of them still hits.
  const EncodeCacheStats before = cache->stats();
  encode_into(*cache, t, 0, 2, fill, exec);
  EXPECT_EQ(cache->stats().hits, before.hits + 2);

  ws.borrow.release();
  EXPECT_TRUE(ws.borrow.empty());
  ws.borrow.release();  // idempotent
}

TEST(BorrowPin, WarmFlushBorrowsEveryHitWithoutCopying) {
  // The zero-copy contract, observable in the stats: a warm flush serves
  // every row as a borrowed pointer and the serving path never memcpys a
  // hit (in-batch replays alias the fresh encode, so even the cold pass
  // moves no hit bytes).
  ServingFixture t;
  t.model.set_encode_cache(1024);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);  // cold: 64 misses + 64 replays
  const EncodeCacheStats cold = t.model.encode_cache()->stats();
  EXPECT_EQ(cold.copied_bytes, 0u);
  t.model.scores_batch(t.queries, scores);  // warm: every row a ring hit
  const EncodeCacheStats warm = t.model.encode_cache()->stats();
  EXPECT_EQ(warm.borrowed_rows, cold.borrowed_rows + t.queries.rows());
  EXPECT_EQ(warm.copied_bytes, 0u);
}

TEST(BorrowPin, ConcurrentBorrowAndEvictionKeepScoresBitIdentical) {
  // Eviction-under-load stress (the TSan/ASan CI legs re-run this file):
  // four threads flush the same query batch through a 16-slot cache, so
  // every flush borrows hits while the other threads' misses hammer the
  // same shards with inserts and evictions. Every score of every flush
  // must still be bit-identical to the per-sample reference.
  ServingFixture t;
  t.model.set_encode_cache(16);
  const core::Matrix reference = per_sample_scores(t.model, t.queries);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      core::Matrix out;
      for (int pass = 0; pass < 8; ++pass) {
        t.model.scores_batch(t.queries, out);
        if (!(out == reference)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(t.model.encode_cache()->stats().borrowed_rows, 0u);
}

TEST_P(QuantizedServing, WarmFlushBorrowsPackedHits) {
  // The packed pipeline rides the same borrow protocol: after a cold fill,
  // a warm flush pins every row in the ring and copies nothing.
  ServingFixture t;
  QuantizedCyberHd q(t.model, GetParam());
  q.set_encode_cache(1024);
  core::Matrix scores;
  q.scores_batch(t.queries, scores);
  q.scores_batch(t.queries, scores);
  const EncodeCacheStats stats = q.encode_cache()->stats();
  EXPECT_EQ(stats.borrowed_rows, t.queries.rows());
  EXPECT_EQ(stats.copied_bytes, 0u);
}

TEST(EncodeCacheUnit, ContentVerificationDefeatsHashAliasing) {
  // Two different rows forced through the same cache: whatever the hash
  // does, the content check must re-encode rather than replay the wrong
  // vector. (A real collision is impractical to construct; this pins the
  // path where the ring slot holds a different row than the probe.)
  ServingFixture t;
  t.model.set_encode_cache(1);  // one slot: constant aliasing pressure
  const core::Matrix reference = per_sample_scores(t.model, t.queries);
  core::Matrix scores;
  t.model.scores_batch(t.queries, scores);
  EXPECT_EQ(scores, reference);
}

}  // namespace
}  // namespace cyberhd::hdc
