// Concurrency stress suite for the serving front-end: the lock-free
// submission ring, the coalescing batcher, the sharded encode cache, and
// the first-touch initialization of the process-wide execution context.
//
// The keystone assertions are bit-identity ones: whatever way N producer
// threads interleave their flows through the ring, and however the
// batcher coalesces them, every stream's delivered scores must equal a
// serial scores_batch replay of that stream's flows alone — for any
// stream count, cache mode, and linger setting. CI's kernels/threads
// matrix legs re-run this binary per backend and per worker count, and
// the sanitizer legs re-run it under ThreadSanitizer and AddressSanitizer.
//
// ConcurrentFirstTouch runs FIRST in this file on purpose: each test
// binary is a fresh process, so the global pool and process context
// really are constructed under concurrency here.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "core/exec/execution_context.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fault/bitflip.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encode_cache.hpp"
#include "hdc/encoder.hpp"
#include "hdc/quantized.hpp"
#include "serve/fault_injector.hpp"
#include "serve/result_slot.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/submission_queue.hpp"

namespace cyberhd::serve {
namespace {

// ---------------------------------------------------------------------------
// First-touch initialization under concurrency (must stay the first test).

TEST(ConcurrentFirstTouch, ProcessSingletonsConstructOnceUnderRace) {
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::array<const core::ExecutionContext*, kThreads> ctx{};
  std::array<core::ThreadPool*, kThreads> pool{};
  std::array<std::size_t, kThreads> sum{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Rendezvous so all eight first touches happen together.
      ready.fetch_add(1, std::memory_order_relaxed);
      while (ready.load(std::memory_order_relaxed) < kThreads) {
        std::this_thread::yield();
      }
      ctx[static_cast<std::size_t>(t)] = &core::ExecutionContext::process();
      pool[static_cast<std::size_t>(t)] = &core::ThreadPool::global();
      std::atomic<std::size_t> local{0};
      pool[static_cast<std::size_t>(t)]->parallel_for(
          1000,
          [&local](std::size_t b, std::size_t e) {
            std::size_t s = 0;
            for (std::size_t i = b; i < e; ++i) s += i;
            local.fetch_add(s, std::memory_order_relaxed);
          },
          /*grain=*/64);
      sum[static_cast<std::size_t>(t)] = local.load();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ctx[static_cast<std::size_t>(t)], ctx[0]);
    EXPECT_EQ(pool[static_cast<std::size_t>(t)], pool[0]);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sum[static_cast<std::size_t>(t)], 1000u * 999u / 2);
  }
  EXPECT_EQ(ctx[0]->pool(), pool[0]);
  EXPECT_GE(pool[0]->num_groups(), 1u);
}

// ---------------------------------------------------------------------------
// SubmissionQueue unit tests.

/// Build a request whose identity rides in submitted_at_us.
Request tagged(std::uint64_t tag) {
  Request r;
  r.submitted_at_us = tag;
  return r;
}

TEST(SubmissionQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SubmissionQueue(1).capacity(), 2u);
  EXPECT_EQ(SubmissionQueue(2).capacity(), 2u);
  EXPECT_EQ(SubmissionQueue(3).capacity(), 4u);
  EXPECT_EQ(SubmissionQueue(4).capacity(), 4u);
  EXPECT_EQ(SubmissionQueue(1000).capacity(), 1024u);
}

TEST(SubmissionQueue, FifoOrderSurvivesWraparound) {
  SubmissionQueue q(4);
  std::uint64_t next_push = 0, next_pop = 0;
  // Three-at-a-time over a 4-slot ring: the cursors lap the ring at a
  // different phase every round, covering every wraparound alignment.
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(q.try_push(tagged(next_push++)));
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(q.try_push(tagged(next_push++)));
      Request r;
      ASSERT_TRUE(q.try_pop(r));
      EXPECT_EQ(r.submitted_at_us, next_pop++);
    }
    Request r;
    ASSERT_TRUE(q.try_pop(r));
    EXPECT_EQ(r.submitted_at_us, next_pop++);
  }
  Request r;
  while (q.try_pop(r)) EXPECT_EQ(r.submitted_at_us, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(SubmissionQueue, FullRingRejectsUntilPopped) {
  SubmissionQueue q(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_push(tagged(i)));
  }
  EXPECT_FALSE(q.try_push(tagged(99)));  // backpressure, nothing enqueued
  Request r;
  ASSERT_TRUE(q.try_pop(r));
  EXPECT_EQ(r.submitted_at_us, 0u);
  EXPECT_TRUE(q.try_push(tagged(4)));   // slot freed, accepted again
  EXPECT_FALSE(q.try_push(tagged(99)));
}

TEST(SubmissionQueue, CanPopTracksOccupancy) {
  SubmissionQueue q(2);
  EXPECT_FALSE(q.can_pop());
  ASSERT_TRUE(q.try_push(tagged(7)));
  EXPECT_TRUE(q.can_pop());
  Request r;
  ASSERT_TRUE(q.try_pop(r));
  EXPECT_FALSE(q.can_pop());
}

TEST(SubmissionQueue, ConcurrentProducersLoseNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  SubmissionQueue q(64);
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> seen_count(kProducers * kPerProducer, 0);
  // Single consumer (the server's batcher role).
  std::thread consumer([&] {
    Request r;
    for (;;) {
      if (q.try_pop(r)) {
        ++seen_count[static_cast<std::size_t>(r.submitted_at_us)];
      } else if (done.load(std::memory_order_acquire)) {
        // Producers finished: one final drain closes the race where a
        // push landed between the failed pop and the done read.
        while (q.try_pop(r)) {
          ++seen_count[static_cast<std::size_t>(r.submitted_at_us)];
        }
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t tag = p * kPerProducer + i;
        while (!q.try_push(tagged(tag))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  for (std::size_t i = 0; i < seen_count.size(); ++i) {
    ASSERT_EQ(seen_count[i], 1u) << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Serving fixture: a small fitted CyberHD model plus per-stream flows.

struct ServeFixture {
  core::Matrix train{150, 5};
  std::vector<int> y = std::vector<int>(150);

  explicit ServeFixture(bool parallel = true) : model(config(parallel)) {
    core::Rng rng(17);
    for (std::size_t i = 0; i < train.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < train.cols(); ++f) {
        train(i, f) = 0.4f * static_cast<float>(cls) +
                      static_cast<float>(rng.gaussian(0.0, 0.08));
      }
      y[i] = cls;
    }
    model.fit(train, y, 3);
  }

  static hdc::CyberHdConfig config(bool parallel) {
    hdc::CyberHdConfig cfg;
    cfg.dims = 128;
    cfg.regen_steps = 3;
    cfg.final_epochs = 2;
    cfg.parallel = parallel;
    return cfg;
  }

  /// A stream's flow sequence: 96 rows, the second half exact replays of
  /// the first (the working-set shape the encode cache serves). Streams
  /// get disjoint rows via the seed.
  static core::Matrix stream_flows(std::size_t stream) {
    core::Matrix flows(96, 5);
    core::Rng rng(1000 + stream);
    for (std::size_t i = 0; i < 48; ++i) {
      for (std::size_t f = 0; f < flows.cols(); ++f) {
        flows(i, f) = 0.4f * static_cast<float>(i % 3) +
                      static_cast<float>(rng.gaussian(0.0, 0.08));
        flows(i + 48, f) = flows(i, f);
      }
    }
    return flows;
  }

  hdc::CyberHdClassifier model;
};

/// The keystone check: N producer threads submit their streams' flows
/// concurrently; every delivered score vector must be bit-identical to a
/// serial scores_batch replay of that stream alone.
void expect_bit_identical_streams(std::size_t num_streams, bool cache_on,
                                  bool parallel_model, long linger_us,
                                  bool domain_affine) {
  ServeFixture f(parallel_model);
  f.model.set_encode_cache(cache_on ? 1024 : 0);

  std::vector<core::Matrix> flows;
  std::vector<core::Matrix> reference(num_streams);
  flows.reserve(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    flows.push_back(ServeFixture::stream_flows(s));
    f.model.scores_batch(flows[s], reference[s]);
  }

  ServerConfig cfg;
  cfg.max_linger_us = linger_us;
  cfg.domain_affine = domain_affine;
  Server server(f.model, 5, cfg);

  std::vector<std::vector<ResultSlot>> slots;
  slots.reserve(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    slots.emplace_back(flows[s].rows());
  }
  std::vector<std::thread> streams;
  for (std::size_t s = 0; s < num_streams; ++s) {
    streams.emplace_back([&, s] {
      for (std::size_t i = 0; i < flows[s].rows(); ++i) {
        ASSERT_TRUE(server.submit(flows[s].row(i), slots[s][i]));
      }
    });
  }
  for (auto& t : streams) t.join();

  // CI's fault-injection leg runs this binary with CYBERHD_FAULT_* set:
  // explicit non-OK terminations are then legal, but an OK result must
  // STILL be bit-identical — degraded throughput, never degraded scores.
  const bool env_faults = FaultConfig::from_env().enabled();
  const std::size_t total = num_streams * flows[0].rows();
  for (std::size_t s = 0; s < num_streams; ++s) {
    for (std::size_t i = 0; i < flows[s].rows(); ++i) {
      slots[s][i].wait();
      if (slots[s][i].status() != RequestStatus::kOk) {
        ASSERT_TRUE(env_faults)
            << "non-OK status without fault injection: stream " << s
            << " row " << i;
        continue;
      }
      const auto got = slots[s][i].scores();
      ASSERT_EQ(got.size(), 3u);
      for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_EQ(got[c], reference[s](i, c))
            << "stream " << s << " row " << i << " class " << c;
      }
      EXPECT_GE(slots[s][i].completed_at_us(),
                slots[s][i].submitted_at_us());
    }
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, total);
  EXPECT_EQ(stats.completed, total);
  if (!env_faults) {
    EXPECT_EQ(stats.ok, total);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.mean_batch_rows, 0.0);
  }
}

TEST(ServerBitIdentity, OneStreamCacheOn) {
  expect_bit_identical_streams(1, true, true, -1, true);
}

TEST(ServerBitIdentity, TwoStreamsCacheOn) {
  expect_bit_identical_streams(2, true, true, -1, true);
}

TEST(ServerBitIdentity, EightStreamsCacheOn) {
  expect_bit_identical_streams(8, true, true, -1, true);
}

TEST(ServerBitIdentity, EightStreamsCacheOff) {
  expect_bit_identical_streams(8, false, true, -1, true);
}

TEST(ServerBitIdentity, SerialModelZeroLinger) {
  expect_bit_identical_streams(2, true, false, 0, true);
}

TEST(ServerBitIdentity, InlineScoringNoDomainAffinity) {
  expect_bit_identical_streams(4, true, true, -1, false);
}

// ---------------------------------------------------------------------------
// Quantized models through the same concurrent front-end: the packed
// pipeline (packed encode cache, integer tile scoring, bytes-planned
// batches) must deliver every stream's scores bit-identical to a serial
// quantized scores_batch replay — at every packed bitwidth, cache on/off.

void expect_bit_identical_quantized(std::size_t num_streams, int bits,
                                    bool cache_on) {
  ServeFixture f(true);
  hdc::QuantizedCyberHd q(f.model, bits);
  q.set_encode_cache(cache_on ? 1024 : 0);

  std::vector<core::Matrix> flows;
  std::vector<core::Matrix> reference(num_streams);
  flows.reserve(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    flows.push_back(ServeFixture::stream_flows(s));
    q.scores_batch(flows[s], reference[s]);
  }

  Server server(q, 5, ServerConfig{});
  std::vector<std::vector<ResultSlot>> slots;
  slots.reserve(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    slots.emplace_back(flows[s].rows());
  }
  std::vector<std::thread> streams;
  for (std::size_t s = 0; s < num_streams; ++s) {
    streams.emplace_back([&, s] {
      for (std::size_t i = 0; i < flows[s].rows(); ++i) {
        ASSERT_TRUE(server.submit(flows[s].row(i), slots[s][i]));
      }
    });
  }
  for (auto& t : streams) t.join();

  const bool env_faults = FaultConfig::from_env().enabled();
  for (std::size_t s = 0; s < num_streams; ++s) {
    for (std::size_t i = 0; i < flows[s].rows(); ++i) {
      slots[s][i].wait();
      if (slots[s][i].status() != RequestStatus::kOk) {
        ASSERT_TRUE(env_faults)
            << "non-OK status without fault injection: stream " << s
            << " row " << i;
        continue;
      }
      const auto got = slots[s][i].scores();
      ASSERT_EQ(got.size(), 3u);
      for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_EQ(got[c], reference[s](i, c))
            << "bits " << bits << " stream " << s << " row " << i
            << " class " << c;
      }
    }
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, num_streams * flows[0].rows());
  if (!env_faults) EXPECT_EQ(stats.ok, stats.completed);
}

TEST(ServerQuantized, OneStreamEveryBitwidthCacheOn) {
  for (int bits : {1, 4, 8}) {
    expect_bit_identical_quantized(1, bits, true);
  }
}

TEST(ServerQuantized, EightStreamsEveryBitwidthCacheOn) {
  for (int bits : {1, 4, 8}) {
    expect_bit_identical_quantized(8, bits, true);
  }
}

TEST(ServerQuantized, EightStreamsEveryBitwidthCacheOff) {
  for (int bits : {1, 4, 8}) {
    expect_bit_identical_quantized(8, bits, false);
  }
}

// ---------------------------------------------------------------------------
// Shutdown, backpressure, and edge cases.

TEST(ServerShutdown, EveryAcceptedRequestCompletes) {
  ServeFixture f(true);
  f.model.set_encode_cache(1024);
  ServerConfig cfg;
  cfg.max_linger_us = 50'000;  // long linger: shutdown must cut it short
  cfg.max_batch_rows = 8;
  Server server(f.model, 5, cfg);

  constexpr std::size_t kProducers = 4;
  const core::Matrix flows = ServeFixture::stream_flows(0);
  std::vector<std::vector<ResultSlot>> slots;
  std::vector<std::vector<bool>> accepted(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    slots.emplace_back(flows.rows());
    accepted[p].assign(flows.rows(), false);
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < flows.rows(); ++i) {
        accepted[p][i] = server.try_submit(flows.row(i), slots[p][i]);
      }
    });
  }
  // Shut down while producers are mid-flight: accepted requests must
  // still complete, late submissions must be rejected cleanly.
  server.shutdown();
  for (auto& t : producers) t.join();
  server.shutdown();  // idempotent

  const bool env_faults = FaultConfig::from_env().enabled();
  std::uint64_t accepted_count = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < flows.rows(); ++i) {
      if (!accepted[p][i]) continue;
      ++accepted_count;
      ASSERT_TRUE(slots[p][i].ready())
          << "accepted request " << p << "/" << i << " never completed";
      if (slots[p][i].ok()) {
        EXPECT_EQ(slots[p][i].scores().size(), 3u);
      } else {
        ASSERT_TRUE(env_faults) << "non-OK status without fault injection";
      }
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, accepted_count);
  EXPECT_EQ(stats.completed, accepted_count);
  EXPECT_EQ(stats.accepted + stats.rejected,
            kProducers * flows.rows());
}

/// A classifier stub whose scoring is deliberately slow, so the ring
/// fills and try_submit exercises real backpressure deterministically.
class SlowStub : public core::Classifier {
 public:
  void fit(const core::Matrix&, std::span<const int>, std::size_t) override {}
  std::size_t num_classes() const noexcept override { return 2; }
  int predict(std::span<const float> x) const override {
    return x[0] > 0.0f ? 1 : 0;
  }
  void scores(std::span<const float> x,
              std::span<float> out) const override {
    out[0] = -x[0];
    out[1] = x[0];
  }
  void scores_block(const core::Matrix& x, std::size_t begin,
                    std::size_t end, core::Matrix& out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    core::Classifier::scores_block(x, begin, end, out);
  }
  std::size_t preferred_batch_rows(const core::Matrix&) const override {
    return 4;
  }
  std::string name() const override { return "slow-stub"; }
};

TEST(ServerBackpressure, FullRingRejectsAndAcceptedStillComplete) {
  SlowStub stub;
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 4;
  cfg.domain_affine = false;
  cfg.faults = FaultConfig{};  // exact-score pins: force injection off
  Server server(stub, 3, cfg);

  constexpr std::size_t kRequests = 200;
  std::vector<ResultSlot> slots(kRequests);
  std::vector<bool> accepted(kRequests, false);
  const std::array<float, 3> row{0.5f, 1.0f, -1.0f};
  for (std::size_t i = 0; i < kRequests; ++i) {
    accepted[i] = server.try_submit(row, slots[i]);  // no retry: shed
    // A rejected submission is terminal too — status on the slot, not
    // just a false return.
    if (!accepted[i]) {
      ASSERT_TRUE(slots[i].ready());
      EXPECT_EQ(slots[i].status(), RequestStatus::kRejected);
    }
  }
  server.shutdown();

  const ServerStats stats = server.stats();
  std::uint64_t accepted_count = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (!accepted[i]) continue;
    ++accepted_count;
    ASSERT_TRUE(slots[i].ready());
    ASSERT_TRUE(slots[i].ok());
    EXPECT_EQ(slots[i].scores()[0], -0.5f);
    EXPECT_EQ(slots[i].scores()[1], 0.5f);
  }
  EXPECT_EQ(stats.accepted, accepted_count);
  EXPECT_EQ(stats.completed, accepted_count);
  // A 2-slot ring in front of a 2ms-per-batch scorer must shed load.
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_EQ(stats.accepted + stats.rejected, kRequests);
}

TEST(ServerEdge, ZeroFlowShutdownIsClean) {
  ServeFixture f(false);
  Server server(f.model, 5);
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.mean_batch_rows, 0.0);
  // Submissions after shutdown are rejected, not lost — and the slot
  // carries the terminal REJECTED status.
  ResultSlot slot;
  const core::Matrix flows = ServeFixture::stream_flows(0);
  EXPECT_FALSE(server.try_submit(flows.row(0), slot));
  ASSERT_TRUE(slot.ready());
  EXPECT_EQ(slot.status(), RequestStatus::kRejected);
}

TEST(ServerEdge, ResolvesPlannerBatchAndEnvLinger) {
  ServeFixture f(true);
  Server server(f.model, 5);
  core::Matrix probe(1, 5);
  EXPECT_EQ(server.max_batch_rows(), f.model.preferred_batch_rows(probe));
  EXPECT_EQ(server.num_classes(), 3u);
  EXPECT_EQ(server.input_dim(), 5u);
}

// ---------------------------------------------------------------------------
// Deadlines, load shedding, and client-side retry.

TEST(ServerDeadline, ExpiredRequestsAreShedWithStatus) {
  SlowStub stub;  // 2 ms per batch: later requests queue behind scoring
  ServerConfig cfg;
  cfg.queue_capacity = 512;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 4;
  cfg.domain_affine = false;
  cfg.faults = FaultConfig{};
  Server server(stub, 3, cfg);

  constexpr std::size_t kRequests = 64;
  std::vector<ResultSlot> slots(kRequests);
  const std::array<float, 3> row{0.5f, 1.0f, -1.0f};
  for (std::size_t i = 0; i < kRequests; ++i) {
    // A 1 µs budget: anything that waits behind even one 2 ms batch has
    // expired by the time the batcher reaches it.
    ASSERT_TRUE(server.submit(row, slots[i], /*deadline_us=*/1));
  }
  server.shutdown();

  std::uint64_t ok = 0, expired = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(slots[i].ready());
    switch (slots[i].status()) {
      case RequestStatus::kOk:
        ++ok;
        EXPECT_EQ(slots[i].scores()[0], -0.5f);  // scored rows are right
        break;
      case RequestStatus::kDeadlineExceeded:
        ++expired;
        break;
      default:
        FAIL() << "unexpected status for request " << i;
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(ok + expired, kRequests);
  // The scorer takes 2 ms per batch and every budget is 1 µs: shedding
  // must actually have happened.
  EXPECT_GT(stats.expired, 0u);
}

TEST(ServerDeadline, GenerousDeadlinesAllScore) {
  ServeFixture f(true);
  f.model.set_encode_cache(0);
  ServerConfig cfg;
  cfg.max_linger_us = 0;
  cfg.faults = FaultConfig{};
  Server server(f.model, 5, cfg);
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix reference;
  f.model.scores_batch(flows, reference);
  std::vector<ResultSlot> slots(flows.rows());
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(
        server.submit(flows.row(i), slots[i], /*deadline_us=*/10'000'000));
  }
  server.shutdown();
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(slots[i].ready());
    ASSERT_TRUE(slots[i].ok());
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(slots[i].scores()[c], reference(i, c));
    }
  }
  EXPECT_EQ(server.stats().expired, 0u);
}

TEST(ServerRetry, BoundedJitteredBackoffOnFullRing) {
  SlowStub stub;
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 4;
  cfg.domain_affine = false;
  cfg.faults = FaultConfig{};
  Server server(stub, 3, cfg);

  constexpr std::size_t kRequests = 60;
  std::vector<ResultSlot> slots(kRequests);
  std::vector<bool> accepted(kRequests, false);
  const std::array<float, 3> row{0.5f, 1.0f, -1.0f};
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_us = 50;
  policy.max_backoff_us = 2'000;
  std::uint64_t exhausted = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    policy.seed = i + 1;  // per-request stream, decorrelated jitter
    accepted[i] = server.submit_with_retry(row, slots[i], policy);
    if (!accepted[i]) {
      ++exhausted;
      // Exhaustion is explicit: the slot's last rejection is terminal.
      ASSERT_TRUE(slots[i].ready());
      EXPECT_EQ(slots[i].status(), RequestStatus::kRejected);
    }
  }
  server.shutdown();

  const ServerStats stats = server.stats();
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (!accepted[i]) continue;
    ASSERT_TRUE(slots[i].ready());
    ASSERT_TRUE(slots[i].ok());
    EXPECT_EQ(slots[i].scores()[1], 0.5f);
  }
  // A 2-slot ring over a 2 ms scorer forces backoff; the retry budget is
  // bounded, so with 4 attempts against sustained pressure some requests
  // may exhaust — but every accepted one completed and every outcome is
  // accounted for.
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.accepted, kRequests - exhausted);
  EXPECT_EQ(stats.completed, stats.accepted);
}

// ---------------------------------------------------------------------------
// Fault injection: the server must degrade explicitly — terminal statuses
// and healed corruption — never hang and never serve silently wrong
// scores. These tests pin injection explicitly (they do not depend on the
// CYBERHD_FAULT_* environment).

TEST(ServerFault, InjectedDelaysStallButEveryRequestScores) {
  ServeFixture f(true);
  f.model.set_encode_cache(1024);
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix reference;
  f.model.scores_batch(flows, reference);

  ServerConfig cfg;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 8;
  FaultConfig faults;
  faults.seed = 7;
  faults.delay_p = 1.0;  // every flush stalls
  faults.delay_us = 300;
  cfg.faults = faults;
  Server server(f.model, 5, cfg);

  std::vector<ResultSlot> slots(flows.rows());
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(server.submit(flows.row(i), slots[i]));
  }
  server.shutdown();

  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(slots[i].ready());
    ASSERT_TRUE(slots[i].ok());
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(slots[i].scores()[c], reference(i, c));
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.injected_delays, 0u);
  EXPECT_EQ(stats.ok, flows.rows());
  EXPECT_EQ(stats.completed, stats.accepted);
}

TEST(ServerFault, WatchdogObservesInjectedStallAndAllComplete) {
  SlowStub stub;
  ServerConfig cfg;
  cfg.queue_capacity = 256;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 4;
  cfg.domain_affine = false;
  FaultConfig faults;
  faults.seed = 11;
  faults.delay_p = 1.0;
  faults.delay_us = 30'000;  // 30 ms dark per flush
  cfg.faults = faults;
  cfg.watchdog_us = 5'000;  // polls 6x per injected stall
  Server server(stub, 3, cfg);

  constexpr std::size_t kRequests = 8;
  std::vector<ResultSlot> slots(kRequests);
  const std::array<float, 3> row{0.5f, 1.0f, -1.0f};
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(server.submit(row, slots[i]));
  }
  for (auto& slot : slots) {
    slot.wait();  // no hang: the batcher stalls but always resumes
    EXPECT_TRUE(slot.ok());
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  // At least one 5 ms watchdog interval fell entirely inside a 30 ms
  // injected stall with requests in flight.
  EXPECT_GT(stats.watchdog_stalls, 0u);
  EXPECT_EQ(stats.completed, stats.accepted);
}

TEST(ServerFault, EncodeFailuresFailExplicitlyAndOkRowsStayIdentical) {
  ServeFixture f(true);
  f.model.set_encode_cache(1024);
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix reference;
  f.model.scores_batch(flows, reference);

  ServerConfig cfg;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 8;
  FaultConfig faults;
  faults.seed = 13;
  faults.encode_fail_p = 0.5;
  cfg.faults = faults;
  Server server(f.model, 5, cfg);

  std::vector<ResultSlot> slots(flows.rows());
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(server.submit(flows.row(i), slots[i]));
  }
  server.shutdown();

  std::uint64_t ok = 0, failed = 0;
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(slots[i].ready());
    if (slots[i].ok()) {
      ++ok;
      for (std::size_t c = 0; c < 3; ++c) {
        ASSERT_EQ(slots[i].scores()[c], reference(i, c))
            << "OK row " << i << " diverged under injected failures";
      }
    } else {
      ++failed;
      EXPECT_EQ(slots[i].status(), RequestStatus::kModelUnavailable);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(ok + failed, flows.rows());
  EXPECT_EQ(stats.completed, stats.accepted);
  // p = 0.5 over ≥ 12 flushes (96 rows, ≤ 8 per batch): both outcomes
  // occur, with a flake probability of 2^-12 per direction.
  EXPECT_GT(stats.injected_encode_failures, 0u);
  EXPECT_GT(ok, 0u);
}

TEST(ServerFault, BitflipCorruptionHealsToBitIdenticalScores) {
  ServeFixture f(true);
  f.model.set_encode_cache(1024);
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix reference;
  f.model.scores_batch(flows, reference);

  SnapshotManager snapshots(3);
  snapshots.capture(f.model);
  ModelAuditor auditor(f.model, snapshots);

  ServerConfig cfg;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 8;
  FaultConfig faults;
  faults.seed = 29;
  faults.bitflip_p = 0.5;
  faults.bitflip_rate = 0.01;
  cfg.faults = faults;
  Server server(f.model, 5, cfg);
  server.set_auditor(&auditor);
  // The hook runs on the batcher thread between flushes — corruption of
  // the live model races nothing.
  server.fault_injector()->set_bitflip_hook(
      [&f](double rate, core::Rng& rng) {
        core::Matrix& w = f.model.model().weights();
        fault::inject_floats({w.data(), w.rows() * w.cols()}, rate, rng);
      });

  std::vector<ResultSlot> slots(flows.rows());
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(server.submit(flows.row(i), slots[i]));
  }
  server.shutdown();

  // Every request scored, and every score is bit-identical to the clean
  // replay: each injected corruption was audited and healed BEFORE the
  // next batch scored.
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(slots[i].ready());
    ASSERT_TRUE(slots[i].ok());
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(slots[i].scores()[c], reference(i, c))
          << "row " << i << ": corruption leaked into served scores";
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.injected_bitflips, 0u);
  EXPECT_GT(stats.corruptions, 0u);
  EXPECT_EQ(stats.recoveries, stats.corruptions);
  EXPECT_EQ(stats.ok, flows.rows());
  EXPECT_EQ(stats.completed, stats.accepted);
}

void expect_quantized_bitflip_heals(int bits) {
  ServeFixture f(true);
  hdc::QuantizedCyberHd q(f.model, bits);
  q.set_encode_cache(1024);
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix reference;
  q.scores_batch(flows, reference);

  // Snapshots hold the float source; the heal re-quantizes it at the
  // live bitwidth (deterministic, so bit-identical to the original).
  SnapshotManager snapshots(2);
  snapshots.capture(f.model);
  ModelAuditor auditor(q, snapshots);

  ServerConfig cfg;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 16;
  FaultConfig faults;
  faults.seed = 31;
  faults.bitflip_p = 0.5;
  faults.bitflip_rate = 0.02;  // a fig-5 rate, in the packed domain
  cfg.faults = faults;
  Server server(q, 5, cfg);
  server.set_auditor(&auditor);
  server.fault_injector()->set_bitflip_hook(
      [&q](double rate, core::Rng& rng) {
        fault::inject_hdc(q.model(), rate, rng);
      });

  std::vector<ResultSlot> slots(flows.rows());
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(server.submit(flows.row(i), slots[i]));
  }
  server.shutdown();

  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(slots[i].ready());
    ASSERT_TRUE(slots[i].ok());
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(slots[i].scores()[c], reference(i, c))
          << "bits " << bits << " row " << i
          << ": corruption leaked into served scores";
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.injected_bitflips, 0u);
  EXPECT_EQ(stats.recoveries, stats.corruptions);
  EXPECT_GT(stats.recoveries, 0u);
  EXPECT_EQ(stats.ok, flows.rows());
}

TEST(ServerFault, QuantizedBitflipHealsPacked1Bit) {
  expect_quantized_bitflip_heals(1);
}

TEST(ServerFault, QuantizedBitflipHealsLevels8Bit) {
  expect_quantized_bitflip_heals(8);
}

TEST(ServerFault, UnhealableCorruptionFailsRequestsNotServesGarbage) {
  ServeFixture f(true);
  const core::Matrix flows = ServeFixture::stream_flows(0);

  SnapshotManager snapshots(2);  // deliberately empty: nothing to heal from
  ModelAuditor auditor(f.model, snapshots);

  ServerConfig cfg;
  cfg.max_linger_us = 0;
  cfg.max_batch_rows = 8;
  FaultConfig faults;
  faults.seed = 37;
  faults.bitflip_p = 1.0;  // corrupt before every scoring flush
  faults.bitflip_rate = 0.01;
  cfg.faults = faults;
  Server server(f.model, 5, cfg);
  server.set_auditor(&auditor);
  server.fault_injector()->set_bitflip_hook(
      [&f](double rate, core::Rng& rng) {
        core::Matrix& w = f.model.model().weights();
        fault::inject_floats({w.data(), w.rows() * w.cols()}, rate, rng);
      });

  std::vector<ResultSlot> slots(flows.rows());
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(server.submit(flows.row(i), slots[i]));
  }
  server.shutdown();

  // Corruption before every flush and no snapshot to restore: the server
  // must fail every request explicitly — zero scores from a corrupt model.
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    ASSERT_TRUE(slots[i].ready());
    EXPECT_EQ(slots[i].status(), RequestStatus::kModelUnavailable);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_EQ(stats.failed, flows.rows());
  EXPECT_GT(stats.corruptions, 0u);
  EXPECT_EQ(stats.recoveries, 0u);
  EXPECT_EQ(stats.completed, stats.accepted);
}

TEST(ServerFault, ShutdownUnderFaultCompletesEveryAcceptedRequest) {
  ServeFixture f(true);
  f.model.set_encode_cache(1024);
  ServerConfig cfg;
  cfg.max_linger_us = 50'000;
  cfg.max_batch_rows = 8;
  FaultConfig faults;
  faults.seed = 41;
  faults.delay_p = 0.3;
  faults.delay_us = 500;
  faults.encode_fail_p = 0.3;
  cfg.faults = faults;
  Server server(f.model, 5, cfg);

  constexpr std::size_t kProducers = 4;
  const core::Matrix flows = ServeFixture::stream_flows(0);
  std::vector<std::vector<ResultSlot>> slots;
  std::vector<std::vector<bool>> accepted(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    slots.emplace_back(flows.rows());
    accepted[p].assign(flows.rows(), false);
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < flows.rows(); ++i) {
        accepted[p][i] = server.try_submit(flows.row(i), slots[p][i],
                                           /*deadline_us=*/2'000);
      }
    });
  }
  server.shutdown();  // mid-flight, with faults firing
  for (auto& t : producers) t.join();

  std::uint64_t accepted_count = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < flows.rows(); ++i) {
      ASSERT_TRUE(slots[p][i].ready())
          << "request " << p << "/" << i << " has no terminal status";
      if (accepted[p][i]) {
        ++accepted_count;
        EXPECT_NE(slots[p][i].status(), RequestStatus::kRejected);
      } else {
        EXPECT_EQ(slots[p][i].status(), RequestStatus::kRejected);
      }
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, accepted_count);
  EXPECT_EQ(stats.completed, accepted_count);
  EXPECT_EQ(stats.ok + stats.expired + stats.failed, stats.completed);
}

TEST(FaultInjectorUnit, DisabledByDefaultAndDeterministicWhenSeeded) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  FaultConfig c;
  c.seed = 5;
  c.delay_p = 0.5;
  c.delay_us = 100;
  c.encode_fail_p = 0.25;
  EXPECT_TRUE(c.enabled());
  FaultInjector a(c), b(c);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.draw_delay_us(), b.draw_delay_us());
    EXPECT_EQ(a.draw_encode_failure(), b.draw_encode_failure());
  }
}

TEST(FaultInjectorUnit, FromEnvParsesAndDefaultsOff) {
  const char* vars[] = {"CYBERHD_FAULT_SEED", "CYBERHD_FAULT_DELAY_P",
                        "CYBERHD_FAULT_DELAY_US",
                        "CYBERHD_FAULT_ENCODE_FAIL_P",
                        "CYBERHD_FAULT_BITFLIP_P",
                        "CYBERHD_FAULT_BITFLIP_RATE"};
  std::vector<std::string> saved;
  std::vector<bool> had;
  for (const char* v : vars) {
    const char* cur = std::getenv(v);
    had.push_back(cur != nullptr);
    saved.push_back(cur != nullptr ? cur : "");
    ::unsetenv(v);
  }
  EXPECT_FALSE(FaultConfig::from_env().enabled());
  ::setenv("CYBERHD_FAULT_SEED", "123", 1);
  ::setenv("CYBERHD_FAULT_DELAY_P", "0.05", 1);
  ::setenv("CYBERHD_FAULT_DELAY_US", "200", 1);
  ::setenv("CYBERHD_FAULT_BITFLIP_RATE", "garbage", 1);  // warns, stays 0
  const FaultConfig c = FaultConfig::from_env();
  EXPECT_TRUE(c.enabled());
  EXPECT_EQ(c.seed, 123u);
  EXPECT_DOUBLE_EQ(c.delay_p, 0.05);
  EXPECT_EQ(c.delay_us, 200u);
  EXPECT_DOUBLE_EQ(c.bitflip_rate, 0.0);
  for (std::size_t i = 0; i < saved.size(); ++i) {
    if (had[i]) {
      ::setenv(vars[i], saved[i].c_str(), 1);
    } else {
      ::unsetenv(vars[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// SnapshotManager + ModelAuditor, exercised directly (no server).

TEST(SnapshotIntegrity, CaptureRestoreRoundTripsBitIdentical) {
  ServeFixture f(false);
  SnapshotManager snapshots(3);
  snapshots.capture(f.model);
  EXPECT_EQ(snapshots.size(), 1u);

  std::optional<hdc::CyberHdClassifier> restored = snapshots.restore();
  ASSERT_TRUE(restored.has_value());
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix want, got;
  f.model.scores_batch(flows, want);
  restored->scores_batch(flows, got);
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(got(i, c), want(i, c));
    }
  }
}

TEST(SnapshotIntegrity, CorruptNewestFallsBackToOlderThenFailsCleanly) {
  ServeFixture f(false);
  SnapshotManager snapshots(3);
  snapshots.capture(f.model);
  snapshots.capture(f.model);
  EXPECT_EQ(snapshots.size(), 2u);

  // Rot the newest buffer without touching its stored CRC: restore()
  // must skip it and land on the older good one.
  snapshots.buffer(0)[100] ^= 0x40;
  std::optional<hdc::CyberHdClassifier> restored = snapshots.restore();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_classes(), 3u);

  // Rot the older one too: now nothing is intact.
  snapshots.buffer(1)[100] ^= 0x40;
  EXPECT_FALSE(snapshots.restore().has_value());
}

TEST(SnapshotIntegrity, KeepsOnlyLastN) {
  ServeFixture f(false);
  SnapshotManager snapshots(2);
  snapshots.capture(f.model);
  snapshots.capture(f.model);
  snapshots.capture(f.model);
  EXPECT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots.keep(), 2u);
}

TEST(SnapshotIntegrity, AuditorDetectsCorruptionAndHealsFloatModel) {
  ServeFixture f(false);
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix want;
  f.model.scores_batch(flows, want);

  SnapshotManager snapshots(3);
  snapshots.capture(f.model);
  ModelAuditor auditor(f.model, snapshots);
  EXPECT_EQ(auditor.audit_and_heal(), AuditOutcome::kClean);

  core::Rng rng(99);
  core::Matrix& w = f.model.model().weights();
  fault::inject_floats({w.data(), w.rows() * w.cols()}, 0.05, rng);
  EXPECT_EQ(auditor.audit_and_heal(), AuditOutcome::kRecovered);
  EXPECT_EQ(auditor.audit_and_heal(), AuditOutcome::kClean);

  core::Matrix got;
  f.model.scores_batch(flows, got);
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(got(i, c), want(i, c)) << "heal was not bit-identical";
    }
  }
}

void expect_auditor_heals_quantized(int bits) {
  ServeFixture f(false);
  hdc::QuantizedCyberHd q(f.model, bits);
  const core::Matrix flows = ServeFixture::stream_flows(0);
  core::Matrix want;
  q.scores_batch(flows, want);

  SnapshotManager snapshots(2);
  snapshots.capture(f.model);
  ModelAuditor auditor(q, snapshots);
  EXPECT_EQ(auditor.audit_and_heal(), AuditOutcome::kClean);

  core::Rng rng(77);
  fault::inject_hdc(q.model(), 0.05, rng);
  EXPECT_EQ(auditor.audit_and_heal(), AuditOutcome::kRecovered);
  EXPECT_EQ(auditor.audit_and_heal(), AuditOutcome::kClean);

  core::Matrix got;
  q.scores_batch(flows, got);
  for (std::size_t i = 0; i < flows.rows(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(got(i, c), want(i, c))
          << "bits " << bits << ": re-quantized heal not bit-identical";
    }
  }
}

TEST(SnapshotIntegrity, AuditorHealsQuantized1BitPacked) {
  expect_auditor_heals_quantized(1);
}

TEST(SnapshotIntegrity, AuditorHealsQuantized8BitLevels) {
  expect_auditor_heals_quantized(8);
}

TEST(SnapshotIntegrity, AuditorFailsWithoutAnyIntactSnapshot) {
  ServeFixture f(false);
  SnapshotManager snapshots(2);  // empty on purpose
  ModelAuditor auditor(f.model, snapshots);
  core::Rng rng(55);
  core::Matrix& w = f.model.model().weights();
  fault::inject_floats({w.data(), w.rows() * w.cols()}, 0.05, rng);
  EXPECT_EQ(auditor.audit_and_heal(), AuditOutcome::kFailed);
}

// ---------------------------------------------------------------------------
// Sharded EncodeCache.

/// Snapshot/restore an environment variable around a mutating test.
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

TEST(ShardedEncodeCache, ShardKnobParsesAndClampsToCapacity) {
  const ScopedEnv guard("CYBERHD_CACHE_SHARDS");
  ::unsetenv("CYBERHD_CACHE_SHARDS");
  EXPECT_GE(hdc::EncodeCache::shards_from_env(),
            hdc::EncodeCache::kDefaultShards);
  ::setenv("CYBERHD_CACHE_SHARDS", "4", 1);
  EXPECT_EQ(hdc::EncodeCache::shards_from_env(), 4u);
  // Out-of-range values are rejected with a warning, not clamped — the
  // shared env-parsing contract (core/env.hpp).
  ::setenv("CYBERHD_CACHE_SHARDS", "9999", 1);
  EXPECT_GE(hdc::EncodeCache::shards_from_env(),
            hdc::EncodeCache::kDefaultShards);
  ::setenv("CYBERHD_CACHE_SHARDS", "banana", 1);
  EXPECT_GE(hdc::EncodeCache::shards_from_env(),
            hdc::EncodeCache::kDefaultShards);
  ::setenv("CYBERHD_CACHE_SHARDS", "0", 1);
  EXPECT_GE(hdc::EncodeCache::shards_from_env(),
            hdc::EncodeCache::kDefaultShards);

  // Construction: explicit shards win; tiny capacities collapse shards so
  // every shard still owns a ring slot.
  hdc::EncodeCache wide(5, 16, 64, 16);
  EXPECT_EQ(wide.shard_count(), 16u);
  hdc::EncodeCache tiny(5, 16, 3, 16);
  EXPECT_EQ(tiny.shard_count(), 3u);
  hdc::EncodeCache single(5, 16, 1, 16);
  EXPECT_EQ(single.shard_count(), 1u);
}

TEST(ShardedEncodeCache, SameContentAlwaysRoutesToOneShard) {
  hdc::EncodeCache cache(4, 8, 64, 8);
  core::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    std::array<float, 4> row;
    for (auto& v : row) v = static_cast<float>(rng.gaussian(0.0, 1.0));
    const std::uint64_t h1 = hdc::EncodeCache::hash_row(row);
    const std::uint64_t h2 = hdc::EncodeCache::hash_row(row);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(cache.shard_of(h1), cache.shard_of(h2));
    EXPECT_LT(cache.shard_of(h1), cache.shard_count());
  }
}

/// Encoder + data shared by the cache tests below.
struct CacheFixture {
  CacheFixture() : rng(41), encoder(6, 32, rng) {
    x.resize(40, 6);
    for (std::size_t i = 0; i < 32; ++i) {
      for (std::size_t f = 0; f < 6; ++f) {
        x(i, f) = static_cast<float>(rng.gaussian(0.0, 1.0));
      }
    }
    for (std::size_t i = 32; i < 40; ++i) {  // 8 in-batch replays
      for (std::size_t f = 0; f < 6; ++f) x(i, f) = x(i - 32, f);
    }
    reference.resize(40, 32);
    for (std::size_t i = 0; i < 40; ++i) {
      encoder.encode(x.row(i), reference.row(i));
    }
  }

  core::Rng rng;
  hdc::RbfEncoder encoder;
  core::Matrix x;
  core::Matrix reference;

  /// Stage 1 of rows [begin, end) into the front of `h`: the cache's
  /// borrowing driver, then every borrowed or replayed row copied into
  /// place and the pins released. Returns the driver's hit count.
  std::size_t encode_into(hdc::EncodeCache& cache, std::size_t begin,
                          std::size_t end, core::Matrix& h,
                          const core::ExecutionContext& exec) const {
    hdc::ScoringWorkspace& ws = hdc::ScoringWorkspace::tl();
    const std::size_t hits =
        cache.encode_rows_borrowed(encoder, x, begin, end, h, ws, exec);
    ws.materialize(reinterpret_cast<unsigned char*>(h.data()), end - begin,
                   h.cols() * sizeof(float));
    return hits;
  }
};

TEST(ShardedEncodeCache, StatsSumAcrossShardsAndHitsAreExact) {
  CacheFixture f;
  hdc::EncodeCache cache(6, 32, 64, 8);
  core::Matrix h(40, 32);
  const core::ExecutionContext& exec = core::ExecutionContext::serial();

  // Cold pass: 32 distinct rows miss, 8 in-batch replays hit.
  const std::size_t cold_hits =
      f.encode_into(cache, 0, 40, h, exec);
  EXPECT_EQ(cold_hits, 8u);
  EXPECT_EQ(h, f.reference);
  hdc::EncodeCacheStats agg = cache.stats();
  EXPECT_EQ(agg.misses, 32u);
  EXPECT_EQ(agg.hits, 8u);
  EXPECT_EQ(cache.size(), 32u);

  // Warm pass: every row hits its shard.
  core::Matrix h2(40, 32);
  const std::size_t warm_hits =
      f.encode_into(cache, 0, 40, h2, exec);
  EXPECT_EQ(warm_hits, 40u);
  EXPECT_EQ(h2, f.reference);
  agg = cache.stats();
  EXPECT_EQ(agg.misses, 32u);
  EXPECT_EQ(agg.hits, 48u);

  // The aggregate is exactly the per-shard sum, and the work actually
  // spread: with 32 distinct rows over 8 shards, more than one shard saw
  // traffic.
  hdc::EncodeCacheStats sum;
  std::size_t active_shards = 0;
  for (std::size_t s = 0; s < cache.shard_count(); ++s) {
    const hdc::EncodeCacheStats ss = cache.shard_stats(s);
    sum.hits += ss.hits;
    sum.misses += ss.misses;
    sum.evictions += ss.evictions;
    if (ss.hits + ss.misses > 0) ++active_shards;
  }
  EXPECT_EQ(sum.hits, agg.hits);
  EXPECT_EQ(sum.misses, agg.misses);
  EXPECT_EQ(sum.evictions, agg.evictions);
  EXPECT_GT(active_shards, 1u);
}

TEST(ShardedEncodeCache, ClearCoversEveryShard) {
  CacheFixture f;
  hdc::EncodeCache cache(6, 32, 64, 8);
  core::Matrix h(40, 32);
  const core::ExecutionContext& exec = core::ExecutionContext::serial();
  f.encode_into(cache, 0, 40, h, exec);
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (std::size_t s = 0; s < cache.shard_count(); ++s) {
    const hdc::EncodeCacheStats ss = cache.shard_stats(s);
    EXPECT_EQ(ss.hits, 0u);
    EXPECT_EQ(ss.misses, 0u);
    EXPECT_EQ(ss.evictions, 0u);
  }
  // And the cleared cache re-encodes correctly (32 fresh misses).
  core::Matrix h2(40, 32);
  f.encode_into(cache, 0, 40, h2, exec);
  EXPECT_EQ(h2, f.reference);
  EXPECT_EQ(cache.stats().misses, 32u);
}

TEST(ShardedEncodeCache, OneSlotPerShardAliasingStaysCorrect) {
  CacheFixture f;
  // capacity == shards: every shard is a single-slot ring under constant
  // aliasing pressure. Correctness (content verification + re-encode)
  // must survive even though almost nothing stays resident.
  hdc::EncodeCache cache(6, 32, 4, 4);
  core::Matrix h(40, 32);
  const core::ExecutionContext& exec = core::ExecutionContext::serial();
  for (int pass = 0; pass < 3; ++pass) {
    f.encode_into(cache, 0, 40, h, exec);
    EXPECT_EQ(h, f.reference) << "pass " << pass;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.size(), 4u);
}

TEST(ShardedEncodeCache, ConcurrentHammerStaysBitIdentical) {
  CacheFixture f;
  hdc::EncodeCache cache(6, 32, 16, 4);  // small: constant eviction churn
  constexpr std::size_t kThreads = 4;
  constexpr int kIters = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const core::ExecutionContext& exec = core::ExecutionContext::serial();
      core::Matrix h(40, 32);
      // Each thread walks a different overlapping window so shards see
      // mixed hit/miss/evict traffic from all threads at once.
      const std::size_t begin = t * 4;
      const std::size_t end = 40 - (kThreads - 1 - t) * 4;
      for (int it = 0; it < kIters; ++it) {
        f.encode_into(cache, begin, end, h, exec);
        for (std::size_t i = begin; i < end; ++i) {
          const auto got = h.row(i - begin);
          const auto want = f.reference.row(i);
          if (std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)) != 0) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Accounting stays exact under concurrency: every probed row was
  // counted exactly once as a hit or a miss.
  std::uint64_t probed = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    probed += static_cast<std::uint64_t>((40 - (kThreads - 1 - t) * 4) -
                                         t * 4) *
              static_cast<std::uint64_t>(kIters);
  }
  const hdc::EncodeCacheStats agg = cache.stats();
  EXPECT_EQ(agg.hits + agg.misses, probed);
}

}  // namespace
}  // namespace cyberhd::serve
