// M1: google-benchmark micro-kernels — the primitives whose throughput
// determines every macro result: RBF encoding, cosine similarity, packed
// popcount similarity, quantization, and the adaptive-update step.
//
// The kernel-layer benchmarks (BM_Kernel*) run each primitive against a
// *named* backend — scalar and avx2 — so the runtime-dispatch speedup is
// measured directly (the avx2 variants report a skip on hardware without
// AVX2+FMA). Everything else runs through active_kernels(), i.e. whatever
// the dispatcher picked for this process; set CYBERHD_KERNELS=scalar to
// pin it. The backend in use is printed to stderr at startup so CSV output
// on stdout stays parseable.
//
// Benchmarks whose body runs on the thread pool are timed in wall-clock
// (UseRealTime): google-benchmark's default CPU time counts the main
// thread only, which would credit the pool's work as free.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/bitpack.hpp"
#include "core/kernels/kernels.hpp"
#include "core/matrix.hpp"
#include "core/quantize.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "hdc/quantized.hpp"
#include "hdc/trainer.hpp"

using namespace cyberhd;

namespace {

/// Cache-line-aligned buffer, matching core::Matrix storage — kernel
/// numbers here reflect what the library's own call sites see.
using AlignedVec = std::vector<float, core::AlignedAllocator<float>>;

AlignedVec random_vec(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  AlignedVec v(n);
  core::fill_gaussian(rng, v.data(), n, 0.0f, 1.0f);
  return v;
}

/// Resolve a backend by name; nullptr when this host can't run it.
const core::Kernels* backend(const char* name) {
  if (std::strcmp(name, "avx2") == 0) {
    return core::cpu_supports_avx2() ? core::avx2_kernels() : nullptr;
  }
  if (std::strcmp(name, "avx512") == 0) {
    return core::cpu_supports_avx512() ? core::avx512_kernels() : nullptr;
  }
  return &core::scalar_kernels();
}

bool skip_unavailable(benchmark::State& state, const core::Kernels* k) {
  if (k != nullptr) return false;
  state.SkipWithError("backend unavailable on this host");
  return true;
}

// ---- kernel layer, per backend --------------------------------------------

void BM_KernelDot(benchmark::State& state, const char* name) {
  const core::Kernels* k = backend(name);
  if (skip_unavailable(state, k)) return;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 1);
  const auto b = random_vec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->dot_f32(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_KernelDot, scalar, "scalar")->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelDot, avx2, "avx2")->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelDot, avx512, "avx512")->Arg(512)->Arg(4096);

void BM_KernelXorPopcount(benchmark::State& state, const char* name) {
  const core::Kernels* k = backend(name);
  if (skip_unavailable(state, k)) return;
  // range(0) is the hypervector dimensionality D; storage is D/64 words.
  const std::size_t words = static_cast<std::size_t>(state.range(0)) / 64;
  std::vector<std::uint64_t> a(words), b(words);
  core::Rng rng(3);
  for (auto& w : a) w = rng.next_u64();
  for (auto& w : b) w = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->xor_popcount_words(a.data(), b.data(), words));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_KernelXorPopcount, scalar, "scalar")
    ->Arg(512)->Arg(4096)->Arg(32768);
BENCHMARK_CAPTURE(BM_KernelXorPopcount, avx2, "avx2")
    ->Arg(512)->Arg(4096)->Arg(32768);
BENCHMARK_CAPTURE(BM_KernelXorPopcount, avx512, "avx512")
    ->Arg(512)->Arg(4096)->Arg(32768);

// The blocked similarity tile — the kernel behind similarities_into and
// the minibatch trainer — reading its rows through a row-pointer table, as
// every caller does. range(0) is D; the tile is 64 rows x 8 classes.
void BM_KernelSimilaritiesTile(benchmark::State& state, const char* name) {
  const core::Kernels* k = backend(name);
  if (skip_unavailable(state, k)) return;
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64, classes = 8;
  const auto h = random_vec(rows * dims, 31);
  const auto cls = random_vec(classes * dims, 32);
  std::vector<const float*> h_rows(rows);
  for (std::size_t r = 0; r < rows; ++r) h_rows[r] = h.data() + r * dims;
  std::vector<float> out(rows * classes);
  for (auto _ : state) {
    k->similarities_tile_f32(h_rows.data(), rows, cls.data(), classes, dims,
                             out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * classes * dims));
}
BENCHMARK_CAPTURE(BM_KernelSimilaritiesTile, scalar, "scalar")
    ->Arg(512)->Arg(4096)->Arg(10240);
BENCHMARK_CAPTURE(BM_KernelSimilaritiesTile, avx2, "avx2")
    ->Arg(512)->Arg(4096)->Arg(10240);
BENCHMARK_CAPTURE(BM_KernelSimilaritiesTile, avx512, "avx512")
    ->Arg(512)->Arg(4096)->Arg(10240);

void BM_KernelRbfEncode(benchmark::State& state, const char* name) {
  const core::Kernels* k = backend(name);
  if (skip_unavailable(state, k)) return;
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  const std::size_t features = 118;  // NSL-KDD encoded width
  core::Rng rng(5);
  core::Matrix bases(dims, features);
  core::fill_gaussian(rng, bases.data(), bases.size(), 0.0f, 1.0f);
  const AlignedVec biases = random_vec(dims, 6);
  const auto x = random_vec(features, 7);
  std::vector<float> h(dims);
  for (auto _ : state) {
    k->cos_rbf_rows(bases.data(), dims, features, x.data(), biases.data(),
                    h.data());
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dims * features));
}
BENCHMARK_CAPTURE(BM_KernelRbfEncode, scalar, "scalar")->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelRbfEncode, avx2, "avx2")->Arg(512)->Arg(4096);

// The multi-flow encode tile against the per-flow row kernel above: the
// same D x F multiply-adds per flow, but a 64-flow block amortizes every
// base row loaded from L2/L3 across the register-blocked flows. items/s
// (flow-dims-features per second) over BM_KernelRbfEncode at the same Arg
// is the arithmetic-intensity gain the batched encode path rides.
void BM_EncodeTile(benchmark::State& state, const char* name) {
  const core::Kernels* k = backend(name);
  if (skip_unavailable(state, k)) return;
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  const std::size_t features = 118;  // NSL-KDD encoded width
  const std::size_t flows = 64;
  core::Rng rng(15);
  core::Matrix bases(dims, features);
  core::fill_gaussian(rng, bases.data(), bases.size(), 0.0f, 1.0f);
  const AlignedVec biases = random_vec(dims, 16);
  core::Matrix x(flows, features);
  core::fill_gaussian(rng, x.data(), x.size(), 0.0f, 1.0f);
  core::Matrix h(flows, dims);
  for (auto _ : state) {
    k->cos_rbf_tile_f32(bases.data(), dims, features, x.row(0).data(),
                        flows, x.cols(), biases.data(), h.data(), h.cols());
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows * dims * features));
}
BENCHMARK_CAPTURE(BM_EncodeTile, scalar, "scalar")->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_EncodeTile, avx2, "avx2")->Arg(512)->Arg(4096);

void BM_KernelQuantizedDotI8(benchmark::State& state, const char* name) {
  const core::Kernels* k = backend(name);
  if (skip_unavailable(state, k)) return;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::Rng rng(9);
  std::vector<std::int8_t> a(n), b(n);
  for (auto& v : a) v = static_cast<std::int8_t>(rng.next_below(255));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.next_below(255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->quantized_dot_i8(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_KernelQuantizedDotI8, scalar, "scalar")
    ->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelQuantizedDotI8, avx2, "avx2")
    ->Arg(512)->Arg(4096);

// ---- library level, active backend ----------------------------------------

void BM_Dot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 1);
  const auto b = random_vec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(512)->Arg(4096);

void BM_Cosine(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 3);
  const auto b = random_vec(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cosine(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Cosine)->Arg(512)->Arg(4096);

void BM_PopcountCosine(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const core::PackedBits a = core::pack_signs(random_vec(n, 5));
  const core::PackedBits b = core::pack_signs(random_vec(n, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cosine_bipolar(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PopcountCosine)->Arg(512)->Arg(4096);

void BM_RbfEncode(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  const std::size_t features = 118;  // NSL-KDD encoded width
  core::Rng rng(7);
  hdc::RbfEncoder enc(features, dims, rng);
  const auto x = random_vec(features, 8);
  std::vector<float> h(dims);
  for (auto _ : state) {
    enc.encode(x, h);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dims * features));
}
BENCHMARK(BM_RbfEncode)->Arg(512)->Arg(4096);

void BM_RbfEncodeBatchParallel(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  const std::size_t features = 118;
  core::Rng rng(9);
  hdc::RbfEncoder enc(features, dims, rng);
  core::Matrix x(256, features);
  core::fill_gaussian(rng, x.data(), x.size(), 0.0f, 1.0f);
  core::Matrix h;
  for (auto _ : state) {
    enc.encode_batch(x, h, core::ExecutionContext::process());
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(256 * dims * features));
}
BENCHMARK(BM_RbfEncodeBatchParallel)->Arg(512)->Arg(4096)->UseRealTime();

void BM_Quantize(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const auto v = random_vec(4096, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::quantize(v, bits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_Quantize)->Arg(1)->Arg(8);

void BM_ModelSimilarities(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  hdc::HdcModel model(10, dims);
  core::Rng rng(11);
  for (std::size_t c = 0; c < 10; ++c) {
    std::vector<float> h(dims);
    core::fill_gaussian(rng, h.data(), dims, 0.0f, 1.0f);
    model.bundle(c, h);
  }
  const auto query = random_vec(dims, 12);
  std::vector<float> scores(10);
  for (auto _ : state) {
    model.similarities(query, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(10 * dims));
}
BENCHMARK(BM_ModelSimilarities)->Arg(512)->Arg(4096);

// ---- end-to-end inference: per-sample loop vs batch tile -------------------

/// One trained CyberHD shared by the predict benchmarks (three well
/// separated Gaussian blobs — training cost is paid once).
struct PredictFixture {
  core::Matrix test{256, 24};
  hdc::CyberHdClassifier model;

  static PredictFixture& get() {
    static PredictFixture f;
    return f;
  }

  PredictFixture() : model(config()) {
    core::Rng rng(21);
    core::Matrix train(768, 24);
    std::vector<int> y(768);
    for (std::size_t i = 0; i < train.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < train.cols(); ++f) {
        train(i, f) = 0.5f * static_cast<float>(cls) +
                      static_cast<float>(rng.gaussian(0.0, 0.15));
      }
      y[i] = cls;
    }
    model.fit(train, y, 3);
    // The predict benchmarks compare the per-sample loop against the batch
    // *encode* pipeline; iterating the same test tile with the serving
    // cache armed would measure cache replays instead. BM_ServingThroughput
    // arms it explicitly for exactly that comparison.
    model.set_encode_cache(0);
    for (std::size_t i = 0; i < test.rows(); ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < test.cols(); ++f) {
        test(i, f) = 0.5f * static_cast<float>(cls) +
                     static_cast<float>(rng.gaussian(0.0, 0.15));
      }
    }
  }

  static hdc::CyberHdConfig config() {
    hdc::CyberHdConfig cfg;
    cfg.dims = 2048;
    cfg.regen_steps = 5;
    cfg.final_epochs = 2;
    cfg.seed = 13;
    return cfg;
  }
};

void BM_CyberHdPredictLoop(benchmark::State& state) {
  PredictFixture& f = PredictFixture::get();
  std::vector<int> out(f.test.rows());
  for (auto _ : state) {
    for (std::size_t i = 0; i < f.test.rows(); ++i) {
      out[i] = f.model.predict(f.test.row(i));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.test.rows()));
}
BENCHMARK(BM_CyberHdPredictLoop);

void BM_CyberHdPredictBatch(benchmark::State& state) {
  PredictFixture& f = PredictFixture::get();
  std::vector<int> out(f.test.rows());
  for (auto _ : state) {
    f.model.predict_batch(f.test, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.test.rows()));
}
BENCHMARK(BM_CyberHdPredictBatch)->UseRealTime();

// ---- serving pipeline: hot vs cold encode cache ----------------------------
//
// The staged scores_batch path on a replay-heavy stream (the NIDS serving
// shape: most arrivals repeat a bounded working set of flows). cold runs
// with the encode cache disabled — every row pays the full encode; hot
// arms and pre-warms the cache, so repeats are scored in place in the ring
// and the pipeline degenerates to (probe + pin + tile scoring). items/s is
// flows scored per second; the hot/cold ratio is the serving speedup the
// cache buys at a 100% steady-state hit rate.

/// A replay batch over the predict fixture's distribution: 3 of every 4
/// rows repeat a 128-flow working set.
struct ServingFixture {
  static constexpr std::size_t kFlows = 512;
  static constexpr std::size_t kWorkingSet = 128;
  core::Matrix replay{kFlows, 24};

  static ServingFixture& get() {
    static ServingFixture f;
    return f;
  }

  ServingFixture() {
    core::Rng rng(67);
    core::Matrix pool(kWorkingSet, replay.cols());
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      const int cls = static_cast<int>(i % 3);
      for (std::size_t f = 0; f < pool.cols(); ++f) {
        pool(i, f) = 0.5f * static_cast<float>(cls) +
                     static_cast<float>(rng.gaussian(0.0, 0.15));
      }
    }
    for (std::size_t i = 0; i < kFlows; ++i) {
      const auto src = pool.row(
          static_cast<std::size_t>(rng.uniform(0.0, kWorkingSet)) %
          kWorkingSet);
      std::copy(src.begin(), src.end(), replay.row(i).begin());
      if (i % 4 == 0) {  // every 4th flow is fresh
        for (std::size_t f = 0; f < replay.cols(); ++f) {
          replay(i, f) += static_cast<float>(rng.gaussian(0.0, 0.05));
        }
      }
    }
  }
};

void BM_ServingThroughput(benchmark::State& state) {
  PredictFixture& f = PredictFixture::get();
  ServingFixture& s = ServingFixture::get();
  const bool hot = state.range(0) != 0;
  state.SetLabel(hot ? "cache=hot" : "cache=off");
  f.model.set_encode_cache(hot ? 4096 : 0);
  core::Matrix scores;
  if (hot) f.model.scores_batch(s.replay, scores);  // pre-warm the ring
  for (auto _ : state) {
    f.model.scores_batch(s.replay, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ServingFixture::kFlows));
  f.model.set_encode_cache(0);  // leave the shared fixture cache-free
}
BENCHMARK(BM_ServingThroughput)->Arg(0)->Arg(1)->UseRealTime();

// ---- quantized serving: the packed pipeline, cold and hot ------------------
//
// The same replay stream through a QuantizedCyberHd snapshot: rows are
// quantized ONCE at encode time, the cache ring holds packed entries
// (2048 bytes/flow at bits=8, 256 at bits=1, vs 8192 float bytes at
// D=2048), and scoring streams packed tiles through the integer kernels.
// Compare the hot rows against BM_ServingThroughput/1: the packed hot
// path moves 4-32x fewer bytes per flow, which is the serving speedup
// this PR's acceptance bar pins (>= 2x at bits=8, >= 4x at bits=1).
void BM_ServingThroughputQuantized(benchmark::State& state) {
  PredictFixture& f = PredictFixture::get();
  ServingFixture& s = ServingFixture::get();
  const int bits = static_cast<int>(state.range(0));
  const bool hot = state.range(1) != 0;
  state.SetLabel("bits=" + std::to_string(bits) +
                 (hot ? " cache=hot" : " cache=off"));
  hdc::QuantizedCyberHd q(f.model, bits);
  q.set_encode_cache(hot ? 4096 : 0);
  core::Matrix scores;
  if (hot) q.scores_batch(s.replay, scores);  // pre-warm the packed ring
  for (auto _ : state) {
    q.scores_batch(s.replay, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ServingFixture::kFlows));
}
BENCHMARK(BM_ServingThroughputQuantized)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->UseRealTime();

// ---- training throughput: per-sample rule vs minibatch tiles ---------------
//
// items/s here is trained samples per second. The epoch benchmark isolates
// the adaptive retrain loop (the phase regen cycles repeat) over
// pre-encoded data at the acceptance dimensionality D = 10k; the fit
// benchmark times the whole encode→bundle→retrain→regen pipeline. Both run
// on the active backend — pin with CYBERHD_KERNELS to compare backends.

/// Pre-encoded training set shared by the epoch benchmarks.
struct EpochFixture {
  static constexpr std::size_t kSamples = 512;
  static constexpr std::size_t kDims = 10240;
  static constexpr std::size_t kClasses = 3;
  core::Matrix encoded{kSamples, kDims};
  std::vector<int> labels = std::vector<int>(kSamples);

  static EpochFixture& get() {
    static EpochFixture f;
    return f;
  }

  EpochFixture() {
    core::Rng rng(41);
    core::fill_gaussian(rng, encoded.data(), encoded.size(), 0.0f, 1.0f);
    for (std::size_t i = 0; i < kSamples; ++i) {
      labels[i] = static_cast<int>(i % kClasses);
      // Separate the classes a little so updates fire at a realistic rate.
      encoded(i, 0) += 2.0f * static_cast<float>(labels[i]);
    }
  }
};

void BM_TrainerEpoch(benchmark::State& state) {
  EpochFixture& f = EpochFixture::get();
  hdc::TrainerConfig cfg;
  cfg.learning_rate = 0.3f;
  // range(0) is the minibatch size; 0 = auto (cache-derived by the
  // execution context). The resolved value is reported in the run label
  // (a column every google-benchmark CSV row carries — per-benchmark
  // counters would abort the CSV reporter) so rows from hosts with
  // different caches stay comparable.
  cfg.batch_size = static_cast<std::size_t>(state.range(0));
  hdc::Trainer trainer(cfg, core::ExecutionContext::process());
  state.SetLabel("batch_rows=" + std::to_string(trainer.resolved_batch_size(
                                     EpochFixture::kDims)));
  // Every iteration times the same workload: the first epoch after
  // initialization, from the same model and shuffle. Training the one
  // model across iterations would let updates decay to zero and make the
  // reported rate depend on the iteration count.
  hdc::HdcModel initialized(EpochFixture::kClasses, EpochFixture::kDims);
  trainer.initialize(initialized, f.encoded, f.labels);
  hdc::HdcModel model = initialized;
  for (auto _ : state) {
    state.PauseTiming();
    model = initialized;
    core::Rng rng(43);
    state.ResumeTiming();
    const hdc::EpochStats stats =
        trainer.train_epoch(model, f.encoded, f.labels, rng);
    benchmark::DoNotOptimize(stats.mispredicted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(EpochFixture::kSamples));
}
BENCHMARK(BM_TrainerEpoch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();

/// The scoring-only bound of the minibatch epoch: labels are the model's
/// own predictions, so the decision pass records zero updates and the
/// epoch cost is gather + tile-kernel scoring + norms alone. Comparing
/// BM_TrainerEpoch against this bound shows what the update pass costs —
/// with the striped UpdateAccumulator replay it should sit within a few
/// percent, i.e. the update pass no longer serializes the epoch.
void BM_TrainerEpochScoringOnly(benchmark::State& state) {
  EpochFixture& f = EpochFixture::get();
  hdc::TrainerConfig cfg;
  cfg.learning_rate = 0.3f;
  cfg.batch_size = static_cast<std::size_t>(state.range(0));
  hdc::Trainer trainer(cfg, core::ExecutionContext::process());
  state.SetLabel("batch_rows=" + std::to_string(trainer.resolved_batch_size(
                                     EpochFixture::kDims)));
  hdc::HdcModel model(EpochFixture::kClasses, EpochFixture::kDims);
  trainer.initialize(model, f.encoded, f.labels);
  // Relabel every sample with the model's current prediction: the epoch
  // then mispredicts nothing and applies no updates.
  core::Matrix scores;
  model.similarities_batch(f.encoded, scores);
  std::vector<int> self_labels(EpochFixture::kSamples);
  for (std::size_t i = 0; i < EpochFixture::kSamples; ++i) {
    self_labels[i] = static_cast<int>(core::argmax(scores.row(i)));
  }
  for (auto _ : state) {
    core::Rng rng(43);
    const hdc::EpochStats stats =
        trainer.train_epoch(model, f.encoded, self_labels, rng);
    benchmark::DoNotOptimize(stats.mispredicted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(EpochFixture::kSamples));
}
BENCHMARK(BM_TrainerEpochScoringOnly)->Arg(0)->UseRealTime();

/// End-to-end fit() (encode, bundle, adaptive epochs, regen retrain
/// cycles) at D = 10k. range(0) is the minibatch size; range(1) the
/// streaming tile (0 = in-memory).
void BM_CyberHdFitTrain(benchmark::State& state) {
  core::Rng rng(47);
  const std::size_t n = 512, features = 24;
  core::Matrix train(n, features);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 3);
    for (std::size_t f = 0; f < features; ++f) {
      train(i, f) = 0.5f * static_cast<float>(cls) +
                    static_cast<float>(rng.gaussian(0.0, 0.15));
    }
    y[i] = cls;
  }
  hdc::CyberHdConfig cfg;
  cfg.dims = 10240;
  // A paper-shaped schedule (many retrain epochs between regen steps) so
  // the adaptive loop dominates wall clock the way the full 57-step
  // default does, at bench-friendly size.
  cfg.regen_steps = 10;
  cfg.epochs_per_step = 2;
  cfg.final_epochs = 10;
  cfg.seed = 13;
  cfg.batch_size = static_cast<std::size_t>(state.range(0));
  cfg.train_tile_rows = static_cast<std::size_t>(state.range(1));
  // Report the batch size training actually used (batch_size == 0 is
  // resolved from the cache topology by the execution context).
  state.SetLabel(
      "batch_rows=" +
      std::to_string(cfg.batch_size != 0
                         ? cfg.batch_size
                         : core::ExecutionContext::process().train_batch_rows(
                               cfg.dims)));
  for (auto _ : state) {
    hdc::CyberHdClassifier model(cfg);
    model.fit(train, y, 3);
    benchmark::DoNotOptimize(model.last_fit_report().epochs);
  }
  // items/s = trained samples per second of end-to-end fit (epochs x n
  // samples per iteration), with the epoch count derived from the schedule
  // so retuning cfg can't silently skew the committed baseline.
  const std::size_t epochs =
      cfg.regen_steps * cfg.epochs_per_step + cfg.final_epochs;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * epochs));
}
BENCHMARK(BM_CyberHdFitTrain)
    ->Args({1, 0})     // per-sample rule, in-memory (the historical path)
    ->Args({0, 0})     // auto minibatch: cache-derived L2-sized tiles
    ->Args({16, 0})    // pinned 16-row tiles (the old hand-tuned value)
    ->Args({64, 0})    // wider tiles (multi-core sweet spot)
    ->Args({16, 128})  // minibatch + streamed encode→train
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // stderr, so --benchmark_format=csv on stdout stays machine-readable.
  std::fprintf(stderr, "kernel backend: active=%s (avx2 %s on this host)\n",
               core::active_kernels().name,
               core::cpu_supports_avx2() ? "available" : "unavailable");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
