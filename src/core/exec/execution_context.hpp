// Unified execution policy: which kernels run, on which threads, tiled how.
//
// Before this layer existed, every stage carried its own ThreadPool* and its
// own hand-tuned tile constants (a 16-row score block here, a 32-row
// similarity tile there, batch_size = 16 "because 2 MB L2"). The
// ExecutionContext gathers those three decisions into one value-semantic
// object that is threaded through the trainer, the encoders, the model's
// batch scorer, and the quantized deployment path:
//
//  * kernels() — the resolved SIMD backend (active_kernels() by default,
//    injectable for tests);
//  * pool()    — the worker pool, or nullptr for strictly serial execution
//    (parallel_for() runs inline in that case, so call sites never branch);
//  * cache()   — a model of the machine's cache hierarchy, read once from
//    sysconf//sys, from which every tile and batch size is *derived* rather
//    than hand-tuned: score_block_rows() sizes the L2-resident row block of
//    the tile-kernel scoring passes, train_batch_rows() the default
//    minibatch of the adaptive trainer.
//
// Determinism contract: for a fixed training configuration the context
// never changes results. Tiling choices feed kernels whose outputs are
// row-wise bit-identical for any block size, and the pool only splits
// work whose merge order is fixed — so two contexts over the same kernels
// compute bit-identical models regardless of worker count or cache model.
// One deliberate carve-out: TrainerConfig::batch_size = 0 (auto) resolves
// the *minibatch size* from the cache model, and minibatch training at
// different batch sizes is a different (OnlineHD-style) update schedule —
// pin batch_size explicitly when cross-host bit-reproducibility of the
// trained model matters. Everything else (score blocks, worker counts) is
// a throughput lever only (pin via CYBERHD_L2_BYTES / CYBERHD_THREADS for
// cross-host reproducible *timing*).
#pragma once

#include <cstddef>
#include <functional>

#include "core/kernels/kernels.hpp"
#include "core/thread_pool.hpp"

namespace cyberhd::core {

/// The cache hierarchy model the tiling derivations read. Detection order
/// per field: CYBERHD_L2_BYTES / CYBERHD_L3_BYTES env overrides (for
/// containers whose /sys is masked), sysconf(_SC_LEVEL*_CACHE_*), the sysfs
/// cache directory, then conservative defaults (64 B lines, 32 KiB L1d,
/// 2 MiB L2, 8 MiB L3, one shared-L3 domain).
struct CacheTopology {
  std::size_t line_bytes = 64;
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 2 * 1024 * 1024;
  /// Last-level cache size. Per-core caches (L1/L2) size the training and
  /// scoring tiles; the shared L3 sizes the *serving* sub-batches — the
  /// unit of work a batch of flows moves through the encode→score pipeline
  /// in, so a sub-batch's encoded rows are still LLC-resident when the
  /// scoring stage streams them.
  std::size_t l3_bytes = 8 * 1024 * 1024;
  /// Number of distinct shared-L3 CPU domains (multi-CCD and multi-socket
  /// parts have several; each gets its own sub-batch in the serving plan).
  /// Derived from how many online CPUs share cpu0's L3 per the sysfs
  /// shared_cpu_list; 1 when that is unreadable.
  std::size_t l3_domains = 1;

  /// Fresh detection (re-reads the environment; tests use this).
  static CacheTopology detect();
  /// Process-wide cached detection result.
  static const CacheTopology& detected();
};

/// How ExecutionContext::plan_serving splits a serving batch: each of the
/// machine's shared-L3 domains works one `block_rows`-row, L3-resident
/// sub-batch at a time, so one driver iteration covers `batch_rows` rows.
/// The per-domain residency is approximate, not enforced: parallel_for
/// hands every worker one contiguous chunk and splits the encode and
/// score stages of a block identically, so each worker revisits in stage
/// 2 the ~block_rows-per-domain range it encoded in stage 1 — but workers
/// are not pinned to domains. Explicit domain-affine dispatch (and a NUMA
/// model above it) is the next placement step (see ROADMAP).
struct ServingPlan {
  /// Rows per L3-resident sub-batch (one in flight per L3 domain).
  std::size_t block_rows = 1;
  /// Shared-L3 CPU domains contributing a sub-batch each.
  std::size_t domains = 1;
  /// Rows one pipeline iteration covers: block_rows * domains.
  std::size_t batch_rows = 1;
};

/// How ExecutionContext::plan_encode_tile shapes the batched RBF encode:
/// flows are walked in `flow_rows`-row blocks (the unit parallel_for
/// splits), and inside a block the encoder streams the base matrix in
/// `panel_rows`-row panels through the cos_rbf_tile_f32 kernel — so each
/// base row fetched into L2 is reused once per flow in the block instead
/// of once per call.
struct EncodeTilePlan {
  /// Flow rows per tile block: the block's raw feature rows stay
  /// L1-resident while every base row of a panel streams past them.
  std::size_t flow_rows = 8;
  /// Base rows per L2-resident panel.
  std::size_t panel_rows = 16;
};

/// The execution policy threaded through training and batch inference.
/// Cheap to copy (three pointers and a small struct); holders keep it by
/// value. A default-constructed context is strictly serial.
class ExecutionContext {
 public:
  /// Serial context: active kernels, no pool, detected topology.
  ExecutionContext()
      : ExecutionContext(nullptr, nullptr, CacheTopology::detected()) {}
  /// Context over an explicit pool (nullptr = serial), active kernels.
  explicit ExecutionContext(ThreadPool* pool)
      : ExecutionContext(pool, nullptr, CacheTopology::detected()) {}
  /// Fully explicit (tests inject kernels and cache models here).
  /// kernels == nullptr resolves to active_kernels().
  ExecutionContext(ThreadPool* pool, const Kernels* kernels,
                   CacheTopology cache);

  /// The process-default parallel context: global thread pool (sized by
  /// hardware_concurrency, overridable via CYBERHD_THREADS), active
  /// kernels, detected topology.
  static const ExecutionContext& process();
  /// The process-default serial context (no pool).
  static const ExecutionContext& serial();

  const Kernels& kernels() const noexcept { return *kernels_; }
  ThreadPool* pool() const noexcept { return pool_; }
  const CacheTopology& cache() const noexcept { return cache_; }
  /// Workers available to parallel_for (1 when serial).
  std::size_t workers() const noexcept {
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }

  /// Run fn(begin, end) over [0, n): split across the pool when one is
  /// attached, inline otherwise. The single call site replaces the
  /// `if (pool) pool->parallel_for(...) else body(0, n)` pattern.
  ///
  /// Templated so the serial path invokes the callable DIRECTLY — no
  /// std::function is ever constructed, which is what keeps a serial
  /// steady-state serving flush at zero heap allocations. The pooled path
  /// wraps `fn` in a std::reference_wrapper (guaranteed non-allocating by
  /// [func.wrap.func.con]) before handing it to the pool; only the pool's
  /// own per-chunk task boxing allocates there.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 256) const {
    if (n == 0) return;
    if (pool_ == nullptr) {
      fn(0, n);
      return;
    }
    pool_->parallel_for(
        n, std::function<void(std::size_t, std::size_t)>(std::ref(fn)),
        grain);
  }

  /// Domain-affine block dispatch — the serving shape. Run
  /// fn(begin, end) over [0, n) in `block_rows`-row blocks, each block
  /// submitted as ONE task pinned to one worker group (groups map to
  /// shared-L3 domains in the process pool), block b to group
  /// b mod num_groups. A block's whole encode→score pipeline therefore
  /// runs on the workers of one L3 domain, instead of every stage being
  /// split blindly across the machine; nested parallel_for calls inside
  /// fn run inline on that worker. Waits for these blocks only (other
  /// streams' work on the pool is not awaited). Falls back to a serial
  /// block walk when there is no pool, only one block, or the calling
  /// thread is itself a pool worker.
  void for_each_block(
      std::size_t n, std::size_t block_rows,
      const std::function<void(std::size_t, std::size_t)>& fn) const;

  /// Rows per L2-resident block of the tile-kernel scoring passes
  /// (HdcModel::similarities_into, the trainer's minibatch scoring): the
  /// largest power of two whose row block fills at most a third of L2 —
  /// one third each for the streaming rows, the class block, and slack —
  /// clamped to [1, 64]. At D = 10k on a 2 MiB L2 this derives the 16 rows
  /// that were previously hand-tuned.
  std::size_t score_block_rows(std::size_t dims) const noexcept;

  /// Default minibatch size of the adaptive trainer when
  /// TrainerConfig::batch_size == 0 (auto): the L2 sweet spot is the same
  /// block the scorer streams, so this equals score_block_rows().
  std::size_t train_batch_rows(std::size_t dims) const noexcept {
    return score_block_rows(dims);
  }

  /// Rows per L3-resident sub-batch of the serving pipeline: the largest
  /// power of two whose encoded block (rows x dims floats) fills at most a
  /// third of the shared L3 — one third each for the encoded rows, the
  /// score/output traffic, and slack — exactly how score_block_rows derives
  /// L2 tiles. Clamped to [score_block_rows(dims), 4096]: a sub-batch never
  /// drops below the L2 scoring tile (the stage it feeds), and never grows
  /// past the point where batching stops amortizing anything.
  std::size_t serving_block_rows(std::size_t dims) const noexcept;

  /// serving_block_rows generalized to an arbitrary bytes-per-row — the
  /// quantized serving pipeline plans from its PACKED row size (dims int8
  /// bytes, or dims/8 packed-bit bytes), not from a float row, so a packed
  /// sub-batch fills the same third-of-L3 budget with 4-32x more rows.
  /// `floor_rows` is the lower clamp (the L2 scoring tile the block
  /// feeds); the upper clamp stays 4096.
  std::size_t serving_block_rows_bytes(std::size_t row_bytes,
                                       std::size_t floor_rows = 1)
      const noexcept;

  /// The serving split for a batch of `dims`-wide encoded rows: one
  /// serving_block_rows sub-batch per shared-L3 domain. The stage-split
  /// scores_batch drivers walk their input in batch_rows chunks, encoding
  /// then scoring each chunk while it is still L3-resident.
  ServingPlan plan_serving(std::size_t dims) const noexcept;

  /// plan_serving from an explicit packed bytes-per-row (see
  /// serving_block_rows_bytes).
  ServingPlan plan_serving_bytes(std::size_t row_bytes,
                                 std::size_t floor_rows = 1) const noexcept;

  /// The batched-encode tile shape for a D = `dims` encoder over
  /// `features`-wide input rows: flow_rows from a third of L1d (the flow
  /// block's raw rows), panel_rows from a third of L2 (the base panel the
  /// tile kernel streams), both powers of two, the panel never wider than
  /// D. At NIDS widths (F ~ 40, 2 MiB L2) the whole base matrix is one
  /// panel, so the tile degenerates to a single GEMM-shaped pass.
  EncodeTilePlan plan_encode_tile(std::size_t dims,
                                  std::size_t features) const noexcept;

 private:
  const Kernels* kernels_;
  ThreadPool* pool_;
  CacheTopology cache_;
};

}  // namespace cyberhd::core
