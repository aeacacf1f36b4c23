// A topology-aware fixed-size thread pool with parallel-for front ends.
//
// gpusim uses it to execute the thread blocks of a kernel launch, the
// trainer uses the same pool to run independent simulated GPUs concurrently
// between sync points and to split each sweep's tail (θ rebuild, φ
// reduce/broadcast, φ zeroing, n_k) across lanes, and the serving tier fans
// documents out over it; on a single-core host it degrades to sequential
// execution (the pool runs the caller inline when it has zero workers).
//
// Placement (docs/parallelism.md): the pool discovers the effective CPU set
// and NUMA layout through util/topology.hpp (or takes a caller-provided
// topology — the test fixtures). Workers are assigned CPUs round-robin and
// grouped into *socket domains* (one per NUMA node that received a worker);
// `ThreadPoolOptions::pin` additionally pins each worker to its CPU via
// pthread_setaffinity_np, degrading gracefully — per-worker — to unpinned
// when the syscall fails. Each domain keeps its own task queue and its own
// contiguous shard range inside every ParallelFor: a worker claims from its
// home domain until that runs dry, then steals cross-socket (counted by
// steal_count() and the `threadpool.steals` metric). Per-worker arenas
// (WorkerArena) are allocated and first-touched by the owning worker thread
// itself, so their pages land on the worker's node without libnuma. On a
// single-node topology all of this collapses to one domain — byte-for-byte
// the placement-blind pool this one replaced.
//
// Nesting: ParallelFor / ParallelForRanges may be called from inside a task
// running on this pool (e.g. a trainer-level device body issuing a kernel
// launch). The caller always participates in draining its own work from the
// shared claim counters, so a nested call completes even when every worker
// is busy with other callers' bodies — there is no circular wait by
// construction.
//
// Dense-slot contract (current_worker_id): callers use
// `current_worker_id() + 1` as a dense per-thread slot index in
// [0, worker_count()] for lock-free partial accumulators. Pool workers own
// slots 1..worker_count(); slot 0 belongs to the (single) non-worker thread
// driving the pool. Two non-worker threads running ParallelFor /
// ParallelForRanges on the same pool concurrently would therefore collide
// on slot 0 — the pool now detects that and throws culda::Error (the check
// is a couple of atomics per call, cheap enough to keep on in release
// builds). Nested calls from pool workers keep their worker slot, and the
// owning external thread may re-enter recursively (same thread, same slot);
// both are always safe and never trip the check.
//
// Determinism note: block order is irrelevant to correctness in all CuLDA
// kernels (the paper's kernels only communicate between blocks via atomics),
// so running blocks in any interleaving — pinned or not, stolen or not —
// yields the same model state given that the reductions used are integer
// (exact); float accumulation happens privately per warp, and trainer-level
// float partials are reduced in fixed device order by the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/topology.hpp"

namespace culda {

struct ThreadPoolOptions {
  /// Pin each worker to its assigned CPU. Failure to pin any given worker
  /// (unsupported platform, hostile cpuset, CPU id beyond CPU_SETSIZE) is
  /// logged once and that worker runs unpinned; see pinned_worker_count().
  bool pin = false;
  /// Topology to place workers on; nullptr means the machine's own
  /// (SystemTopology()). Tests pass synthetic topologies to exercise
  /// multi-domain behavior on single-core hosts. Copied at construction.
  const CpuTopology* topology = nullptr;
};

class ThreadPool {
 public:
  /// Creates a pool with `workers` threads. `workers == 0` means "run
  /// everything inline on the caller" — the right default on 1-core hosts.
  explicit ThreadPool(size_t workers, ThreadPoolOptions options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return threads_.size(); }

  /// Index of the calling thread within *this* pool: 0..worker_count()-1 on
  /// a pool worker, -1 on any other thread (including the caller of a
  /// ParallelFor, which participates in the work but is not a pool worker).
  /// See the dense-slot contract in the header comment.
  int current_worker_id() const;

  // --- Topology surface ----------------------------------------------------

  /// Socket domains (per-NUMA-node queues + shard ranges); 1 on single-node
  /// topologies and 0-worker pools — the degenerate path with the exact
  /// behavior of the placement-blind pool.
  size_t socket_count() const { return domain_worker_count_.size(); }
  /// Home domain of a worker id in [0, worker_count()).
  int socket_of_worker(int worker_id) const;
  /// Home domain of the calling thread: its worker domain on a pool worker,
  /// 0 on any other thread.
  int current_socket() const;
  /// Workers successfully pinned to their CPU (0 unless options.pin).
  size_t pinned_worker_count() const { return pinned_workers_; }
  /// Cross-socket shard claims since construction (0 on one domain).
  uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }
  const CpuTopology& topology() const { return topo_; }
  const ThreadPoolOptions& options() const { return options_; }

  /// Reusable per-thread scratch arena, keyed by the dense slot
  /// (current_worker_id() + 1): the memory is allocated — and first-touched
  /// — by the calling thread itself, so on a pinned pool its pages land on
  /// the caller's NUMA node. Grows monotonically and is reused across
  /// ParallelFor invocations; the returned span is valid until the same
  /// slot requests a larger size. Synchronization piggybacks on the dense-
  /// slot contract: each slot has a single writer at any time.
  std::span<std::byte> WorkerArena(size_t bytes);

  /// Runs fn(s) once per socket domain, each executing on a worker whose
  /// home domain is s (the tasks are exempt from stealing), so memory
  /// allocated inside fn is first-touched on the right node. Blocks until
  /// all complete; rethrows the first exception. Runs inline on the caller
  /// when the pool has no workers or when called from a pool worker (a
  /// worker cannot wait for its own domain's queue).
  void ForEachSocket(const std::function<void(size_t)>& fn);

  // --- Parallel-for front ends ---------------------------------------------

  /// Runs fn(i) for i in [0, n); blocks until all complete. Work is claimed
  /// in contiguous chunks of ~n / (4 · threads) items from per-domain
  /// counters (amortized synchronization, cross-socket stealing once the
  /// home range is dry), and the caller participates. Contiguous chunks
  /// balance only uniform items: sampling work lists are sorted
  /// heaviest-first, so the first chunk of a launch carries most of its
  /// tokens (71% on nytimes-tree). Exceptions from `fn` are
  /// rethrown on the caller (first one wins); with workers, every index
  /// still runs (inline mode propagates at the throwing index, as a plain
  /// loop would).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Range-based variant: partitions [0, n) into at most worker_count()+1
  /// contiguous near-equal ranges and runs fn(begin, end) once per range.
  /// The partition is a pure function of (n, worker_count()) — deterministic
  /// — while the assignment of ranges to threads is not. Use this when the
  /// per-item body is too cheap to pay a claim per chunk, or when the body
  /// wants to hoist per-range state.
  void ParallelForRanges(size_t n,
                         const std::function<void(size_t, size_t)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
    bool stealable = true;
  };
  struct Arena {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
  };

  void WorkerLoop(size_t worker_id);
  /// Shared engine: runs shard_fn(s) for s in [0, shards) with caller
  /// participation, per-domain claim ranges, and cross-socket stealing.
  void RunShards(size_t shards, const std::function<void(size_t)>& shard_fn);
  /// Pops a task claimable by a worker whose home domain is `home`:
  /// anything from the home queue first, else the first *stealable* task of
  /// another domain. Caller must hold mutex_. Returns false when nothing is
  /// claimable.
  bool PopTaskLocked(size_t home, Task* task);
  bool ClaimableLocked(size_t home) const;
  /// Pins spawned workers to their assigned CPUs (best effort, per worker).
  void PinWorkers();
  /// Slot-0 collision guard (see the dense-slot contract): throws when a
  /// second non-worker thread enters a parallel region concurrently.
  class ExternalGuard;

  ThreadPoolOptions options_;
  CpuTopology topo_;
  std::vector<int> worker_cpu_;     ///< assigned CPU per worker (-1 = none)
  std::vector<int> worker_domain_;  ///< home socket domain per worker
  std::vector<size_t> domain_worker_count_;  ///< workers per domain (≥1 dom)
  size_t pinned_workers_ = 0;

  std::vector<std::thread> threads_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::deque<Task>> queues_;  ///< one per socket domain
  bool stop_ = false;

  std::atomic<uint64_t> steals_{0};
  std::atomic<int> external_active_{0};
  std::atomic<std::thread::id> external_owner_{};
  std::vector<Arena> arenas_;  ///< worker_count()+1 slots, slot = id+1
};

/// pool->ParallelFor(n, fn), or a plain loop on the caller when `pool` is
/// null (a gpusim::Device without a pool runs its host work inline).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace culda
