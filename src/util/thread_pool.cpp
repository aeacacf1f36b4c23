#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <string>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace culda {

namespace {

// Identity of the current thread within its owning pool; lets kernels map
// any executing thread to a dense accumulator slot without locks.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local int tl_worker_id = -1;

/// Shared state of one RunShards call. Helper tasks hold it by shared_ptr:
/// a task that wakes up after the call already returned (because the caller
/// drained every shard itself) finds no shard to claim and exits without
/// touching the caller's stack.
///
/// The shard index space [0, shards) is partitioned into one contiguous
/// range per socket domain (sized by the number of threads executing there),
/// each with its own claim counter: a drainer exhausts its home range before
/// touching another domain's, so on a multi-socket pool almost all claims —
/// and the memory the shard bodies touch — stay node-local, and cross-socket
/// claims (steals) happen only when a home range runs dry.
struct ShardJob {
  size_t shards = 0;
  const std::function<void(size_t)>* shard_fn = nullptr;  ///< valid while done < shards
  size_t domains = 1;
  std::vector<size_t> range_begin;               ///< domains + 1 boundaries
  std::unique_ptr<std::atomic<size_t>[]> next;   ///< per-domain claim offset
  std::atomic<uint64_t>* steals = nullptr;       ///< owning pool's counter
  size_t done = 0;  ///< guarded by done_mutex
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  /// Claims and runs shards until every domain's counter is exhausted,
  /// starting from `home`. Every claimed shard is counted as done even if
  /// it throws, so `done == shards` is reached unconditionally and the
  /// caller's wait always terminates.
  void Drain(size_t home) {
    for (size_t off = 0; off < domains; ++off) {
      const size_t d = (home + off) % domains;
      const size_t len = range_begin[d + 1] - range_begin[d];
      for (;;) {
        const size_t idx = next[d].fetch_add(1);
        if (idx >= len) break;
        if (off != 0) {
          steals->fetch_add(1, std::memory_order_relaxed);
          CULDA_OBS_COUNT("threadpool.steals", 1);
        }
        try {
          (*shard_fn)(range_begin[d] + idx);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        size_t finished;
        {
          std::lock_guard<std::mutex> lock(done_mutex);
          finished = ++done;
        }
        if (finished == shards) done_cv.notify_all();
      }
    }
  }
};

}  // namespace

/// RAII enforcement of the dense-slot contract: at most one non-worker
/// thread may be inside a parallel region of this pool at a time (it owns
/// slot 0). Workers pass through untouched — their slots never collide —
/// and the owning external thread may re-enter (a nested launch issued from
/// the caller-participation path reuses slot 0 on the same thread, which is
/// safe); only a *different* external thread trips the check.
class ThreadPool::ExternalGuard {
 public:
  explicit ExternalGuard(ThreadPool* pool) {
    if (pool->current_worker_id() != -1) return;
    const std::thread::id me = std::this_thread::get_id();
    const int prev =
        pool->external_active_.fetch_add(1, std::memory_order_acq_rel);
    if (prev == 0) {
      pool->external_owner_.store(me, std::memory_order_release);
      owner_ = true;
    } else if (pool->external_owner_.load(std::memory_order_acquire) != me) {
      pool->external_active_.fetch_sub(1, std::memory_order_acq_rel);
      CULDA_CHECK_MSG(false,
                      "concurrent ParallelFor calls from "
                          << prev + 1
                          << " non-worker threads would collide on dense "
                             "accumulator slot 0 (see the "
                             "ThreadPool::current_worker_id contract); "
                             "drive the pool from one external thread at a "
                             "time");
    }
    pool_ = pool;
  }
  ~ExternalGuard() {
    if (pool_ == nullptr) return;
    // Clear ownership *before* the count drops to zero so a later thread
    // can never observe a stale owner id equal to its own.
    if (owner_) {
      pool_->external_owner_.store(std::thread::id{},
                                   std::memory_order_release);
    }
    pool_->external_active_.fetch_sub(1, std::memory_order_acq_rel);
  }
  ExternalGuard(const ExternalGuard&) = delete;
  ExternalGuard& operator=(const ExternalGuard&) = delete;

 private:
  ThreadPool* pool_ = nullptr;
  bool owner_ = false;
};

ThreadPool::ThreadPool(size_t workers, ThreadPoolOptions options)
    : options_(options),
      topo_(options.topology != nullptr ? *options.topology
                                        : SystemTopology()) {
  worker_cpu_.assign(workers, -1);
  worker_domain_.assign(workers, 0);
  if (workers > 0 && topo_.cpu_count() > 0) {
    // Round-robin workers over the effective CPUs, then compact the set of
    // NUMA nodes that actually received a worker into dense domain indices
    // (ascending node order) — so every domain has at least one worker and
    // a single-node topology yields exactly one domain.
    std::map<int, int> domain_of_node;
    for (size_t w = 0; w < workers; ++w) {
      domain_of_node.emplace(topo_.node_of[w % topo_.cpu_count()], 0);
    }
    int next_domain = 0;
    for (auto& [node, domain] : domain_of_node) {
      (void)node;
      domain = next_domain++;
    }
    for (size_t w = 0; w < workers; ++w) {
      const size_t slot = w % topo_.cpu_count();
      worker_cpu_[w] = topo_.cpus[slot];
      worker_domain_[w] = domain_of_node.at(topo_.node_of[slot]);
    }
  }
  size_t domain_count = 1;
  for (const int d : worker_domain_) {
    domain_count = std::max(domain_count, static_cast<size_t>(d) + 1);
  }
  domain_worker_count_.assign(domain_count, 0);
  for (const int d : worker_domain_) {
    ++domain_worker_count_[static_cast<size_t>(d)];
  }
  queues_.resize(domain_count);
  arenas_.resize(workers + 1);

  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (options_.pin && workers > 0) PinWorkers();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::PinWorkers() {
#if defined(__linux__)
  size_t failed = 0;
  for (size_t w = 0; w < threads_.size(); ++w) {
    const int cpu = worker_cpu_[w];
    bool ok = false;
    if (cpu >= 0 && cpu < CPU_SETSIZE) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ok = pthread_setaffinity_np(threads_[w].native_handle(), sizeof(set),
                                  &set) == 0;
    }
    if (ok) {
      ++pinned_workers_;
    } else {
      ++failed;
    }
  }
  if (failed > 0) {
    CULDA_LOG(Warn) << "could not pin " << failed << " of " << threads_.size()
                    << " workers to their CPUs; they run unpinned";
  }
#else
  CULDA_LOG(Warn) << "worker pinning is not supported on this platform; all "
                  << threads_.size() << " workers run unpinned";
#endif
}

int ThreadPool::current_worker_id() const {
  return tl_pool == this ? tl_worker_id : -1;
}

int ThreadPool::socket_of_worker(int worker_id) const {
  CULDA_CHECK(worker_id >= 0 &&
              static_cast<size_t>(worker_id) < worker_domain_.size());
  return worker_domain_[static_cast<size_t>(worker_id)];
}

int ThreadPool::current_socket() const {
  const int id = current_worker_id();
  return id >= 0 ? worker_domain_[static_cast<size_t>(id)] : 0;
}

std::span<std::byte> ThreadPool::WorkerArena(size_t bytes) {
  Arena& arena = arenas_[static_cast<size_t>(current_worker_id() + 1)];
  if (arena.capacity < bytes) {
    // Round up to whole pages and zero-fill on *this* thread: the zeroing is
    // the first touch, so with pinned workers the kernel places the pages on
    // the caller's NUMA node.
    const size_t cap = (bytes + 4095) / 4096 * 4096;
    auto data = std::make_unique<std::byte[]>(cap);
    std::fill_n(data.get(), cap, std::byte{0});
    arena.data = std::move(data);
    arena.capacity = cap;
  }
  return {arena.data.get(), bytes};
}

bool ThreadPool::ClaimableLocked(size_t home) const {
  if (!queues_[home].empty()) return true;
  for (size_t d = 0; d < queues_.size(); ++d) {
    if (d == home) continue;
    for (const Task& t : queues_[d]) {
      if (t.stealable) return true;
    }
  }
  return false;
}

bool ThreadPool::PopTaskLocked(size_t home, Task* task) {
  auto& mine = queues_[home];
  if (!mine.empty()) {
    *task = std::move(mine.front());
    mine.pop_front();
    return true;
  }
  for (size_t off = 1; off < queues_.size(); ++off) {
    auto& other = queues_[(home + off) % queues_.size()];
    for (auto it = other.begin(); it != other.end(); ++it) {
      if (it->stealable) {
        *task = std::move(*it);
        other.erase(it);
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t worker_id) {
  tl_pool = this;
  tl_worker_id = static_cast<int>(worker_id);
  const size_t home = static_cast<size_t>(worker_domain_[worker_id]);
#ifndef CULDA_OBS_OFF
  // One gauge per worker slot: merged busy seconds need no hot-path locks
  // because each gauge has exactly one writer thread. The socket label makes
  // per-domain utilization greppable ("is socket 1 idle?").
  obs::Gauge& busy_s = obs::Metrics().GetGauge(
      "threadpool.worker" + std::to_string(worker_id) + ".socket" +
      std::to_string(home) + ".busy_s");
#endif
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || ClaimableLocked(home); });
      if (!PopTaskLocked(home, &task)) {
        if (stop_) return;
        continue;  // only unstealable work elsewhere; wait again
      }
    }
#ifndef CULDA_OBS_OFF
    if (obs::MetricsEnabled()) {
      const auto t0 = std::chrono::steady_clock::now();
      task.fn();
      busy_s.Add(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
      CULDA_OBS_COUNT("threadpool.tasks_run", 1);
      continue;
    }
#endif
    task.fn();
  }
}

void ThreadPool::ForEachSocket(const std::function<void(size_t)>& fn) {
  const size_t domain_count = socket_count();
  // Inline when there is nobody to delegate to, and on a pool worker: a
  // worker draining its own domain's queue from inside a task would wait on
  // itself. Either way fn still runs once per domain, in order.
  if (threads_.empty() || current_worker_id() != -1) {
    for (size_t d = 0; d < domain_count; ++d) fn(d);
    return;
  }
  struct SocketJob {
    size_t done = 0;  ///< guarded by mutex
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr first_error;
  };
  auto job = std::make_shared<SocketJob>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t d = 0; d < domain_count; ++d) {
      // Not stealable: the whole point is that fn(d) executes — and first-
      // touches memory — on a worker whose home really is domain d. Every
      // domain has at least one worker by construction, so nothing strands.
      queues_[d].push_back(Task{
          [job, d, domain_count, &fn] {
            try {
              fn(d);
            } catch (...) {
              std::lock_guard<std::mutex> jlock(job->mutex);
              if (!job->first_error) {
                job->first_error = std::current_exception();
              }
            }
            size_t finished;
            {
              std::lock_guard<std::mutex> jlock(job->mutex);
              finished = ++job->done;
            }
            if (finished == domain_count) job->cv.notify_all();
          },
          /*stealable=*/false});
    }
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(job->mutex);
  job->cv.wait(lock, [&] { return job->done == domain_count; });
  if (job->first_error) std::rethrow_exception(job->first_error);
}

void ThreadPool::RunShards(size_t shards,
                           const std::function<void(size_t)>& shard_fn) {
  const size_t home = static_cast<size_t>(current_socket());
  auto job = std::make_shared<ShardJob>();
  job->shards = shards;
  job->shard_fn = &shard_fn;
  job->steals = &steals_;
  job->domains = socket_count();
  // Split the shard index space into one contiguous range per domain, sized
  // by how many threads execute there (that domain's workers, plus this
  // caller in its home domain). The split only steers scheduling — results
  // are interleaving-independent — so proportionality is all that matters.
  job->range_begin.assign(job->domains + 1, 0);
  {
    size_t total = 1;  // the caller
    for (const size_t c : domain_worker_count_) total += c;
    size_t prefix = 0;
    for (size_t d = 0; d < job->domains; ++d) {
      prefix += domain_worker_count_[d] + (d == home ? 1 : 0);
      job->range_begin[d + 1] = shards * prefix / total;
    }
  }
  job->next = std::make_unique<std::atomic<size_t>[]>(job->domains);
  for (size_t d = 0; d < job->domains; ++d) {
    job->next[d].store(0, std::memory_order_relaxed);
  }

  // One looping helper per worker (capped at the shard count); each claims
  // shards until none remain, so even a single helper — or the caller alone,
  // when every worker is busy inside another caller's body — completes the
  // job. This is what makes nested use from trainer-level parallelism safe.
  // Helper h lands on worker h's home queue; helpers are stealable, so an
  // idle domain picks up slack even when its own helpers were consumed.
  const size_t helpers = std::min(shards, threads_.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
#ifndef CULDA_OBS_OFF
    if (obs::MetricsEnabled()) {
      static obs::Histogram& wait_h =
          obs::Metrics().GetHistogram("threadpool.queue_wait_s");
      const auto pushed = std::chrono::steady_clock::now();
      for (size_t h = 0; h < helpers; ++h) {
        queues_[static_cast<size_t>(worker_domain_[h])].push_back(
            Task{[this, job, pushed] {
                   wait_h.Record(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - pushed)
                                     .count());
                   job->Drain(static_cast<size_t>(current_socket()));
                 },
                 /*stealable=*/true});
      }
    } else
#endif
    {
      for (size_t h = 0; h < helpers; ++h) {
        queues_[static_cast<size_t>(worker_domain_[h])].push_back(
            Task{[this, job] {
                   job->Drain(static_cast<size_t>(current_socket()));
                 },
                 /*stealable=*/true});
      }
    }
  }
  if (helpers > 0) cv_.notify_all();

  job->Drain(home);  // caller participates

  {
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done_cv.wait(lock, [&] { return job->done == job->shards; });
  }
  if (job->first_error) std::rethrow_exception(job->first_error);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  ExternalGuard guard(this);
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Chunked claiming: ~4 chunks per executing thread amortizes the claim
  // (one atomic + one condvar-free loop per chunk). Balance is only as good
  // as the item order: a sampling launch's blocks are sorted heaviest-first,
  // so its first chunk is the heavy one (on nytimes-tree, scale 0.0085, the
  // first of 16 chunks holds 71% of a GPU chunk's tokens) and the launch
  // lasts at least as long as that chunk.
  const size_t lanes = threads_.size() + 1;
  const size_t chunk = std::max<size_t>(1, n / (lanes * 4));
  const size_t shards = (n + chunk - 1) / chunk;
  // Per-item error capture so a throwing item never silently skips the rest
  // of its chunk — every index runs, then the first error is rethrown.
  std::exception_ptr first_error;
  std::mutex error_mutex;
  RunShards(shards, [&](size_t s) {
    const size_t begin = s * chunk;
    const size_t end = std::min(n, begin + chunk);
    for (size_t i = begin; i < end; ++i) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  });
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelForRanges(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  ExternalGuard guard(this);
  const size_t ranges = std::min(n, threads_.size() + 1);
  if (threads_.empty() || ranges == 1) {
    fn(0, n);
    return;
  }

  // Deterministic near-equal partition: the first n % ranges ranges get one
  // extra item. Boundaries depend only on (n, worker_count()).
  const size_t base = n / ranges;
  const size_t extra = n % ranges;
  RunShards(ranges, [&](size_t r) {
    const size_t begin = r * base + std::min(r, extra);
    const size_t end = begin + base + (r < extra ? 1 : 0);
    fn(begin, end);
  });
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace culda
