// NomadicCirculation — the asynchronous inter-node φ exchange of an N-node
// CuldaTrainer (TrainerOptions::mode == DistMode::kAsync, num_nodes > 1).
//
// Extension beyond the paper, after the nomadic word-shard circulation of
// Yu et al. over Petterson & Caetano's word-range shards (PAPERS.md). The
// vocabulary is split into N contiguous word shards
// (PartitionWordsByTokens); in round r shard s is resident at node
// (s + r) mod N, and each node samples only the tokens of its resident
// shard's words, applying the count deltas to the shard it holds — locally,
// no network. At the end of each round every node hands its shard to its
// ring successor: per-round network traffic is model/N per node on disjoint
// links, versus the synchronous all-reduce's 2·(N−1)/N·model through every
// NIC at a barrier. Non-resident shards are sampled against stale copies
// whose age (in rounds) is capped by `staleness_bound`; shards older than
// the bound are re-fetched from their current holder (billed over the
// fabric). N rounds = one sweep = every token resampled exactly once.
//
// Determinism: rounds run in three phases — a sequential shard-routing
// phase (all fabric transfers, issued in node order), a parallel sampling
// phase over the (node, gpu) grid (disjoint state; the sampler's Philox
// stream is keyed by (seed, sweep, global token) so values never depend on
// scheduling), and a sequential delta-fold phase (fixed node/gpu/token
// order). Assignments, clocks and fabric counters are therefore
// bit-identical at any host worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/kernels.hpp"
#include "core/model.hpp"
#include "core/sampler/sampler.hpp"
#include "core/sync.hpp"
#include "corpus/corpus.hpp"
#include "corpus/word_first.hpp"
#include "gpusim/fabric.hpp"
#include "gpusim/multi_gpu.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {

/// Runs fn(d) for d in [0, count) — concurrently on `pool` when it has
/// workers (simulated GPUs are independent between sync points),
/// sequentially otherwise. Callers keep per-device partials and reduce them
/// in fixed order afterwards, so float sums never depend on interleaving.
void ForEachDevice(ThreadPool* pool, size_t count,
                   const std::function<void(size_t)>& fn);

class NomadicCirculation {
 public:
  /// What one sweep (N rounds) reports back to the trainer.
  struct SweepResult {
    double sampling_s = 0;       ///< per-device sampling time, summed
    uint32_t max_staleness = 0;  ///< max shard age (rounds) sampled against
  };

  /// `chunks` are the trainer's N·G resident chunks, chunk n·G + g on node
  /// n, GPU g; their work lists are filtered per shard once, here.
  NomadicCirculation(const corpus::Corpus& corpus, uint32_t num_nodes,
                     uint32_t staleness_bound, TrainSampler sampler,
                     uint32_t mh_cycles, ThreadPool* pool,
                     std::span<const ChunkState> chunks);

  /// Rebuilds the canonical φ from the chunks' z and refreshes every node's
  /// view to it (construction, ImportAssignments).
  void ResetFromZ(const CuldaConfig& cfg, std::span<const ChunkState> chunks);

  /// One sweep: N rounds of route / sample / fold. `iteration` keys the
  /// sampler's Philox streams exactly as a synchronous iteration would.
  /// Non-null `steps` accumulates the sampling step tallies.
  SweepResult Sweep(std::span<gpusim::DeviceGroup> nodes,
                    gpusim::Fabric& fabric, std::span<ChunkState> chunks,
                    const CuldaConfig& cfg, uint32_t iteration,
                    SamplingStepCounters* steps);

  /// The model consistent with the current z (every round's deltas are
  /// folded in). The per-node views are stale by design.
  const PhiReplica& canonical() const { return canonical_; }

 private:
  void Round(std::span<gpusim::DeviceGroup> nodes, gpusim::Fabric& fabric,
             std::span<ChunkState> chunks, const CuldaConfig& cfg,
             uint32_t iteration, SamplingStepCounters* steps,
             SweepResult& result);
  uint64_t ShardBytes(const CuldaConfig& cfg, size_t shard) const;

  uint32_t vocab_size_;
  uint32_t staleness_bound_;
  TrainSampler sampler_;
  uint32_t mh_cycles_;
  ThreadPool* pool_;

  std::vector<corpus::WordRange> shards_;  ///< N contiguous word ranges
  /// Canonical host-side model: always consistent with the current z (every
  /// round's deltas are folded in during phase C). The "current holder" of a
  /// shard owns its canonical columns; the host array is the simulator's
  /// stand-in for the union of all holders.
  PhiReplica canonical_;
  /// Per-node sampling view: φ whose shard-s columns reflect the canonical
  /// model as of round last_refresh_[n][s].
  std::vector<PhiReplica> views_;
  std::vector<std::vector<uint32_t>> last_refresh_;  ///< [node][shard] round
  /// Per-chunk filtered work lists, [shard][chunk] (descending-size order
  /// preserved from the full list); built once at construction.
  std::vector<std::vector<std::vector<corpus::BlockWork>>> shard_work_;
  /// Cluster-absolute completion time of each node's previous round (the
  /// departure time of the shard it hands to its successor).
  std::vector<double> node_round_end_;
  uint32_t round_ = 0;  ///< rounds completed (sweeps · N + r)
};

}  // namespace culda::core
