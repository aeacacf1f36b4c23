#include "core/nomadic.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace culda::core {

namespace {

/// Per-(node, gpu) partial of the parallel sampling phase, reduced in fixed
/// grid order afterwards so float sums never depend on scheduling.
struct alignas(64) CellPartial {
  double sampling_s = 0;
  SamplingStepCounters steps;
};

}  // namespace

void ForEachDevice(ThreadPool* pool, size_t count,
                   const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->worker_count() > 0 && count > 1) {
    pool->ParallelFor(count, fn);
  } else {
    for (size_t d = 0; d < count; ++d) fn(d);
  }
}

NomadicCirculation::NomadicCirculation(const corpus::Corpus& corpus,
                                       uint32_t num_nodes,
                                       uint32_t staleness_bound,
                                       TrainSampler sampler,
                                       uint32_t mh_cycles, ThreadPool* pool,
                                       std::span<const ChunkState> chunks)
    : vocab_size_(corpus.vocab_size()),
      staleness_bound_(staleness_bound),
      sampler_(sampler),
      mh_cycles_(mh_cycles),
      pool_(pool),
      shards_(corpus::PartitionWordsByTokens(corpus, num_nodes)),
      node_round_end_(num_nodes, 0.0) {
  // Pre-filter every chunk's work list per shard: BuildBlockWorkList orders
  // blocks by descending size, and filtering preserves that order, so the
  // shard-restricted kernel keeps the heavy-block-first schedule.
  shard_work_.assign(shards_.size(), {});
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_work_[s].resize(chunks.size());
    for (size_t c = 0; c < chunks.size(); ++c) {
      for (const corpus::BlockWork& bw : chunks[c].work) {
        if (bw.word >= shards_[s].word_begin &&
            bw.word < shards_[s].word_end) {
          shard_work_[s][c].push_back(bw);
        }
      }
    }
  }
}

void NomadicCirculation::ResetFromZ(const CuldaConfig& cfg,
                                    std::span<const ChunkState> chunks) {
  canonical_ = PhiReplica(cfg.num_topics, vocab_size_);
  for (const auto& chunk : chunks) {
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      uint16_t& cell = canonical_.phi(chunk.z[t], chunk.layout.token_word[t]);
      CULDA_CHECK_MSG(cell < 0xFFFF, "phi count overflow at init");
      ++cell;
    }
  }
  canonical_.RecomputeTotals();
  views_.assign(node_round_end_.size(), canonical_);
  last_refresh_.assign(node_round_end_.size(),
                       std::vector<uint32_t>(shards_.size(), round_));
}

uint64_t NomadicCirculation::ShardBytes(const CuldaConfig& cfg,
                                        size_t shard) const {
  return static_cast<uint64_t>(shards_[shard].word_end -
                               shards_[shard].word_begin) *
         cfg.num_topics * cfg.phi_count_bytes();
}

NomadicCirculation::SweepResult NomadicCirculation::Sweep(
    std::span<gpusim::DeviceGroup> nodes, gpusim::Fabric& fabric,
    std::span<ChunkState> chunks, const CuldaConfig& cfg, uint32_t iteration,
    SamplingStepCounters* steps) {
  SweepResult result;
  for (size_t r = 0; r < nodes.size(); ++r) {
    Round(nodes, fabric, chunks, cfg, iteration, steps, result);
    ++round_;
  }
  return result;
}

void NomadicCirculation::Round(std::span<gpusim::DeviceGroup> nodes,
                               gpusim::Fabric& fabric,
                               std::span<ChunkState> chunks,
                               const CuldaConfig& cfg, uint32_t iteration,
                               SamplingStepCounters* steps,
                               SweepResult& result) {
  const uint32_t round = round_;
  const size_t n_count = nodes.size();
  const size_t g_count = nodes[0].size();
  const uint32_t bound = staleness_bound_;

  // Resident shard of node n this round: s with (s + round) % N == n.
  std::vector<size_t> resident(n_count);
  for (size_t n = 0; n < n_count; ++n) {
    resident[n] = (n + n_count - (round % n_count)) % n_count;
  }
  // Copies canonical's shard-s columns into node n's sampling view.
  auto refresh_view = [&](size_t n, size_t s) {
    const uint32_t wb = shards_[s].word_begin;
    const uint32_t we = shards_[s].word_end;
    for (uint32_t k = 0; k < cfg.num_topics; ++k) {
      const auto src = canonical_.phi.Row(k);
      auto dst = views_[n].phi.Row(k);
      std::copy(src.begin() + wb, src.begin() + we, dst.begin() + wb);
    }
  };

  // --- Phase A: shard routing (sequential in node order — all fabric
  // transfers are issued here, so link contention resolves identically at
  // any worker count). Each node receives its resident shard from its ring
  // predecessor (who departed when its previous round ended), force-
  // refreshes any shard copy older than the staleness bound from that
  // shard's current holder, then distributes the fresh columns to its GPUs.
  std::vector<std::vector<uint16_t>> snapshots(chunks.size());
  for (size_t n = 0; n < n_count; ++n) {
    const size_t s_res = resident[n];
    double arrivals = node_round_end_[n];
    uint64_t refreshed_bytes = 0;
    uint64_t refreshed_cells = 0;
    if (round > 0) {
      const size_t prev = (n + n_count - 1) % n_count;
      arrivals = std::max(
          arrivals, fabric.Transfer(prev, n, ShardBytes(cfg, s_res),
                                    node_round_end_[prev]));
      refresh_view(n, s_res);
      last_refresh_[n][s_res] = round;
      refreshed_bytes += ShardBytes(cfg, s_res);
      refreshed_cells += static_cast<uint64_t>(shards_[s_res].word_end -
                                               shards_[s_res].word_begin) *
                         cfg.num_topics;
    }
    if (bound != kUnboundedStaleness) {
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (s == s_res) continue;
        if (round - last_refresh_[n][s] <= bound) continue;
        const size_t holder = (s + round) % n_count;
        arrivals = std::max(
            arrivals, fabric.Transfer(holder, n, ShardBytes(cfg, s),
                                      node_round_end_[holder]));
        refresh_view(n, s);
        last_refresh_[n][s] = round;
        refreshed_bytes += ShardBytes(cfg, s);
        refreshed_cells += static_cast<uint64_t>(shards_[s].word_end -
                                                 shards_[s].word_begin) *
                           cfg.num_topics;
      }
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      result.max_staleness =
          std::max(result.max_staleness, round - last_refresh_[n][s]);
    }

    gpusim::DeviceGroup& node = nodes[n];
    for (size_t g = 0; g < g_count; ++g) {
      node.device(g).stream(0).WaitUntil(arrivals);
      node.device(g).stream(1).WaitUntil(arrivals);
    }
    if (refreshed_bytes > 0) {
      // Install the fresh columns (device 0) and recompute the view's n_k
      // (stale mix of columns ⇒ totals change with every refresh). The
      // recompute is billed incrementally — old + new refreshed columns —
      // not as a full K×V scan.
      node.device(0).Launch(
          "install_shard",
          {static_cast<uint32_t>(
               std::max<uint64_t>(1, refreshed_cells >> 16)),
           1024},
          [&](gpusim::BlockContext& ctx) {
            ctx.WriteGlobal(refreshed_bytes / ctx.grid_dim());
          });
      if (g_count > 1) node.PeerTransfer(0, 1, refreshed_bytes);
      views_[n].RecomputeTotals();
      node.device(0).Launch(
          "refresh_nk",
          {std::max(1u, cfg.num_topics / 4), 128},
          [&](gpusim::BlockContext& ctx) {
            ctx.ReadGlobal(2 * refreshed_cells * cfg.phi_count_bytes() /
                           ctx.grid_dim());
            ctx.WriteGlobal(cfg.num_topics * 4 / ctx.grid_dim());
          });
    }
    // Snapshot the resident slice's assignments: phase C derives the round's
    // count deltas from (snapshot, new z). The slice is contiguous in the
    // word-first order, so this is one sub-range per chunk.
    for (size_t g = 0; g < g_count; ++g) {
      const size_t c = n * g_count + g;
      const ChunkState& chunk = chunks[c];
      const uint64_t a = chunk.layout.word_offsets[shards_[s_res].word_begin];
      const uint64_t b = chunk.layout.word_offsets[shards_[s_res].word_end];
      snapshots[c].assign(chunk.z.begin() + a, chunk.z.begin() + b);
    }
  }

  // --- Phase B: sampling (parallel over the node×GPU grid; every cell owns
  // disjoint chunk/device state and reads its node's view immutably).
  std::vector<CellPartial> partials(chunks.size());
  ForEachDevice(pool_, chunks.size(), [&](size_t c) {
    const size_t n = c / g_count;
    CellPartial& part = partials[c];
    gpusim::Device& dev = nodes[n].device(c % g_count);
    ChunkState& chunk = chunks[c];
    std::vector<corpus::BlockWork>& filtered = shard_work_[resident[n]][c];
    const uint64_t touched = snapshots[c].size();
    gpusim::Stream& compute = dev.stream(0);

    // Restrict the kernel to the resident shard's words by swapping in the
    // filtered work list — the sampling kernel iterates only chunk.work.
    std::swap(chunk.work, filtered);
    const auto sampling = RunSamplingKernel(
        dev, cfg, chunk, views_[n], iteration, &compute,
        steps != nullptr ? &part.steps : nullptr, sampler_, mh_cycles_);
    std::swap(chunk.work, filtered);
    part.sampling_s += sampling.time.total_s;

    if (touched > 0) {
      // Billing for folding this round's deltas into the resident shard
      // (the functional fold runs host-side in phase C): per touched token,
      // read old/new z and apply a −1/+1 atomic pair to the φ column.
      dev.Launch(
          "update_phi_delta",
          {static_cast<uint32_t>(
               std::min<uint64_t>(std::max<uint64_t>(1, touched / 1024),
                                  4096)),
           1024},
          [&](gpusim::BlockContext& ctx) {
            const uint64_t here =
                touched / ctx.grid_dim() +
                (ctx.block_id() < touched % ctx.grid_dim());
            ctx.ReadGlobal(here * 4);
            ctx.counters().atomic_ops += 2 * here;
            ctx.WriteGlobal(2 * here * cfg.phi_count_bytes());
          },
          &compute);
      gpusim::Stream& theta_stream = dev.stream(1);
      theta_stream.WaitUntil(sampling.end_s);
      RunUpdateThetaDeltaKernel(dev, cfg, chunk, touched, &theta_stream);
    }
  });
  for (const CellPartial& part : partials) {
    result.sampling_s += part.sampling_s;
    if (steps != nullptr) *steps += part.steps;
  }

  // --- Phase C: fold each node's deltas into the canonical model
  // (sequential, fixed node/gpu/token order). Shards are disjoint word
  // ranges and each is resident at exactly one node, so the folds commute —
  // the fixed order is for bitwise reproducibility of the checks.
  for (size_t n = 0; n < n_count; ++n) {
    const size_t s_res = resident[n];
    for (size_t g = 0; g < g_count; ++g) {
      const size_t c = n * g_count + g;
      const ChunkState& chunk = chunks[c];
      const std::vector<uint16_t>& old_z = snapshots[c];
      const uint64_t a = chunk.layout.word_offsets[shards_[s_res].word_begin];
      for (uint64_t i = 0; i < old_z.size(); ++i) {
        const uint64_t t = a + i;
        const uint16_t prev = old_z[i];
        const uint16_t next = chunk.z[t];
        if (prev == next) continue;
        const uint32_t w = chunk.layout.token_word[t];
        uint16_t& dec = canonical_.phi(prev, w);
        CULDA_CHECK_MSG(dec > 0, "phi count underflow folding round delta");
        --dec;
        uint16_t& inc = canonical_.phi(next, w);
        CULDA_CHECK_MSG(inc < 0xFFFF,
                        "phi count overflowed 16 bits folding round delta");
        ++inc;
        --canonical_.nk[prev];
        ++canonical_.nk[next];
      }
    }
    // The node's own updates live in its local shard copy: keep its view of
    // the resident shard current (no network — this is the nomadic
    // advantage). Only node n touched these columns this round, so the copy
    // picks up exactly its own deltas.
    refresh_view(n, s_res);
    nodes[n].Barrier();
    node_round_end_[n] = nodes[n].Now();
  }
}

}  // namespace culda::core
