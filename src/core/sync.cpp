#include "core/sync.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "util/check.hpp"

namespace culda::core {

namespace {

/// Cells per piece when the host splits a φ-sized add or copy over a pool.
constexpr size_t kPieceCells = size_t{1} << 16;

/// into[first, last) += from[first, last), with overflow detection for the
/// 16-bit counts (Section 6.1.3 argues 16 bits suffice; the check makes the
/// claim falsifiable instead of silently wrapping).
void AddCells(PhiMatrix& into, const PhiMatrix& from, uint64_t first,
              uint64_t last) {
  const auto dst = into.flat();
  const auto src = from.flat();
  for (uint64_t i = first; i < last; ++i) {
    const uint32_t sum = static_cast<uint32_t>(dst[i]) + src[i];
    CULDA_CHECK_MSG(sum <= 0xFFFF,
                    "phi count overflowed 16 bits during reduce; "
                    "the corpus is too large for compressed counts");
    dst[i] = static_cast<uint16_t>(sum);
  }
}

/// Runs fn(first, last) over pieces of [0, cells) on `pool`.
void ForEachPiece(ThreadPool* pool, uint64_t cells,
                  const std::function<void(uint64_t, uint64_t)>& fn) {
  ParallelFor(pool, (cells + kPieceCells - 1) / kPieceCells, [&](size_t p) {
    const uint64_t first = p * kPieceCells;
    fn(first, std::min<uint64_t>(cells, first + kPieceCells));
  });
}

/// into += from on the host (no kernel is billed), split over `pool`.
void HostAdd(ThreadPool* pool, PhiMatrix& into, const PhiMatrix& from) {
  CULDA_CHECK(into.flat().size() == from.flat().size());
  ForEachPiece(pool, into.flat().size(), [&](uint64_t first, uint64_t last) {
    AddCells(into, from, first, last);
  });
}

/// into = from, element-wise, split over `pool` (same shape required).
void HostCopy(ThreadPool* pool, PhiMatrix& into, const PhiMatrix& from) {
  CULDA_CHECK(into.flat().size() == from.flat().size());
  const auto dst = into.flat();
  const auto src = from.flat();
  ForEachPiece(pool, dst.size(), [&](uint64_t first, uint64_t last) {
    std::copy(src.begin() + first, src.begin() + last, dst.begin() + first);
  });
}

/// into += from as the element-wise add kernel on `device`: each block adds
/// and bills its share of the cells (the last block also adds the
/// remainder of the uneven split; billing stays the uniform share).
void ReduceAddKernel(gpusim::Device& device, const CuldaConfig& cfg,
                     PhiMatrix& into, const PhiMatrix& from) {
  CULDA_CHECK(into.flat().size() == from.flat().size());
  const uint64_t cells = into.flat().size();
  const uint64_t b = cfg.phi_count_bytes();
  device.Launch("phi_reduce_add",
                {static_cast<uint32_t>(std::max<uint64_t>(1, cells >> 16)),
                 1024},
                [&](gpusim::BlockContext& ctx) {
                  const auto [first, last] = ctx.UniformSlice(cells);
                  AddCells(into, from, first, last);
                  const uint64_t share = cells / ctx.grid_dim();
                  ctx.ReadGlobal(2 * share * b);
                  ctx.WriteGlobal(share * b);
                  ctx.IntOps(share);
                });
}

}  // namespace

const char* DistModeName(DistMode mode) {
  switch (mode) {
    case DistMode::kSync:
      return "sync";
    case DistMode::kAsync:
      return "async";
  }
  return "?";
}

DistMode ParseDistMode(std::string_view name) {
  if (name == "sync") return DistMode::kSync;
  if (name == "async") return DistMode::kAsync;
  throw Error(
      "--dist must be one of: sync (per-sweep inter-node all-reduce), async "
      "(nomadic shard circulation); got '" +
      std::string(name) + "'");
}

SyncStats SynchronizePhi(gpusim::DeviceGroup& group, const CuldaConfig& cfg,
                         std::span<PhiReplica> replicas, SyncMode mode) {
  const size_t g_count = group.size();
  CULDA_CHECK(replicas.size() == g_count);
  SyncStats stats;
  if (g_count == 1) return stats;

  const uint64_t cells = static_cast<uint64_t>(replicas[0].num_topics) *
                         replicas[0].vocab_size;
  const uint64_t bytes = cells * cfg.phi_count_bytes();
  const double start = group.Now();
  ThreadPool* pool = group.device(0).pool();

  if (mode == SyncMode::kGpuTree) {
    // Pairwise reduce (Figure 4): round r combines replicas at distance
    // 2^r; disjoint pairs run in parallel (their streams are independent).
    for (size_t step = 1; step < g_count; step *= 2) {
      ++stats.reduce_rounds;
      for (size_t i = 0; i + step < g_count; i += 2 * step) {
        group.PeerTransfer(i + step, i, bytes);
        stats.peer_bytes += bytes;
        ReduceAddKernel(group.device(i), cfg, replicas[i].phi,
                        replicas[i + step].phi);
      }
    }
    // Broadcast φ⁰ back out along the same tree, deepest distance first.
    size_t top = 1;
    while (top * 2 < g_count) top *= 2;
    for (size_t step = top; step >= 1; step /= 2) {
      for (size_t i = 0; i + step < g_count; i += 2 * step) {
        group.PeerTransfer(i, i + step, bytes);
        stats.peer_bytes += bytes;
        HostCopy(pool, replicas[i + step].phi, replicas[i].phi);
      }
      if (step == 1) break;
    }
  } else {
    // CPU-side sum (the rejected alternative, kept for the A5 ablation):
    // every GPU ships its replica down, the host adds G matrices, the sum is
    // shipped back up. All DMA streams land in the same host memory
    // controller, so the G copies serialize there (unlike peer transfers
    // between disjoint GPU pairs), and the adds run at CPU memory bandwidth
    // — both effects are why Section 5.2 keeps the reduction on the GPUs.
    double host_clock = group.Now();
    for (size_t i = 0; i < g_count; ++i) {
      gpusim::Device& dev = group.device(i);
      host_clock = std::max(host_clock, dev.stream(0).ready_time()) +
                   dev.host_link().TransferSeconds(bytes);
      dev.stream(0).WaitUntil(host_clock);
      stats.host_bytes += bytes;
    }
    for (size_t i = 1; i < g_count; ++i) {
      HostAdd(pool, replicas[0].phi, replicas[i].phi);
    }
    const gpusim::DeviceSpec cpu = gpusim::XeonCpu();
    host_clock += static_cast<double>(g_count + 1) * bytes /
                  cpu.EffectiveBandwidthBps();
    for (size_t i = 0; i < g_count; ++i) {
      if (i != 0) HostCopy(pool, replicas[i].phi, replicas[0].phi);
      gpusim::Device& dev = group.device(i);
      host_clock += dev.host_link().TransferSeconds(bytes);
      dev.stream(0).WaitUntil(host_clock);
      stats.host_bytes += bytes;
    }
  }

  stats.seconds = group.Now() - start;
  return stats;
}

MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::span<gpusim::DeviceGroup> node_groups, const CuldaConfig& cfg,
    std::span<PhiReplica> replicas, gpusim::Fabric& fabric) {
  const size_t nodes = node_groups.size();
  CULDA_CHECK(nodes >= 1);
  const size_t g_count = node_groups[0].size();
  for (const auto& group : node_groups) CULDA_CHECK(group.size() == g_count);
  CULDA_CHECK(replicas.size() == nodes * g_count);
  CULDA_CHECK_MSG(fabric.size() == nodes,
                  "fabric has " << fabric.size() << " endpoints but "
                                << nodes << " node groups were passed");

  MultiNodeSyncStats stats;
  const uint64_t bytes = static_cast<uint64_t>(replicas[0].num_topics) *
                         replicas[0].vocab_size * cfg.phi_count_bytes();
  // Intra-node reduce on every group: leaves every local replica holding the
  // node sum (reusing SynchronizePhi keeps one code path — the extra
  // broadcast is counted in the tail's favour since the tail then only
  // re-broadcasts deltas).
  double intra_start = 0, intra_end = 0;
  for (size_t n = 0; n < nodes; ++n) {
    intra_start = std::max(intra_start, node_groups[n].Now());
    SynchronizePhi(node_groups[n], cfg, replicas.subspan(n * g_count, g_count),
                   SyncMode::kGpuTree);
    intra_end = std::max(intra_end, node_groups[n].Now());
  }
  stats.intra_node_s = intra_end - intra_start;
  if (nodes == 1) {
    stats.seconds = stats.intra_node_s;
    return stats;
  }

  // Explicit ring all-reduce billed through the fabric: 2·(N−1) steps —
  // (N−1) reduce-scatter then (N−1) all-gather — each node forwarding a
  // ⌈model/N⌉ segment to its ring successor. On a ring fabric every step is
  // a single physical hop; on a fully-connected one it's a direct link.
  // Sends are issued in node-index order so link-contention resolution is
  // deterministic, and each step starts only when its payload has arrived
  // (clock[n] carries the per-node data dependency across steps).
  const uint64_t payload_before = fabric.payload_bytes();
  const uint64_t segment = (bytes + nodes - 1) / nodes;
  std::vector<double> clock(nodes, 0.0);
  for (size_t n = 0; n < nodes; ++n) clock[n] = node_groups[n].Now();
  for (size_t step = 0; step < 2 * (nodes - 1); ++step) {
    std::vector<double> arrival(nodes, 0.0);
    for (size_t n = 0; n < nodes; ++n) {
      const size_t dst = (n + 1) % nodes;
      arrival[dst] = fabric.Transfer(n, dst, segment, clock[n]);
    }
    for (size_t n = 0; n < nodes; ++n) {
      clock[n] = std::max(clock[n], arrival[n]);
    }
  }
  double end = 0;
  for (size_t n = 0; n < nodes; ++n) end = std::max(end, clock[n]);
  stats.network_bytes = fabric.payload_bytes() - payload_before;
  stats.inter_node_s = end - intra_end;

  // Functional inter-node sum: every node's first replica into node 0's.
  ThreadPool* pool = node_groups[0].device(0).pool();
  PhiMatrix& global = replicas[0].phi;
  for (size_t n = 1; n < nodes; ++n) {
    HostAdd(pool, global, replicas[n * g_count].phi);
  }

  // Install the global sum on every replica, align every device to `end`,
  // and bill one intra-node broadcast round over each node's peer link.
  for (auto& replica : replicas.subspan(1)) {
    HostCopy(pool, replica.phi, global);
  }
  for (size_t n = 0; n < nodes; ++n) {
    for (size_t g = 0; g < g_count; ++g) {
      node_groups[n].device(g).stream(0).WaitUntil(end);
    }
    if (g_count > 1) node_groups[n].PeerTransfer(0, 1, bytes);
    node_groups[n].Barrier();
    end = std::max(end, node_groups[n].Now());
  }
  stats.seconds = end - intra_start;
  return stats;
}

}  // namespace culda::core
