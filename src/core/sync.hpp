// Model synchronization across GPUs (Section 5.2, Figure 4).
//
// After each iteration every GPU holds a φ replica counting only its own
// chunks' tokens; the global φ is their element-wise sum. CuLDA performs the
// sum GPU-side as a log(G) pairwise reduce tree followed by a broadcast —
// "the CPU is slower than GPUs in terms of matrix adding". The CPU-side
// alternative the paper rejects is kept as an ablation mode (DESIGN A5).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/config.hpp"
#include "core/model.hpp"
#include "gpusim/fabric.hpp"
#include "gpusim/multi_gpu.hpp"

namespace culda::core {

enum class SyncMode {
  kGpuTree,  ///< the paper's reduce+broadcast tree (Figure 4)
  kCpuSum,   ///< ship all replicas to the CPU, add there, ship back
};

struct SyncStats {
  double seconds = 0;        ///< group-time cost of this synchronization
  uint64_t peer_bytes = 0;   ///< bytes moved GPU↔GPU
  uint64_t host_bytes = 0;   ///< bytes moved over the host link (kCpuSum)
  int reduce_rounds = 0;
};

/// Synchronizes the φ replicas: on return, every replica holds the global
/// element-wise sum (n_k is NOT recomputed here — run the compute_nk kernel
/// after, which the trainer overlaps with the θ update).
/// `replicas.size()` must equal `group.size()`.
SyncStats SynchronizePhi(gpusim::DeviceGroup& group, const CuldaConfig& cfg,
                         std::span<PhiReplica> replicas,
                         SyncMode mode = SyncMode::kGpuTree);

/// Inter-node φ exchange strategy of an N-node trainer (docs/distributed.md).
enum class DistMode {
  kSync,   ///< per-sweep inter-node all-reduce (bulk-synchronous)
  kAsync,  ///< nomadic shard circulation with bounded staleness
};

const char* DistModeName(DistMode mode);

/// Parses "sync" or "async". Throws culda::Error echoing the bad value and
/// every accepted spelling.
DistMode ParseDistMode(std::string_view name);

/// staleness_bound value meaning "never force a refresh" (the natural cap is
/// N−1 rounds: a shard is refreshed whenever it becomes resident).
inline constexpr uint32_t kUnboundedStaleness = UINT32_MAX;

/// Extension (the paper's "comparable or better than distributed systems"
/// thesis, made quantitative): hierarchical φ synchronization across the
/// machines of `node_groups`, each holding G GPUs. Per iteration:
///   1. intra-node reduce tree over the local PCIe/NVLink (as above),
///   2. inter-node ring all-reduce of the node sums, billed segment by
///      segment through `fabric`: 2·(N−1) steps, each node forwarding a 1/N
///      model segment to its successor, so per-link LinkSpec overrides, ring
///      store-and-forward routing and link contention all land in the
///      returned time,
///   3. intra-node broadcast.
/// `replicas` holds all N·G replicas node-major (node n, GPU g at n·G + g);
/// every group must have the same size (the paper's homogeneous platforms)
/// and `fabric.size()` must equal the node count. Node clocks are read and
/// advanced in cluster-absolute time (callers keep all groups on one shared
/// timeline). The sync time is the quantity that makes multi-node LDA
/// unattractive versus one multi-GPU box at 10 Gb/s Ethernet.
struct MultiNodeSyncStats {
  double seconds = 0;
  double intra_node_s = 0;
  double inter_node_s = 0;
  uint64_t network_bytes = 0;
};

MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::span<gpusim::DeviceGroup> node_groups, const CuldaConfig& cfg,
    std::span<PhiReplica> replicas, gpusim::Fabric& fabric);

}  // namespace culda::core
