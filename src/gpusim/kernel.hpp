// Kernel launch configuration and the per-block execution context.
//
// Kernels are C++ callables invoked once per thread block:
//
//   device.Launch("sampling", {grid, 1024}, [&](BlockContext& ctx) {
//     auto tree = ctx.shared().Alloc<float>(kTreeSize);
//     ...
//     ctx.ReadGlobal(row_bytes);          // bill DRAM traffic
//     ctx.AtomicAdd(phi[k * V + v], 1);   // functional + billed atomic
//   });
//
// Inside a block the kernel is free to model warps however the algorithm
// requires (CuLDA's sampler treats one warp as one sampler and iterates
// ctx.warp_count() samplers); lane-level lock-step helpers live in warp.hpp.
// Traffic accounting is explicit: kernels bill the bytes their data
// structures actually occupy, so counter totals track algorithmic changes
// (shorter indices, shared-memory reuse) with no constants to update.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "gpusim/counters.hpp"
#include "gpusim/shared_memory.hpp"

namespace culda::gpusim {

struct LaunchConfig {
  uint32_t grid_dim = 1;    ///< number of thread blocks
  uint32_t block_dim = 32;  ///< threads per block (multiple of 32)
  /// Fraction of the device's streaming bandwidth this kernel's DRAM access
  /// pattern can sustain. 1.0 = fully coalesced streaming; CuLDA's sampling
  /// kernel is warp-divergent with dependent loads (the "irregular"
  /// behaviour Section 3.2 calls out) and sustains well under half. This is
  /// the simulator's only per-kernel calibration knob; values used by the
  /// kernels are documented in EXPERIMENTS.md.
  double mem_derate = 1.0;
};

constexpr uint32_t kWarpSize = 32;

class BlockContext {
 public:
  BlockContext(uint32_t block_id, const LaunchConfig& cfg,
               SharedMemory* shared)
      : block_id_(block_id), cfg_(cfg), shared_(shared) {
    counters_.blocks = 1;
    counters_.warps = cfg.block_dim / kWarpSize;
  }

  uint32_t block_id() const { return block_id_; }
  uint32_t grid_dim() const { return cfg_.grid_dim; }
  uint32_t block_dim() const { return cfg_.block_dim; }
  uint32_t warp_count() const { return cfg_.block_dim / kWarpSize; }

  /// This block's slice [first, second) of `n` items dealt n / grid_dim()
  /// to each block, the last block also taking the remainder: the work
  /// split of kernels that bill a uniform n / grid_dim() share per block.
  std::pair<uint64_t, uint64_t> UniformSlice(uint64_t n) const {
    const uint64_t share = n / grid_dim();
    const uint64_t first = block_id_ * share;
    return {first, block_id_ + 1 == grid_dim() ? n : first + share};
  }

  SharedMemory& shared() { return *shared_; }
  KernelCounters& counters() { return counters_; }

  // --- Traffic billing -----------------------------------------------------
  void ReadGlobal(uint64_t bytes) { counters_.global_read_bytes += bytes; }
  /// Reads routed through L1 (the paper routes sparse-index loads there,
  /// Section 6.1.2).
  void ReadL1(uint64_t bytes) { counters_.l1_read_bytes += bytes; }
  void WriteGlobal(uint64_t bytes) { counters_.global_write_bytes += bytes; }
  void WriteShared(uint64_t bytes) { counters_.shared_write_bytes += bytes; }
  void Flops(uint64_t n) { counters_.flops += n; }
  void IntOps(uint64_t n) { counters_.int_ops += n; }

  // --- Atomics -------------------------------------------------------------
  /// Functional atomic add on a global-memory location, billed as one atomic
  /// RMW. Safe under concurrent block execution.
  template <typename T>
  T AtomicAdd(T& target, T value) {
    counters_.atomic_ops += 1;
    return std::atomic_ref<T>(target).fetch_add(value,
                                                std::memory_order_relaxed);
  }

 private:
  uint32_t block_id_;
  LaunchConfig cfg_;
  SharedMemory* shared_;
  KernelCounters counters_;
};

}  // namespace culda::gpusim
