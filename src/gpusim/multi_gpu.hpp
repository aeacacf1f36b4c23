// A group of simulated devices in one machine plus the peer interconnect.
//
// Multi-GPU time semantics: every device keeps its own stream clocks; a peer
// transfer starts when both endpoints' streams are ready and advances both;
// Barrier() aligns all devices to the group-wide max, which is exactly the
// per-iteration synchronization point in Algorithm 1.
#pragma once

#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "util/thread_pool.hpp"

namespace culda::gpusim {

class DeviceGroup {
 public:
  /// Creates `specs.size()` devices sharing an optional worker pool.
  /// `peer_link` models GPU↔GPU transfers (PCIe by default, NVLink on DGX).
  /// Device ids start at `first_device_id` (node n of G GPUs uses n·G, so
  /// ids stay unique across the nodes of a cluster).
  DeviceGroup(std::vector<DeviceSpec> specs, LinkSpec peer_link = Pcie3x16(),
              ThreadPool* pool = nullptr, int first_device_id = 0);

  size_t size() const { return devices_.size(); }
  Device& device(size_t i) { return *devices_.at(i); }
  const Device& device(size_t i) const { return *devices_.at(i); }
  const LinkSpec& peer_link() const { return peer_link_; }

  /// Bills a peer-to-peer transfer of `bytes` from device `src` to device
  /// `dst` (functional data movement is the caller's job — both ends are
  /// host memory). The transfer starts once both streams are ready and
  /// advances both to its completion time, which is returned.
  double PeerTransfer(size_t src, size_t dst, uint64_t bytes,
                      int src_stream = 0, int dst_stream = 0);

  /// Group-wide barrier: aligns every stream of every device to the group
  /// max and returns that time.
  double Barrier();

  /// Latest completion time across all devices.
  double Now() const;

  /// Rewinds every device's clock to zero.
  void ResetTime();

  uint64_t peer_bytes() const { return peer_bytes_; }

 private:
  std::vector<std::unique_ptr<Device>> devices_;
  LinkSpec peer_link_;
  uint64_t peer_bytes_ = 0;
};

}  // namespace culda::gpusim
