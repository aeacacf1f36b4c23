#include "gpusim/multi_gpu.hpp"

#include <algorithm>

namespace culda::gpusim {

DeviceGroup::DeviceGroup(std::vector<DeviceSpec> specs, LinkSpec peer_link,
                         ThreadPool* pool, int first_device_id)
    : peer_link_(std::move(peer_link)) {
  CULDA_CHECK_MSG(!specs.empty(), "DeviceGroup needs at least one device");
  devices_.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    devices_.push_back(
        std::make_unique<Device>(specs[i],
                                 first_device_id + static_cast<int>(i), pool));
  }
}

double DeviceGroup::PeerTransfer(size_t src, size_t dst, uint64_t bytes,
                                 int src_stream, int dst_stream) {
  CULDA_CHECK(src < devices_.size() && dst < devices_.size() && src != dst);
  Stream& s = devices_[src]->stream(src_stream);
  Stream& d = devices_[dst]->stream(dst_stream);
  const double start = std::max(s.ready_time(), d.ready_time());
  const double end = start + peer_link_.TransferSeconds(bytes);
  s.WaitUntil(end);
  d.WaitUntil(end);
  peer_bytes_ += bytes;
  return end;
}

double DeviceGroup::Barrier() {
  const double t = Now();
  for (auto& dev : devices_) {
    dev->Synchronize();
    // Align to the group max, not just the device max.
    dev->stream(0).WaitUntil(t);
    dev->Synchronize();
  }
  return t;
}

double DeviceGroup::Now() const {
  double t = 0;
  for (const auto& dev : devices_) t = std::max(t, dev->Now());
  return t;
}

void DeviceGroup::ResetTime() {
  for (auto& dev : devices_) dev->ResetTime();
}

}  // namespace culda::gpusim
