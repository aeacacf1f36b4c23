// Profiling reports over a Device's kernel records.
//
//   PrintProfile          — per-kernel table (launches, time, traffic, share
//                           of total), the source of the Table 5 breakdown.
//   WriteProfileJson      — the same aggregates as machine-readable JSON.
//   WriteChromeTrace      — the recorded launch/transfer timeline as a
//                           Chrome trace-event JSON (open in
//                           chrome://tracing or Perfetto): devices are
//                           processes, streams are threads, so WS2
//                           pipelining and the φ-sync overlap are visible at
//                           a glance.
//   WriteMergedChromeTrace — simulated-device timeline plus the host's
//                           wall-clock spans (obs::SpanTracer) in one file,
//                           host as its own process.
#pragma once

#include <iosfwd>
#include <span>

#include "gpusim/device.hpp"
#include "gpusim/multi_gpu.hpp"

namespace culda::obs {
class SpanTracer;
}  // namespace culda::obs

namespace culda::gpusim {

/// Prints the per-kernel aggregate profile of `device`.
void PrintProfile(const Device& device, std::ostream& out);

/// The PrintProfile aggregates as one JSON object
/// ({"schema":"culda.profile.v1","device":...,"kernels":{...}}): per-kernel
/// launches, seconds, share of total, off-chip bytes, atomic ops, plus the
/// device's host-link transfer totals.
void WriteProfileJson(const Device& device, std::ostream& out);

/// Machine form: {"schema":...,"peer_bytes":N,"devices":[<per-device
/// objects>]}, one entry per device of every node in node-major order;
/// peer_bytes sums the nodes' intra-node peer traffic.
void WriteProfileJson(std::span<const DeviceGroup> nodes, std::ostream& out);

/// One-node form of the above.
void WriteProfileJson(const DeviceGroup& group, std::ostream& out);

/// Emits the recorded traces of every device in `group` as Chrome
/// trace-event JSON. Devices must have had set_record_trace(true); devices
/// with no recorded events are skipped.
void WriteChromeTrace(const DeviceGroup& group, std::ostream& out);

/// Single-device convenience overload.
void WriteChromeTrace(const Device& device, std::ostream& out);

/// One Chrome trace with both timelines: the recorded kernel / transfer
/// events of every device of every node (pid = device id, unique across
/// nodes; streams as named threads) and the host tracer's wall-clock spans
/// (pid = obs::kHostTracePid). Both timelines start at ~0 — simulated
/// seconds for devices, wall seconds for the host — so trainer phases line
/// up against the kernels they drive.
void WriteMergedChromeTrace(std::span<const DeviceGroup> nodes,
                            const obs::SpanTracer& tracer,
                            std::ostream& out);

/// One-node form of the above.
void WriteMergedChromeTrace(const DeviceGroup& group,
                            const obs::SpanTracer& tracer,
                            std::ostream& out);

}  // namespace culda::gpusim
