// Open-loop load generator for the culda_serve daemon.
//
// Arrivals follow a fixed schedule computed before the first request is
// sent: Poisson inter-arrival times from a seeded stream, plus hot-swap
// reloads at a fixed period on their own connection. The schedule never
// looks at responses, so a stalled daemon still receives every request on
// time and its queue grows, which is what an open loop is for. Latency is
// measured from each request's due time, not from when it was written, so
// a stall in the generator itself is charged to the requests it delayed;
// the generator's own lateness (write time minus due time) is reported
// separately.
//
// One thread drives every connection through poll() with non-blocking
// writes, so the generator adds one busy thread to the daemon's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Due times (seconds from the start of the phase) of a Poisson process of
/// `rate` arrivals per second over [0, duration_s). Deterministic in seed.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s);

/// Due times of reloads: period, 2·period, ... below duration_s.
std::vector<double> PeriodicSchedule(double period_s, double duration_s);

struct LoadPlan {
  /// Request lines without their trailing newline, one per due time; each
  /// must carry "id":"<index>" as its first field.
  std::vector<std::string> lines;
  std::vector<double> due_s;         ///< same length as lines
  std::vector<double> reload_due_s;  ///< reloads, sent on reload_fd
  /// Request indices whose raw response line is kept (for bit-identity
  /// checks against the reference path).
  std::vector<size_t> capture;
  /// How long to wait for outstanding responses after the last due time.
  double grace_s = 5.0;
};

struct LoadResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;        ///< answered with error "shed"
  uint64_t errors = 0;      ///< any other error response
  uint64_t unanswered = 0;  ///< no response within the grace period
  /// Per request, in schedule order: receive − due when answered ok,
  /// +infinity when shed, failed or unanswered (a miss of any limit).
  std::vector<double> latency_s;
  std::vector<double> late_s;     ///< every sent request: write − due
  std::vector<double> reload_s;   ///< reload acks: receive − due
  uint64_t reloads_sent = 0;
  uint64_t reloads_failed = 0;    ///< error reply or no reply
  std::map<size_t, std::string> captured;  ///< index → raw response line
};

/// Runs `plan` over already-connected stream sockets: request i goes to
/// infer_fds[i % infer_fds.size()], reloads to reload_fd (-1 = none). The
/// file descriptors stay open and owned by the caller. Throws on a broken
/// connection.
LoadResult RunOpenLoop(const std::vector<int>& infer_fds, int reload_fd,
                       const LoadPlan& plan);

}  // namespace perfbench
