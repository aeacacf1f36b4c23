#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/philox.hpp"

namespace perfbench {

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s) {
  if (!(rate > 0)) throw std::invalid_argument("rate must be positive");
  culda::PhiloxStream rng(seed, 0x10AD);
  std::vector<double> due;
  double t = 0;
  for (;;) {
    // 1 − U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<double> PeriodicSchedule(double period_s, double duration_s) {
  std::vector<double> due;
  if (!(period_s > 0)) return due;
  for (int i = 1; i * period_s < duration_s; ++i) due.push_back(i * period_s);
  return due;
}

namespace {

using Clock = std::chrono::steady_clock;

struct Conn {
  int fd = -1;
  int saved_flags = 0;
  std::string out;
  size_t out_off = 0;
  std::string in;
};

void WriteSome(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    c.out_off += static_cast<size_t>(n);
  }
  c.out.clear();
  c.out_off = 0;
}

/// Reads what is available; returns false on EOF.
bool ReadSome(Conn& c) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("read: ") + std::strerror(errno));
  }
}

/// The id of a response line ({"id":"...", ...}); empty if it has none.
std::string_view ResponseId(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"id\":\"";
  if (line.substr(0, kPrefix.size()) != kPrefix) return {};
  const size_t end = line.find('"', kPrefix.size());
  if (end == std::string_view::npos) return {};
  return line.substr(kPrefix.size(), end - kPrefix.size());
}

}  // namespace

LoadResult RunOpenLoop(const std::vector<int>& infer_fds, int reload_fd,
                       const LoadPlan& plan) {
  if (infer_fds.empty()) throw std::invalid_argument("no connections");
  if (plan.lines.size() != plan.due_s.size()) {
    throw std::invalid_argument("one due time per request line");
  }
  std::vector<Conn> conns;
  for (const int fd : infer_fds) conns.emplace_back().fd = fd;
  if (reload_fd >= 0) conns.emplace_back().fd = reload_fd;
  for (Conn& c : conns) {
    c.saved_flags = ::fcntl(c.fd, F_GETFL);
    ::fcntl(c.fd, F_SETFL, c.saved_flags | O_NONBLOCK);
  }
  const size_t n_infer = infer_fds.size();
  const size_t n_req = plan.lines.size();

  LoadResult res;
  res.latency_s.assign(n_req, std::numeric_limits<double>::infinity());
  std::vector<char> captured_flag(n_req, 0);
  for (const size_t i : plan.capture) {
    if (i < n_req) captured_flag[i] = 1;
  }
  std::vector<char> answered(n_req, 0);
  std::vector<char> reload_answered(plan.reload_due_s.size(), 0);
  uint64_t answered_count = 0, reload_acks = 0;
  size_t next = 0, next_reload = 0;
  double last_due = 0;
  if (!plan.due_s.empty()) last_due = plan.due_s.back();
  if (!plan.reload_due_s.empty()) {
    last_due = std::max(last_due, plan.reload_due_s.back());
  }

  const Clock::time_point t0 = Clock::now();
  const auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  const auto handle_line = [&](std::string_view line, double t) {
    const std::string_view id = ResponseId(line);
    if (id.empty()) return;
    const std::string_view rest = line.substr(7 + id.size());
    const bool ok = rest.substr(0, 11) == "\",\"ok\":true";
    if (id[0] == 'r') {
      const size_t r = std::stoul(std::string(id.substr(1)));
      if (r >= reload_answered.size() || reload_answered[r]) return;
      reload_answered[r] = 1;
      ++reload_acks;
      if (ok) {
        res.reload_s.push_back(t - plan.reload_due_s[r]);
      } else {
        ++res.reloads_failed;
      }
      return;
    }
    const size_t i = std::stoul(std::string(id));
    if (i >= n_req || answered[i]) return;
    answered[i] = 1;
    ++answered_count;
    if (ok) {
      ++res.ok;
      res.latency_s[i] = t - plan.due_s[i];
    } else if (line.find("\"error\":\"shed\"") != std::string_view::npos) {
      ++res.shed;
    } else {
      ++res.errors;
    }
    if (captured_flag[i]) res.captured[i] = std::string(line);
  };

  std::vector<pollfd> fds(conns.size());
  for (;;) {
    double now = now_s();
    while (next < n_req && plan.due_s[next] <= now) {
      Conn& c = conns[next % n_infer];
      c.out += plan.lines[next];
      c.out += '\n';
      res.late_s.push_back(now - plan.due_s[next]);
      ++next;
      ++res.sent;
    }
    while (reload_fd >= 0 && next_reload < plan.reload_due_s.size() &&
           plan.reload_due_s[next_reload] <= now) {
      conns.back().out += "{\"op\":\"reload\",\"id\":\"r" +
                          std::to_string(next_reload) + "\"}\n";
      ++next_reload;
      ++res.reloads_sent;
    }
    for (Conn& c : conns) WriteSome(c);

    const bool all_sent =
        next == n_req &&
        (reload_fd < 0 || next_reload == plan.reload_due_s.size());
    if (all_sent && answered_count == res.sent &&
        reload_acks == res.reloads_sent) {
      break;
    }
    if (all_sent && now > last_due + plan.grace_s) break;

    double wait_s = plan.grace_s;
    if (next < n_req) wait_s = plan.due_s[next] - now;
    if (reload_fd >= 0 && next_reload < plan.reload_due_s.size()) {
      wait_s = std::min(wait_s, plan.reload_due_s[next_reload] - now);
    }
    if (all_sent) wait_s = std::min(wait_s, last_due + plan.grace_s - now);
    wait_s = std::max(wait_s, 0.0);
    for (size_t k = 0; k < conns.size(); ++k) {
      fds[k].fd = conns[k].fd;
      fds[k].events = POLLIN;
      if (!conns[k].out.empty()) fds[k].events |= POLLOUT;
      fds[k].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    if (rc <= 0) continue;
    now = now_s();
    for (size_t k = 0; k < conns.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[k];
      const bool open = ReadSome(c);
      size_t start = 0;
      for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        handle_line(std::string_view(c.in).substr(start, nl - start), now);
      }
      c.in.erase(0, start);
      if (!open) throw std::runtime_error("daemon closed a connection");
    }
  }
  for (Conn& c : conns) ::fcntl(c.fd, F_SETFL, c.saved_flags);
  res.unanswered = res.sent - answered_count;
  res.reloads_failed += res.reloads_sent - reload_acks;
  return res;
}

}  // namespace perfbench
