// perfbench_selftest — checks the benchmark's own arithmetic and its
// open-loop load generator. perfbench/run.py runs it before every
// benchmark run and stops on a failure.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestOrderStatistics() {
  using namespace perfbench;
  Expect(Near(Median({3, 1, 2}), 2), "median of odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of even count");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q = Quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  Expect(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25),
         "quartiles of 1..10 match statistics.quantiles");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = Quartiles({2, 1});
  Expect(Near(q2[0], 0.75) && Near(q2[1], 1.5) && Near(q2[2], 2.25),
         "quartiles of two samples match statistics.quantiles");
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const auto q3 = Quartiles({16, 8, 4, 2, 1});
  Expect(Near(q3[0], 1.5) && Near(q3[1], 4) && Near(q3[2], 12),
         "quartiles of five samples match statistics.quantiles");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 99), 99), "nearest-rank p99 of 1..100");
  Expect(Near(Percentile(hundred, 50), 50), "nearest-rank p50 of 1..100");
  Expect(Near(Percentile(hundred, 100), 100), "p100 is the maximum");
  Expect(Near(Percentile({5}, 99), 5), "p99 of one sample");
  std::vector<double> with_miss = {1, 2, 3, INFINITY};
  Expect(std::isinf(Percentile(with_miss, 99)),
         "a missing request counts as missing the limit");
  // Crossing of -10 on -12 → -11 → -9 (t = 1, 2, 3): halfway through the
  // third step.
  Expect(Near(CrossingTime(-12, {1, 2, 3}, {-11, -11, -9}, -10), 2.5),
         "crossing time interpolates within the crossing step");
  Expect(CrossingTime(-12, {1, 2}, {-11.5, -11}, -10) < 0,
         "no crossing is reported as negative");
}

/// Answers each request line {"id":"N",...} with {"id":"N","ok":true},
/// stalling `stall_s` before the first answer and never answering `skip`.
void Responder(int fd, double stall_s, long skip) {
  std::string buf;
  char tmp[4096];
  bool stalled = false;
  for (;;) {
    const ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n <= 0) return;
    buf.append(tmp, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!stalled && stall_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
        stalled = true;
      }
      const size_t a = line.find("\"id\":\"") + 6;
      const std::string id = line.substr(a, line.find('"', a) - a);
      if (id == std::to_string(skip)) continue;
      const std::string out = "{\"id\":\"" + id + "\",\"ok\":true}\n";
      if (::write(fd, out.data(), out.size()) < 0) return;
    }
  }
}

perfbench::LoadResult RunAgainst(const perfbench::LoadPlan& plan,
                                 double stall_s, long skip) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    Expect(false, "socketpair");
    return {};
  }
  std::thread peer(Responder, sv[1], stall_s, skip);
  perfbench::LoadResult r;
  try {
    r = perfbench::RunOpenLoop({sv[0]}, -1, plan);
  } catch (const std::exception& e) {
    Expect(false, std::string("RunOpenLoop threw: ") + e.what());
  }
  ::shutdown(sv[0], SHUT_RDWR);
  peer.join();
  ::close(sv[0]);
  ::close(sv[1]);
  return r;
}

void TestOpenLoop() {
  using namespace perfbench;
  const std::vector<double> a = PoissonSchedule(7, 400, 0.5);
  Expect(a == PoissonSchedule(7, 400, 0.5), "schedule is deterministic");
  Expect(a != PoissonSchedule(8, 400, 0.5), "schedule depends on the seed");
  Expect(a.size() > 150 && a.size() < 250, "about rate × duration arrivals");
  Expect(PeriodicSchedule(0.25, 1.0) == std::vector<double>({0.25, 0.5, 0.75}),
         "periodic reload schedule");

  LoadPlan plan;
  plan.due_s = a;
  for (size_t i = 0; i < a.size(); ++i) {
    plan.lines.push_back("{\"id\":\"" + std::to_string(i) + "\"}");
  }
  plan.grace_s = 0.5;
  plan.capture = {0, 3};
  // The same schedule against a prompt peer and one that stalls 150 ms on
  // its first request: the generator keeps sending on time either way
  // (due times do not depend on responses), and the stall shows in the
  // latency of the requests due during it.
  const LoadResult fast = RunAgainst(plan, 0, -1);
  const LoadResult slow = RunAgainst(plan, 0.15, -1);
  for (const LoadResult* r : {&fast, &slow}) {
    Expect(r->sent == a.size() && r->late_s.size() == a.size(),
           "every request is sent");
    Expect(r->ok == a.size() && r->unanswered == 0, "every request answered");
    Expect(Percentile(r->late_s, 99) < 0.02, "the generator keeps schedule");
  }
  Expect(fast.captured.size() == 2 &&
             fast.captured.at(3) == "{\"id\":\"3\",\"ok\":true}",
         "captured responses are kept verbatim");
  Expect(slow.latency_s.front() >= 0.15 - 0.01,
         "latency is measured from the due time, so a stall shows");
  Expect(Percentile(fast.latency_s, 50) < 0.02, "prompt peer is fast");

  const LoadResult missing = RunAgainst(plan, 0, 5);
  Expect(missing.unanswered == 1 && missing.ok == a.size() - 1 &&
             std::isinf(missing.latency_s[5]),
         "an unanswered request is counted and misses every limit");
}

}  // namespace

int main() {
  TestOrderStatistics();
  TestOpenLoop();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
