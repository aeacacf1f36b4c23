// perfbench_driver — runs one benchmark workload and prints its metrics.
//
// Every workload is the same user journey with different settings: generate
// a seeded synthetic corpus and train a model on it (repeated trials with
// the same seed, which must agree bit for bit), interleaved with serving the
// trained model through the shipped culda_serve daemon under open-loop load
// with periodic hot-swap reloads. perfbench/run.py builds this binary, passes the
// workload's settings from perfbench/workloads.json as flags, and checks
// the metric names against BENCHMARK.json. perfbench/METRICS.md defines
// every metric.
//
// With --trace=0 the run reports the end-to-end metrics with every form of
// tracing off. With --trace=1 it runs the same journey twice, plain and
// traced (the benchmark's own spans around each call into a culda module,
// plus the program's observability plane), and reports per-layer metrics:
// serving latency and the rate ladder of the plain pass, layer timings, a
// replay of one sweep's kernels, an inline (no worker pool) training pass
// and direct calls into inference, snapshot and model I/O.
//
// The last line of stdout is the result object; the exit code is 0 only
// when every correctness check passed.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels.hpp"
#include "core/model_io.hpp"
#include "core/snapshot.hpp"
#include "core/sync.hpp"
#include "core/trainer.hpp"
#include "corpus/chunking.hpp"
#include "corpus/split.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/word_first.hpp"
#include "dist/cluster.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/multi_gpu.hpp"
#include "loadgen.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace culda;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs fn and returns its wall time in seconds.
template <typename Fn>
double Timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

// --- Settings ----------------------------------------------------------------

struct Settings {
  // Per run (run.py).
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string serve_bin;
  std::string run_dir;

  // Per workload (perfbench/workloads.json).
  /// What setup_s and peak_rss_mb describe: the trainer ("train") or the
  /// daemon ("serve").
  std::string primary;
  std::string corpus;  ///< nytimes | pubmed
  double scale = 0;
  double heldout_frac = 0;
  uint32_t nodes = 1;  ///< > 1 = ClusterTrainer, async shard circulation
  std::string sampler;
  double ll_target = 0;
  double ll_reference = 0;
  std::string serve_sampler;
  uint32_t serve_iters = 0;
  double rate = 0;  ///< offered requests per second
  double segment_share = 0;  ///< of --seconds, per serving segment
  double reload_period_s = 0;

  // The same on every workload; recorded in the settings line.
  uint32_t topics = 256;
  uint32_t gpus = 2;     ///< per node
  uint32_t workers = 3;  ///< trainer pool; with the calling thread, nproc
  uint32_t sweeps = 40;
  uint32_t warmup = 5;
  double ll_tolerance = 0.1;
  /// Training trials (which must agree bit for bit) interleaved with
  /// serving segments: medians over interleaved repeats ride out the
  /// host's slow spells.
  uint32_t trials = 3;
  uint32_t segments = 3;
  uint32_t setup_launches = 3;
  uint32_t serve_workers = 2;  ///< with dispatch and load generator, nproc
  double serve_max_wait_ms = 2;
  double min_samples = 1100;  ///< per segment, so p99 has 10+ beyond it
  double p99_limit_ms = 25;
  double ladder_factor = 1.25;
  uint32_t max_rungs = 10;
  uint32_t bisections = 3;
  double rung_s = 1.0;
  double min_rung_samples = 500;

  uint32_t total_gpus() const { return gpus * nodes; }
  bool cluster() const { return nodes > 1; }
  double segment_s() const {
    return std::max(segment_share * seconds, min_samples / rate);
  }
  core::TrainSampler train_sampler() const {
    return sampler == "alias-mh" ? core::TrainSampler::kAliasMH
                                 : core::TrainSampler::kTree;
  }
};

Settings ParseSettings(const CliFlags& f) {
  Settings s;
  s.workload = f.GetString("workload", "");
  s.seed = static_cast<uint64_t>(f.GetInt("seed", 1));
  s.seconds = f.GetDouble("seconds", 20);
  s.trace = f.GetInt("trace", 0) != 0;
  s.serve_bin = f.GetString("serve-bin", "");
  s.run_dir = f.GetString("run-dir", "");
  s.primary = f.GetString("primary", "train");
  s.corpus = f.GetString("corpus", "nytimes");
  s.scale = f.GetDouble("scale", 0.0085);
  s.heldout_frac = f.GetDouble("heldout-frac", 0.4);
  s.nodes = static_cast<uint32_t>(f.GetInt("nodes", 1));
  s.sampler = f.GetString("sampler", "tree");
  s.ll_target = f.GetDouble("ll-target", -10);
  s.ll_reference = f.GetDouble("ll-reference", -9.75);
  s.serve_sampler = f.GetString("serve-sampler", "sparse");
  s.serve_iters = static_cast<uint32_t>(f.GetInt("serve-iters", 5));
  s.rate = f.GetDouble("rate", 300);
  s.segment_share = f.GetDouble("segment-share", 0.1);
  s.reload_period_s = f.GetDouble("reload-period-s", 1.0);

  CULDA_CHECK_MSG(!s.workload.empty(), "--workload is required");
  CULDA_CHECK_MSG(!s.serve_bin.empty(), "--serve-bin is required");
  CULDA_CHECK_MSG(!s.run_dir.empty(), "--run-dir is required");
  CULDA_CHECK_MSG(s.seconds > 0, "--seconds must be positive");
  CULDA_CHECK_MSG(s.primary == "train" || s.primary == "serve",
                  "--primary must be train or serve");
  CULDA_CHECK_MSG(s.corpus == "nytimes" || s.corpus == "pubmed",
                  "--corpus must be nytimes or pubmed");
  CULDA_CHECK_MSG(s.sampler == "tree" || s.sampler == "alias-mh",
                  "--sampler must be tree or alias-mh");
  CULDA_CHECK_MSG(s.nodes >= 1, "--nodes must be >= 1");
  CULDA_CHECK_MSG(s.rate > 0, "--rate must be positive");
  return s;
}

// --- Results -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Collects metrics, failed checks and operation counts for the result line.
class Report {
 public:
  void Add(std::string name, std::string unit, double value) {
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({std::move(name), std::move(unit), value});
  }
  /// A per-layer metric this workload has no such layer for: reported as 0
  /// so the result carries every name, with the reason printed beside it.
  void Unavailable(std::string name, std::string unit, const std::string& why) {
    std::printf("unavailable %s: %s\n", name.c_str(), why.c_str());
    metrics_.push_back({std::move(name), std::move(unit), 0.0});
  }
  void Check(bool ok, const std::string& what) {
    std::printf("check %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failed_checks_;
  }
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ops_ += n; }

  bool correct() const { return failed_checks_ == 0; }

  std::string ResultLine() const {
    obs::JsonObject metrics;
    for (const Metric& m : metrics_) {
      obs::JsonObject one;
      one.Add("value", m.value).Add("unit", m.unit);
      metrics.AddRaw(m.name, one.str());
    }
    obs::JsonObject out;
    out.Add("correct", correct())
        .Add("attempted", attempted_)
        .Add("failed", failed_ops_ + failed_checks_)
        .AddRaw("metrics", metrics.str());
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ops_ = 0;
  uint64_t failed_checks_ = 0;
};

/// Prints one "<tag> {json}" record line.
void Record(const char* tag, const obs::JsonObject& obj) {
  std::printf("%s %s\n", tag, obj.str().c_str());
}

uint64_t Fnv1a(std::span<const uint16_t> v) {
  uint64_t h = 1469598103934665603ull;
  for (const uint16_t x : v) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

double PeakRssMbSelf() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Training ----------------------------------------------------------------

/// Either trainer behind one sweep-level interface.
class Trainer {
 public:
  Trainer(const corpus::Corpus& c, const Settings& s, ThreadPool* pool) {
    core::CuldaConfig cfg;
    cfg.num_topics = s.topics;
    cfg.seed = s.seed;
    if (s.cluster()) {
      dist::ClusterOptions o;
      o.num_nodes = s.nodes;
      o.gpus.assign(s.gpus, gpusim::V100Volta());
      o.network = gpusim::Ethernet10G();
      o.mode = dist::DistMode::kAsync;
      o.sampler = s.train_sampler();
      o.pool = pool;
      cluster_ = std::make_unique<dist::ClusterTrainer>(c, cfg, o);
    } else {
      core::TrainerOptions o;
      o.gpus.assign(s.gpus, gpusim::V100Volta());
      o.chunks_per_gpu = 1;  // WorkSchedule1
      o.sampler = s.train_sampler();
      o.pool = pool;
      single_ = std::make_unique<core::CuldaTrainer>(c, cfg, o);
    }
  }

  /// One sweep: returns {host wall seconds, simulated seconds}.
  std::pair<double, double> Step() {
    if (cluster_) {
      dist::SweepStats st;
      const double wall = Timed([&] { st = cluster_->Sweep(); });
      return {wall, st.sim_seconds};
    }
    core::IterationStats st;
    const double wall = Timed([&] { st = single_->Step(); });
    return {wall, st.sim_seconds};
  }
  double LogLikelihoodPerToken() const {
    return cluster_ ? cluster_->LogLikelihoodPerToken()
                    : single_->LogLikelihoodPerToken();
  }
  core::GatheredModel Gather() const {
    return cluster_ ? cluster_->Gather() : single_->Gather();
  }
  std::vector<uint16_t> ExportAssignments() const {
    return cluster_ ? cluster_->ExportAssignments()
                    : single_->ExportAssignments();
  }
  const dist::ClusterTrainer* cluster() const { return cluster_.get(); }

 private:
  std::unique_ptr<core::CuldaTrainer> single_;
  std::unique_ptr<dist::ClusterTrainer> cluster_;
};

struct Trial {
  double generate_s = 0;
  double init_s = 0;
  std::vector<double> sweep_wall;
  std::vector<double> sweep_sim;
  std::vector<double> eval_s;
  double wall_to_target = -1;
  double sim_to_target = -1;
  double final_ll = 0;
  double sim_total = 0;
  uint64_t checksum = 0;
  bool valid = false;  ///< GatheredModel::Validate held
  uint32_t max_staleness = 0;
  double fabric_payload = 0, fabric_wire = 0, fabric_transfers = 0;
  /// Kept from the first trial only: the data the serving phase and the
  /// replay need.
  std::shared_ptr<corpus::CorpusSplit> split;
  std::shared_ptr<core::GatheredModel> model;
  std::vector<uint16_t> z_mid;   ///< assignments after sweeps/2
  std::vector<uint16_t> z_next;  ///< ... and one sweep later
  uint32_t mid_sweep = 0;
};

corpus::SyntheticProfile Profile(const Settings& s) {
  corpus::SyntheticProfile p = s.corpus == "pubmed"
                                   ? corpus::PubMedProfile(s.scale)
                                   : corpus::NyTimesProfile(s.scale);
  p.seed = s.seed;
  return p;
}

/// One training trial of s.sweeps sweeps; `keep` retains the data the
/// serving phase and the kernel replay need.
Trial RunTrial(const Settings& s, ThreadPool* pool, bool keep) {
  const uint32_t sweeps = s.sweeps;
  Trial t;
  auto split = std::make_shared<corpus::CorpusSplit>();
  t.generate_s = Timed([&] {
    obs::ScopedSpan span("corpus/generate");
    const corpus::Corpus full = corpus::GenerateCorpus(Profile(s));
    *split = corpus::SplitByDocuments(full, s.heldout_frac, s.seed);
  });
  std::unique_ptr<Trainer> trainer;
  t.init_s = Timed([&] {
    obs::ScopedSpan span(s.cluster() ? "dist/cluster.init"
                                     : "core/trainer.init");
    trainer = std::make_unique<Trainer>(split->train, s, pool);
  });
  const auto eval = [&] {
    double ll = 0;
    t.eval_s.push_back(Timed([&] {
      obs::ScopedSpan span("core/evaluator.loglik");
      ll = trainer->LogLikelihoodPerToken();
    }));
    return ll;
  };

  // Likelihood is evaluated between sweeps, outside the timed region, until
  // the target is crossed; the crossing is interpolated within its sweep.
  std::vector<double> cum_wall, cum_sim, ll_after;
  const double ll0 = eval();
  t.mid_sweep = sweeps / 2;
  for (uint32_t i = 0; i < sweeps; ++i) {
    std::pair<double, double> st;
    {
      obs::ScopedSpan span(s.cluster() ? "dist/cluster.sweep"
                                       : "core/trainer.step");
      st = trainer->Step();
    }
    t.sweep_wall.push_back(st.first);
    t.sweep_sim.push_back(st.second);
    if (keep && i + 1 == t.mid_sweep) t.z_mid = trainer->ExportAssignments();
    if (keep && i == t.mid_sweep) t.z_next = trainer->ExportAssignments();
    if (t.wall_to_target < 0) {
      cum_wall.push_back((cum_wall.empty() ? 0 : cum_wall.back()) + st.first);
      cum_sim.push_back((cum_sim.empty() ? 0 : cum_sim.back()) + st.second);
      ll_after.push_back(eval());
      if (ll_after.back() >= s.ll_target) {
        t.wall_to_target = CrossingTime(ll0, cum_wall, ll_after, s.ll_target);
        t.sim_to_target = CrossingTime(ll0, cum_sim, ll_after, s.ll_target);
      }
    }
  }
  t.final_ll = eval();
  for (const double x : t.sweep_sim) t.sim_total += x;
  auto model = std::make_shared<core::GatheredModel>(trainer->Gather());
  try {
    model->Validate(split->train);
    t.valid = true;
  } catch (const std::exception& e) {
    std::printf("note GatheredModel::Validate: %s\n", e.what());
  }
  t.checksum = Fnv1a(trainer->ExportAssignments());
  if (const dist::ClusterTrainer* c = trainer->cluster()) {
    t.max_staleness = c->max_observed_staleness();
    t.fabric_payload = static_cast<double>(c->fabric().payload_bytes());
    t.fabric_wire = static_cast<double>(c->fabric().wire_bytes());
    t.fabric_transfers = static_cast<double>(c->fabric().transfer_count());
  }
  if (keep) {
    t.split = std::move(split);
    t.model = std::move(model);
  }
  return t;
}

/// Median sweep wall time over sweeps [from, to) of every trial.
double MedianSweepWall(const std::vector<Trial>& trials, uint32_t from,
                       uint32_t to) {
  std::vector<double> v;
  for (const Trial& t : trials) {
    for (uint32_t i = from; i < to && i < t.sweep_wall.size(); ++i) {
      v.push_back(t.sweep_wall[i]);
    }
  }
  return Median(v);
}

void CheckTraining(const Settings& s, const std::vector<Trial>& trials,
                   Report& rep) {
  const Trial& first = trials.front();
  bool valid = true, same = true, crossed = true;
  uint32_t staleness = 0;
  for (const Trial& t : trials) {
    valid = valid && t.valid;
    same = same && t.checksum == first.checksum &&
           t.sim_total == first.sim_total && t.final_ll == first.final_ll;
    crossed = crossed && t.wall_to_target >= 0;
    staleness = std::max(staleness, t.max_staleness);
  }
  rep.Check(valid, "GatheredModel::Validate holds after every trial");
  rep.Check(same, "trials with one seed agree: assignment checksum, "
                  "simulated seconds and log-likelihood");
  rep.Check(crossed, "every trial reaches the log-likelihood target " +
                         obs::JsonNumber(s.ll_target));
  const double dev = std::fabs(first.final_ll - s.ll_reference);
  rep.Check(dev <= s.ll_tolerance,
            "log-likelihood " + obs::JsonNumber(first.final_ll) +
                " within " + obs::JsonNumber(s.ll_tolerance) +
                " of the reference " + obs::JsonNumber(s.ll_reference));
  if (s.cluster()) {
    rep.Check(staleness <= s.nodes - 1,
              "async staleness " + std::to_string(staleness) +
                  " <= N-1 = " + std::to_string(s.nodes - 1));
  }
}

// --- Serving -----------------------------------------------------------------

/// One culda_serve daemon process on an AF_UNIX socket.
class Daemon {
 public:
  Daemon(const Settings& s, const std::string& model_path,
         const std::string& tag, bool traced)
      : socket_path_(s.run_dir + "/" + tag + ".sock") {
    ::unlink(socket_path_.c_str());
    std::vector<std::string> args = {
        s.serve_bin,
        "--model=" + model_path,
        "--socket=" + socket_path_,
        "--workers=" + std::to_string(s.serve_workers),
        "--sampler=" + s.serve_sampler,
        "--iters=" + std::to_string(s.serve_iters),
        "--max-wait-ms=" + obs::JsonNumber(s.serve_max_wait_ms),
        "--quiet"};
    if (traced) {
      args.push_back("--metrics-out=" + s.run_dir + "/" + tag +
                     "-metrics.jsonl");
      args.push_back("--trace-out=" + s.run_dir + "/" + tag + "-trace.json");
    }
    const std::string log = s.run_dir + "/" + tag + ".log";
    pid_ = Spawn(args, "/dev/null", log);
    spawned_ = Clock::now();
  }

  ~Daemon() {
    try {
      Stop();
    } catch (...) {
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns argv with stdin/stdout redirected to files (stderr joins
  /// stdout); returns the child's pid.
  static pid_t Spawn(const std::vector<std::string>& args,
                     const std::string& in_path,
                     const std::string& out_path) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, in_path.c_str(), O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    CULDA_CHECK_MSG(rc == 0, "cannot start " << args[0] << ": "
                                             << std::strerror(rc));
    return pid;
  }

  /// Waits for `pid` up to timeout_s, then kills it. Returns the exit code
  /// (-1 if it had to be killed or died from a signal).
  static int Reap(pid_t pid, double timeout_s) {
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) break;
      if (r < 0) return -1;
      if (SecondsSince(t0) > timeout_s) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Connects to the daemon's socket, retrying until it listens.
  int Connect(double timeout_s = 60) {
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      CULDA_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      CULDA_CHECK_MSG(socket_path_.size() < sizeof(addr.sun_path),
                      "socket path too long: " << socket_path_);
      std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size());
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        fds_.push_back(fd);
        return fd;
      }
      ::close(fd);
      int status = 0;
      CULDA_CHECK_MSG(::waitpid(pid_, &status, WNOHANG) == 0,
                      "culda_serve exited before listening (see its log)");
      CULDA_CHECK_MSG(SecondsSince(spawned_) < timeout_s,
                      "culda_serve did not listen within " << timeout_s
                                                           << " s");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  /// Sends one line and reads one response line (blocking, with timeout).
  static std::string Request(int fd, const std::string& line,
                             double timeout_s = 60) {
    const std::string out = line + "\n";
    CULDA_CHECK_MSG(::send(fd, out.data(), out.size(), MSG_NOSIGNAL) ==
                        static_cast<ssize_t>(out.size()),
                    "send to culda_serve failed");
    std::string in;
    char c;
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      pollfd p{fd, POLLIN, 0};
      CULDA_CHECK_MSG(SecondsSince(t0) < timeout_s,
                      "culda_serve did not answer within " << timeout_s
                                                           << " s");
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t n = ::read(fd, &c, 1);
      CULDA_CHECK_MSG(n == 1, "culda_serve closed the connection");
      if (c == '\n') return in;
      in += c;
    }
  }

  /// Seconds from launch until the first successful response to `line`.
  double ReadyAfter(const std::string& line) {
    const int fd = Connect();
    const std::string resp = Request(fd, line);
    CULDA_CHECK_MSG(resp.find("\"ok\":true") != std::string::npos,
                    "first request failed: " << resp);
    return SecondsSince(spawned_);
  }

  /// Peak resident set of the daemon (VmHWM), MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    double kb = 0;
    while (in >> key) {
      if (key == "VmHWM:") {
        in >> kb;
        break;
      }
    }
    return kb / 1024.0;
  }

  /// Graceful drain; returns the daemon's exit code.
  int Stop() {
    if (pid_ <= 0) return 0;
    if (!fds_.empty()) {
      const std::string drain = "{\"op\":\"drain\"}\n";
      (void)!::send(fds_.front(), drain.data(), drain.size(), MSG_NOSIGNAL);
    } else {
      ::kill(pid_, SIGTERM);
    }
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
    const int rc = Reap(pid_, 30);
    pid_ = -1;
    ::unlink(socket_path_.c_str());
    return rc;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  Clock::time_point spawned_;
  std::vector<int> fds_;
};

/// Pre-rendered request bodies: "words":[...] per held-out document.
std::vector<std::string> RenderDocs(const corpus::Corpus& heldout) {
  std::vector<std::string> docs;
  for (size_t d = 0; d < heldout.num_docs(); ++d) {
    const auto toks = heldout.DocTokens(d);
    if (toks.empty()) continue;
    std::string w = "\"words\":[";
    for (size_t i = 0; i < toks.size(); ++i) {
      if (i) w += ',';
      w += std::to_string(toks[i]);
    }
    w += ']';
    docs.push_back(std::move(w));
  }
  CULDA_CHECK_MSG(!docs.empty(), "no held-out documents to serve");
  return docs;
}

/// A plan of `rate` requests/s for `duration_s`. Every phase draws the
/// documents in the same order, so phases differ only in rate; every
/// request gets its own inference seed.
LoadPlan MakePlan(const Settings& s, const std::vector<std::string>& docs,
                  uint64_t phase, double rate, double duration_s) {
  LoadPlan plan;
  plan.due_s = PoissonSchedule(s.seed * 1000 + phase, rate, duration_s);
  plan.reload_due_s = PeriodicSchedule(s.reload_period_s, duration_s);
  for (size_t i = 0; i < plan.due_s.size(); ++i) {
    plan.lines.push_back("{\"id\":\"" + std::to_string(i) + "\"," +
                         docs[i % docs.size()] +
                         ",\"seed\":" + std::to_string(phase * 1000000 + i) +
                         "}");
  }
  return plan;
}

/// Extracts the number after "<key>": inside the object that follows
/// "<name>": in a stats payload; NaN when absent.
double StatsField(const std::string& json, const std::string& name,
                  const std::string& key) {
  const size_t at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) return std::nan("");
  const size_t end = json.find('}', at);
  const size_t k = json.find("\"" + key + "\":", at);
  if (k == std::string::npos || k > end) return std::nan("");
  return std::strtod(json.c_str() + k + key.size() + 3, nullptr);
}

std::string StripGeneration(std::string line) {
  const size_t at = line.find("\"generation\":");
  if (at == std::string::npos) return line;
  size_t end = at + 13;
  while (end < line.size() && std::isdigit(static_cast<unsigned char>(line[end]))) ++end;
  if (end < line.size() && line[end] == ',') ++end;
  return line.erase(at, end - at);
}

/// Runs the bit-identity reference: the captured requests through
/// culda_serve --oneshot, compared with the daemon's responses apart from
/// the "generation" tag. Returns the number of mismatches.
size_t CompareWithOneshot(const Settings& s, const std::string& model_path,
                          const LoadPlan& plan, const LoadResult& res) {
  const std::string in_path = s.run_dir + "/oneshot-in.jsonl";
  const std::string out_path = s.run_dir + "/oneshot-out.jsonl";
  {
    std::ofstream in(in_path, std::ios::trunc);
    for (const auto& [i, line] : res.captured) in << plan.lines[i] << "\n";
  }
  const pid_t pid = Daemon::Spawn(
      {s.serve_bin, "--model=" + model_path, "--oneshot",
       "--workers=" + std::to_string(s.serve_workers),
       "--sampler=" + s.serve_sampler,
       "--iters=" + std::to_string(s.serve_iters), "--quiet"},
      in_path, out_path);
  const int rc = Daemon::Reap(pid, 120);
  CULDA_CHECK_MSG(rc == 0, "culda_serve --oneshot exited with " << rc);
  std::ifstream out(out_path);
  std::string line;
  size_t mismatches = 0;
  auto it = res.captured.begin();
  while (it != res.captured.end() && std::getline(out, line)) {
    if (StripGeneration(line) != StripGeneration(it->second)) ++mismatches;
    ++it;
  }
  mismatches += static_cast<size_t>(std::distance(it, res.captured.end()));
  return mismatches;
}

/// One daemon under test: set-up launches, fixed-rate segments (with
/// hot-swap reloads), an optional rate ladder, then the bit-identity check.
class ServeSession {
 public:
  ServeSession(const Settings& s, std::string model_path,
               const corpus::Corpus& heldout, bool traced, Report& rep)
      : s_(s),
        rep_(rep),
        model_path_(std::move(model_path)),
        docs_(RenderDocs(heldout)) {
    const std::string probe =
        "{\"id\":\"probe\"," + docs_.front() + ",\"seed\":1}";
    // Set-up: launch → first successful response, several launches; the
    // last daemon stays up.
    for (uint32_t i = 0; i < s.setup_launches; ++i) {
      if (daemon_) Stop();
      obs::ScopedSpan launch("serve/daemon.launch");
      daemon_ = std::make_unique<Daemon>(s, model_path_,
                                         traced ? "traced" : "plain", traced);
      setup_s.push_back(daemon_->ReadyAfter(probe));
    }
    infer_fds_ = {daemon_->Connect(), daemon_->Connect()};
    reload_fd_ = daemon_->Connect();
  }

  /// One fixed-rate segment with reloads on their own connection.
  void Segment() {
    obs::ScopedSpan load("serve/loadgen.segment");
    LoadPlan plan = MakePlan(s_, docs_, phase_++, s_.rate, s_.segment_s());
    const bool first = seg_p50.empty();
    for (size_t i = 0; first && i < plan.lines.size() && plan.capture.size() < 64;
         i += 7) {
      plan.capture.push_back(i);
    }
    LoadResult r = RunOpenLoop(infer_fds_, reload_fd_, plan);
    rep_.Attempted(r.sent + r.reloads_sent);
    rep_.Failed(r.shed + r.errors + r.unanswered + r.reloads_failed);
    rep_.Check(r.shed + r.errors + r.unanswered == 0,
               "segment: " + std::to_string(r.sent) +
                   " requests sent, none shed, failed or unanswered");
    rep_.Check(r.reloads_failed == 0,
               std::to_string(r.reloads_sent) + " reloads acknowledged");
    samples = r.latency_s.size();
    seg_p50.push_back(Percentile(r.latency_s, 50) * 1e3);
    seg_p99.push_back(Percentile(r.latency_s, 99) * 1e3);
    seg_late_p99.push_back(Percentile(r.late_s, 99) * 1e3);
    seg_reload.push_back(Median(r.reload_s) * 1e3);
    if (first) {
      reference_plan_ = std::move(plan);
      reference_ = std::move(r);
    }
  }

  /// The daemon's own serving counters ({"op":"stats"}; traced daemons).
  void ReadStats() {
    const std::string stats =
        Daemon::Request(reload_fd_, "{\"op\":\"stats\",\"id\":\"stats\"}");
    queue_wait_p99_ms = StatsField(stats, "serve.queue.wait", "p99") * 1e3;
    batch_size_mean = StatsField(stats, "serve.batch.size", "mean");
    shed = StatsField(stats, "serve.shed.count", "value");
    if (std::isnan(shed)) shed = 0;  // nothing shed: the counter never made
  }

  /// Stepped rate ladder, without reloads: a rung at the offered rate, then
  /// rungs ladder_factor apart, upward while they meet the limit (downward
  /// otherwise) until the verdict flips, then rungs bisecting
  /// (geometrically) the gap between the highest pass and the lowest fail.
  /// A rung passes when p99 (misses included) meets the limit and the
  /// backlog did not grow: the last quarter of its requests still had a
  /// median latency within the limit.
  void Ladder() {
    const double limit_s = s_.p99_limit_ms / 1e3;
    const auto run_rung = [&](double mult) {
      obs::ScopedSpan load("serve/loadgen.rung");
      const double rate = s_.rate * mult;
      LoadPlan plan = MakePlan(s_, docs_, phase_++, rate,
                               std::max(s_.rung_s, s_.min_rung_samples / rate));
      plan.reload_due_s.clear();  // the ladder measures the read path alone
      plan.grace_s = 2.0;
      const LoadResult r = RunOpenLoop(infer_fds_, reload_fd_, plan);
      const std::vector<double>& v = r.latency_s;
      const bool ok =
          !v.empty() && Percentile(v, 99) <= limit_s &&
          Median(std::vector<double>(v.end() - (v.size() + 3) / 4, v.end())) <=
              limit_s;
      std::printf("rung %.3fx %.1f req/s: %s (p99 %.2f ms, %llu sent)\n", mult,
                  rate, ok ? "pass" : "fail", Percentile(v, 99) * 1e3,
                  static_cast<unsigned long long>(r.sent));
      return ok;
    };
    const bool base_ok = run_rung(1.0);
    double lo = base_ok ? 1.0 : 0.0;  // highest passing multiple of the rate
    double hi = base_ok ? 0.0 : 1.0;  // lowest failing multiple
    double mult = 1.0;
    for (uint32_t i = 0; i < s_.max_rungs && (lo == 0 || hi == 0); ++i) {
      mult = base_ok ? mult * s_.ladder_factor : mult / s_.ladder_factor;
      (run_rung(mult) ? lo : hi) = mult;
    }
    for (uint32_t i = 0; i < s_.bisections && lo > 0 && hi > 0; ++i) {
      const double mid = std::sqrt(lo * hi);
      (run_rung(mid) ? lo : hi) = mid;
    }
    rep_.Check(lo > 0, "some rung meets p99 <= " +
                           obs::JsonNumber(s_.p99_limit_ms) + " ms");
    rep_.Check(hi > 0, "the ladder reached a failing rung within " +
                           std::to_string(s_.max_rungs) + " rungs");
    max_rps = s_.rate * lo;
  }

  /// Drains the daemon and checks the first segment's sampled responses
  /// against culda_serve --oneshot.
  void Finish() {
    peak_rss_mb = daemon_->PeakRssMb();
    Stop();
    const size_t mismatches =
        CompareWithOneshot(s_, model_path_, reference_plan_, reference_);
    rep_.Check(mismatches == 0 && reference_.captured.size() ==
                                      reference_plan_.capture.size(),
               std::to_string(reference_.captured.size()) +
                   " daemon responses byte-identical to --oneshot apart "
                   "from generation (" + std::to_string(mismatches) +
                   " differ)");
    rep_.Failed(mismatches);
  }

  std::vector<double> setup_s;
  std::vector<double> seg_p50, seg_p99, seg_reload, seg_late_p99;
  size_t samples = 0;  ///< per segment
  double max_rps = 0;  ///< Ladder() only
  double peak_rss_mb = 0;
  double queue_wait_p99_ms = 0, batch_size_mean = 0, shed = 0;

 private:
  void Stop() {
    rep_.Check(daemon_->Stop() == 0, "culda_serve drains and exits 0");
  }

  const Settings& s_;
  Report& rep_;
  std::string model_path_;
  std::vector<std::string> docs_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<int> infer_fds_;
  int reload_fd_ = -1;
  uint64_t phase_ = 1;
  LoadPlan reference_plan_;
  LoadResult reference_;
};

// --- Kernel replay (traced runs) -----------------------------------------------

struct KernelTotals {
  double host_s = 0;
  double sim_s = 0;
  gpusim::KernelCounters counters;
  void Add(double host, const gpusim::KernelRecord& rec) {
    host_s += host;
    sim_s += rec.time.total_s;
    counters += rec.counters;
  }
};

struct Replay {
  double layout_s = 0;
  double imbalance = 0;
  KernelTotals sampling, update_phi, update_theta, compute_nk;
  double zero_phi_sim = 0;
  core::SyncStats sync;
  double sync_host_s = 0;
  core::SamplingStepCounters steps;
  uint64_t tokens = 0;
  bool matches_trainer = false;
};

/// Replays one sweep's kernels on chunks built with corpus's public layout
/// functions, seeded from the trainer's assignments after `mid` sweeps. On a
/// single-node workload the replayed sampling must reproduce the trainer's
/// next sweep exactly (same partition, same RNG keys).
Replay RunReplay(const Settings& s, const corpus::Corpus& c,
                 const std::vector<uint16_t>& z_mid,
                 const std::vector<uint16_t>& z_next, uint32_t mid,
                 ThreadPool* pool) {
  Replay r;
  core::CuldaConfig cfg;
  cfg.num_topics = s.topics;
  cfg.seed = s.seed;
  const uint32_t g_count = s.total_gpus();
  std::vector<core::ChunkState> chunks(g_count);
  r.layout_s = Timed([&] {
    obs::ScopedSpan span("corpus/layout");
    const auto specs = corpus::PartitionByTokens(c, g_count);
    r.imbalance = corpus::LoadImbalance(specs);
    for (uint32_t g = 0; g < g_count; ++g) {
      chunks[g].layout = corpus::BuildWordFirstChunk(c, specs[g]);
      chunks[g].work = corpus::BuildBlockWorkList(chunks[g].layout,
                                                  cfg.max_tokens_per_block);
    }
  });
  for (core::ChunkState& ch : chunks) {
    ch.z.resize(ch.layout.num_tokens());
    for (uint64_t t = 0; t < ch.z.size(); ++t) {
      ch.z[t] = z_mid[ch.layout.token_global[t]];
    }
    ch.theta = core::ThetaMatrix(ch.layout.num_docs(), cfg.num_topics);
    r.tokens += ch.num_tokens();
  }
  gpusim::DeviceGroup group(
      std::vector<gpusim::DeviceSpec>(g_count, gpusim::V100Volta()),
      gpusim::Pcie3x16(), pool);
  std::vector<core::PhiReplica> replicas, accum;
  for (uint32_t g = 0; g < g_count; ++g) {
    replicas.emplace_back(cfg.num_topics, c.vocab_size());
    accum.emplace_back(cfg.num_topics, c.vocab_size());
  }
  // Model state for the replayed sweep, as the trainer holds it.
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group.device(g);
    core::RunZeroPhiKernel(dev, cfg, replicas[g]);
    core::RunUpdatePhiKernel(dev, cfg, chunks[g], replicas[g]);
    core::RunUpdateThetaKernel(dev, cfg, chunks[g]);
  }
  core::SynchronizePhi(group, cfg, replicas);
  for (uint32_t g = 0; g < g_count; ++g) {
    core::RunComputeNkKernel(group.device(g), cfg, replicas[g]);
  }
  group.ResetTime();

  // The replayed sweep, kernel by kernel, each device in turn (each
  // kernel's thread blocks run on the pool).
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group.device(g);
    gpusim::KernelRecord rec;
    double host = Timed([&] {
      obs::ScopedSpan span("core/kernels.sampling");
      rec = core::RunSamplingKernel(dev, cfg, chunks[g], replicas[g], mid + 1,
                                    nullptr, &r.steps, s.train_sampler());
    });
    r.sampling.Add(host, rec);
    r.zero_phi_sim += core::RunZeroPhiKernel(dev, cfg, accum[g]).time.total_s;
    host = Timed([&] {
      obs::ScopedSpan span("core/kernels.update_phi");
      rec = core::RunUpdatePhiKernel(dev, cfg, chunks[g], accum[g]);
    });
    r.update_phi.Add(host, rec);
    host = Timed([&] {
      obs::ScopedSpan span("core/kernels.update_theta");
      rec = core::RunUpdateThetaKernel(dev, cfg, chunks[g]);
    });
    r.update_theta.Add(host, rec);
  }
  r.sync_host_s = Timed([&] {
    obs::ScopedSpan span("core/sync.phi");
    r.sync = core::SynchronizePhi(group, cfg, accum);
  });
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::KernelRecord rec;
    const double host = Timed([&] {
      obs::ScopedSpan span("core/kernels.compute_nk");
      rec = core::RunComputeNkKernel(group.device(g), cfg, accum[g]);
    });
    r.compute_nk.Add(host, rec);
  }
  if (!s.cluster() && !z_next.empty()) {
    r.matches_trainer = true;
    for (const core::ChunkState& ch : chunks) {
      for (uint64_t t = 0; t < ch.z.size(); ++t) {
        if (ch.z[t] != z_next[ch.layout.token_global[t]]) {
          r.matches_trainer = false;
          break;
        }
      }
    }
  }
  return r;
}

// --- Spans -------------------------------------------------------------------

/// Prints each span name's total and self time (span minus the union of
/// its child spans) and writes the spans as Chrome trace JSON.
void ReportSpans(const std::string& path) {
  const std::vector<obs::TraceEvent> events =
      obs::SpanTracer::Global().CollectEvents();
  std::map<uint64_t, std::vector<const obs::TraceEvent*>> children;
  for (const obs::TraceEvent& e : events) {
    if (e.ctx.valid() && e.ctx.parent_span_id != 0) {
      children[e.ctx.parent_span_id].push_back(&e);
    }
  }
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  for (const obs::TraceEvent& e : events) {
    if (!e.ctx.valid()) continue;
    std::vector<std::pair<double, double>> iv;
    for (const obs::TraceEvent* ch : children[e.ctx.span_id]) {
      iv.emplace_back(std::max(ch->start_s, e.start_s),
                      std::min(ch->start_s + ch->dur_s, e.start_s + e.dur_s));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, reach = e.start_s;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    auto& slot = by_name[e.name];
    slot.first += e.dur_s;
    slot.second += e.dur_s - covered;
  }
  for (const auto& [name, ts] : by_name) {
    std::printf("span %-28s total %9.4f s  self %9.4f s\n", name.c_str(),
                ts.first, ts.second);
  }
  std::ofstream out(path, std::ios::trunc);
  obs::WriteChromeTraceJson(events, {}, obs::SpanTracer::Global().CollectThreads(),
                            out);
  std::printf("spans written to %s\n", path.c_str());
}

// --- Workload ----------------------------------------------------------------

struct Journey {
  std::vector<Trial> trials;  ///< the first keeps corpus, model, z
  double train_wall_s = 0;    ///< summed wall time of the trials
  std::unique_ptr<ServeSession> serve;
};

/// Training trials interleaved with serving segments (evenly: T S S T S T S
/// for 3 and 4, T S T S T S for 3 and 3), the daemon launched on the first
/// trial's model; `ladder` adds the rate ladder at the end.
Journey RunJourney(const Settings& s, ThreadPool* pool, bool traced,
                   bool ladder, Report& rep) {
  Journey j;
  for (uint32_t k = 0; k < s.segments; ++k) {
    if (j.trials.size() < s.trials &&
        k * s.trials >= j.trials.size() * s.segments) {
      const bool first = j.trials.empty();
      j.train_wall_s +=
          Timed([&] { j.trials.push_back(RunTrial(s, pool, /*keep=*/first)); });
      rep.Attempted(s.sweeps);
    }
    if (!j.serve) {
      const Trial& first = j.trials.front();
      const std::string model_path =
          s.run_dir + (traced ? "/traced-model.bin" : "/model.bin");
      {
        obs::ScopedSpan span("core/model_io.save");
        core::SaveModelToFile(*first.model, model_path);
      }
      obs::ScopedSpan span("serve/setup");
      j.serve = std::make_unique<ServeSession>(s, model_path,
                                               first.split->heldout, traced,
                                               rep);
    }
    j.serve->Segment();
  }
  CheckTraining(s, j.trials, rep);
  if (traced) j.serve->ReadStats();
  if (ladder) j.serve->Ladder();
  j.serve->Finish();
  return j;
}

void RecordInputs(const Journey& j) {
  const Trial& first = j.trials.front();
  const corpus::Corpus& c = first.split->train;
  const std::vector<uint64_t> freq = c.WordFrequencies();
  obs::JsonObject cs;
  cs.Add("tokens", c.num_tokens())
      .Add("documents", static_cast<uint64_t>(c.num_docs()))
      .Add("vocabulary", static_cast<uint64_t>(c.vocab_size()))
      .Add("mean_doc_length", c.AvgDocLength())
      .Add("head_word_tokens", *std::max_element(freq.begin(), freq.end()))
      .Add("head_word_ceiling", static_cast<uint64_t>(0xFFFF))
      .Add("heldout_documents",
           static_cast<uint64_t>(first.split->heldout.num_docs()))
      .Add("latency_samples_per_segment",
           static_cast<uint64_t>(j.serve->samples));
  Record("corpus", cs);
}

void ReportEndToEnd(const Settings& s, const Journey& j, Report& rep) {
  const Trial& first = j.trials.front();
  const double tokens = static_cast<double>(first.split->train.num_tokens());
  std::vector<double> setup, wall_to_target;
  for (const Trial& t : j.trials) {
    setup.push_back(t.generate_s + t.init_s);
    if (t.wall_to_target >= 0) wall_to_target.push_back(t.wall_to_target);
  }
  double sim_timed = 0;
  for (uint32_t i = s.warmup; i < s.sweeps; ++i) sim_timed += first.sweep_sim[i];
  const ServeSession& sv = *j.serve;
  rep.Add("setup_s", "s",
          s.primary == "serve" ? Median(sv.setup_s) : Median(setup));
  std::vector<double> walls;
  for (const Trial& t : j.trials) {
    walls.insert(walls.end(), t.sweep_wall.begin() + s.warmup,
                 t.sweep_wall.end());
  }
  const std::array<double, 3> q = Quartiles(walls);
  std::printf("note sweep wall after warm-up: q1 %.4g s, median %.4g s, "
              "q3 %.4g s over %zu sweeps\n",
              q[0], q[1], q[2], walls.size());
  rep.Add("train_tok_per_s", "tok/s", tokens / q[1]);
  rep.Add("sim_tok_per_s", "tok/s", tokens * (s.sweeps - s.warmup) / sim_timed);
  rep.Add("wall_s_to_target", "s",
          wall_to_target.empty() ? 0.0 : Median(wall_to_target));
  rep.Add("sim_s_to_target", "s", std::max(first.sim_to_target, 0.0));
  rep.Add("nll_per_token", "nat/tok", -first.final_ll);
  rep.Add("peak_rss_mb", "MB",
          s.primary == "serve" ? sv.peak_rss_mb : PeakRssMbSelf());
}

/// Median of `reps` timed calls of fn.
template <typename Fn>
double MedianTime(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(Timed(fn));
  return Median(v);
}

void ReportLayers(const Settings& s, const Journey& plain,
                  const Journey& traced, double pool_busy_s,
                  double pool_wait_mean_s, double inline_sweep_s,
                  ThreadPool* pool, Report& rep) {
  const std::vector<Trial>& trials = traced.trials;
  const Trial& first = trials.front();
  const corpus::Corpus& c = first.split->train;
  std::vector<double> gen, init, steps, evals;
  double step_max = 0;
  for (const Trial& t : trials) {
    gen.push_back(t.generate_s);
    init.push_back(t.init_s);
    for (uint32_t i = 0; i < t.sweep_wall.size(); ++i) {
      if (i >= s.warmup) steps.push_back(t.sweep_wall[i]);
      step_max = std::max(step_max, t.sweep_wall[i]);
    }
    evals.insert(evals.end(), t.eval_s.begin(), t.eval_s.end());
  }
  const std::vector<uint64_t> freq = c.WordFrequencies();

  const Replay r =
      RunReplay(s, c, first.z_mid, first.z_next, first.mid_sweep, pool);
  if (!s.cluster()) {
    rep.Check(r.matches_trainer,
              "the kernel replay reproduces the trainer's next sweep");
  }

  rep.Add("corpus.generate_s", "s", Median(gen));
  rep.Add("corpus.layout_s", "s", r.layout_s);
  rep.Add("trainer.init_s", "s", Median(init));
  rep.Add("corpus.partition_imbalance", "ratio", r.imbalance);
  rep.Add("corpus.head_word_tokens", "count",
          static_cast<double>(*std::max_element(freq.begin(), freq.end())));
  rep.Add("trainer.step_s.p50", "s", Median(steps));
  rep.Add("trainer.step_s.max", "s", step_max);
  rep.Add("trainer.eval_s", "s", Median(evals));
  rep.Add("kernel.sampling.host_ns_per_tok", "ns",
          r.sampling.host_s * 1e9 / static_cast<double>(r.tokens));
  const std::pair<const char*, const KernelTotals*> kernels[] = {
      {"sampling", &r.sampling},
      {"update_phi", &r.update_phi},
      {"update_theta", &r.update_theta},
      {"compute_nk", &r.compute_nk}};
  for (const auto& [name, k] : kernels) {
    const std::string p = std::string("kernel.") + name;
    rep.Add(p + ".host_s", "s", k->host_s);
    rep.Add(p + ".sim_s", "s", k->sim_s);
    rep.Add(p + ".bytes", "B",
            static_cast<double>(k->counters.TotalOffChipBytes()));
    rep.Add(p + ".flop_per_byte", "flop/B", k->counters.FlopsPerByte());
  }
  rep.Add("kernel.update_phi.atomics", "count",
          static_cast<double>(r.update_phi.counters.atomic_ops));

  const double toks = static_cast<double>(r.steps.tokens);
  if (s.train_sampler() == core::TrainSampler::kTree) {
    rep.Add("sampler.p1_frac", "ratio", r.steps.p1_branches / toks);
    rep.Add("sampler.tree_spill_frac", "ratio", r.steps.p1_tree_spills / toks);
    rep.Unavailable("sampler.mh_accept_frac", "ratio",
                    "the tree sampler makes no MH proposals");
  } else {
    rep.Unavailable("sampler.p1_frac", "ratio",
                    "the alias/MH sampler has no p1 branch");
    rep.Unavailable("sampler.tree_spill_frac", "ratio",
                    "the alias/MH sampler builds no index trees");
    rep.Add("sampler.mh_accept_frac", "ratio",
            static_cast<double>(r.steps.mh_accepts) /
                static_cast<double>(r.steps.mh_proposals));
  }
  rep.Add("sync.host_s", "s", r.sync_host_s);
  rep.Add("sync.sim_s", "s", r.sync.seconds);
  rep.Add("sync.peer_bytes", "B", static_cast<double>(r.sync.peer_bytes));
  const double upd_phi = r.zero_phi_sim + r.update_phi.sim_s + r.compute_nk.sim_s;
  const double total =
      r.sampling.sim_s + upd_phi + r.update_theta.sim_s + r.sync.seconds;
  rep.Add("gpusim.sim_share.sampling", "ratio", r.sampling.sim_s / total);
  rep.Add("gpusim.sim_share.update_phi", "ratio", upd_phi / total);
  rep.Add("gpusim.sim_share.update_theta", "ratio", r.update_theta.sim_s / total);
  rep.Add("gpusim.sim_share.sync", "ratio", r.sync.seconds / total);

  if (s.cluster()) {
    const double sweeps = static_cast<double>(s.sweeps);
    const gpusim::LinkSpec net = gpusim::Ethernet10G();
    rep.Add("gpusim.fabric.payload_bytes", "B/sweep", first.fabric_payload / sweeps);
    rep.Add("gpusim.fabric.wire_bytes", "B/sweep", first.fabric_wire / sweeps);
    rep.Add("dist.inter_node_sim_s", "s/sweep",
            (first.fabric_wire / (net.bandwidth_gbps * 1e9) +
             first.fabric_transfers * net.latency_us * 1e-6) /
                sweeps);
    rep.Add("dist.sweep_host_s", "s", Median(steps));
    rep.Add("dist.max_staleness", "rounds",
            static_cast<double>(first.max_staleness));
  } else {
    const std::string why = "single-node workload: no fabric or cluster";
    rep.Unavailable("gpusim.fabric.payload_bytes", "B/sweep", why);
    rep.Unavailable("gpusim.fabric.wire_bytes", "B/sweep", why);
    rep.Unavailable("dist.inter_node_sim_s", "s/sweep", why);
    rep.Unavailable("dist.sweep_host_s", "s", why);
    rep.Unavailable("dist.max_staleness", "rounds", why);
  }

  rep.Add("pool.busy_frac", "ratio",
          pool_busy_s / (static_cast<double>(s.workers) * traced.train_wall_s));
  rep.Add("pool.queue_wait_s", "s", pool_wait_mean_s);
  const uint32_t inline_to = std::min(s.sweeps, s.warmup + 8);
  rep.Add("pool.speedup_vs_inline", "ratio",
          inline_sweep_s /
              MedianSweepWall(plain.trials, s.warmup, inline_to));

  // Direct calls into inference, snapshot and model I/O on the served model.
  core::InferenceOptions io;
  io.sampler = core::ParseInferSampler(s.serve_sampler);
  ThreadPool infer_pool(s.serve_workers);
  if (s.serve_workers > 0) io.pool = &infer_pool;
  core::CuldaConfig cfg;
  cfg.num_topics = s.topics;
  const std::string tmp = s.run_dir + "/model-io.bin";
  const double save_s = MedianTime(3, [&] {
    obs::ScopedSpan span("core/model_io.save");
    core::SaveModelToFile(*first.model, tmp);
  });
  core::GatheredModel loaded;
  const double load_s = MedianTime(3, [&] {
    obs::ScopedSpan span("core/model_io.load");
    loaded = core::LoadModelFromFile(tmp);
  });
  core::SnapshotPtr snap;
  const double build_s = MedianTime(3, [&] {
    obs::ScopedSpan span("core/snapshot.build");
    snap = core::ModelSnapshot::FromModel(loaded, cfg, io);
  });
  std::vector<std::vector<uint32_t>> docs;
  std::vector<uint64_t> seeds;
  double doc_tokens = 0;
  const corpus::Corpus& held = first.split->heldout;
  for (size_t d = 0; d < held.num_docs() && docs.size() < 200; ++d) {
    const auto toks = held.DocTokens(d);
    docs.emplace_back(toks.begin(), toks.end());
    seeds.push_back(d);
    doc_tokens += static_cast<double>(toks.size());
  }
  const double infer_s = MedianTime(3, [&] {
    obs::ScopedSpan span("core/inference.batch");
    snap->engine().InferBatch(docs, s.serve_iters, seeds);
  });
  struct stat st {};
  ::stat(tmp.c_str(), &st);
  rep.Add("infer.host_ns_per_tok", "ns", infer_s * 1e9 / doc_tokens);
  // Serving latency of the plain daemon: per layer, not end to end, as it
  // swings with the host's speed by more than any bound allows.
  const ServeSession& sv = *plain.serve;
  rep.Add("serve_p50_ms", "ms", Median(sv.seg_p50));
  rep.Add("serve_p99_ms", "ms", Median(sv.seg_p99));
  rep.Add("reload_p50_ms", "ms", Median(sv.seg_reload));
  rep.Add("serve_max_rps", "1/s", sv.max_rps);
  rep.Add("serve.queue_wait_p99_ms", "ms", traced.serve->queue_wait_p99_ms);
  rep.Add("serve.batch_size_mean", "requests", traced.serve->batch_size_mean);
  rep.Add("serve.shed", "count", traced.serve->shed);
  rep.Add("snapshot.build_s", "s", build_s);
  rep.Add("model_io.load_s", "s", load_s);
  rep.Add("model_io.save_s", "s", save_s);
  rep.Add("model_io.bytes", "B", static_cast<double>(st.st_size));
  rep.Add("serve.loadgen_late_p99_ms", "ms", Median(traced.serve->seg_late_p99));
  rep.Add("obs.trace_overhead_frac", "ratio",
          MedianSweepWall(traced.trials, s.warmup, s.sweeps) /
                  MedianSweepWall(plain.trials, s.warmup, s.sweeps) -
              1.0);
}

void RecordBuild() {
  obs::JsonObject b;
  b.Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("compiler", PERFBENCH_COMPILER)
      .Add("CULDA_SANITIZE", PERFBENCH_SANITIZE)
      .Add("CULDA_SIMD", PERFBENCH_SIMD)
      .Add("CULDA_OBS", PERFBENCH_OBS)
      .Add("CULDA_VALIDATE", PERFBENCH_VALIDATE)
      .Add("hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  Record("build", b);
}

void RecordSettings(const Settings& s) {
  obs::JsonObject o;
  o.Add("workload", s.workload)
      .Add("seed", s.seed)
      .Add("seconds", s.seconds)
      .Add("trace", s.trace)
      .Add("primary", s.primary)
      .Add("corpus", s.corpus)
      .Add("scale", s.scale)
      .Add("heldout_frac", s.heldout_frac)
      .Add("topics", static_cast<uint64_t>(s.topics))
      .Add("gpus_per_node", static_cast<uint64_t>(s.gpus))
      .Add("nodes", static_cast<uint64_t>(s.nodes))
      .Add("sampler", s.sampler)
      .Add("host_workers", static_cast<uint64_t>(s.workers))
      .Add("sweeps", static_cast<uint64_t>(s.sweeps))
      .Add("warmup_sweeps", static_cast<uint64_t>(s.warmup))
      .Add("trials", static_cast<uint64_t>(s.trials))
      .Add("serve_segments", static_cast<uint64_t>(s.segments))
      .Add("ll_target", s.ll_target)
      .Add("ll_reference", s.ll_reference)
      .Add("ll_tolerance", s.ll_tolerance)
      .Add("serve_sampler", s.serve_sampler)
      .Add("serve_iters", static_cast<uint64_t>(s.serve_iters))
      .Add("serve_workers", static_cast<uint64_t>(s.serve_workers))
      .Add("serve_max_wait_ms", s.serve_max_wait_ms)
      .Add("offered_rate", s.rate)
      .Add("segment_s", s.segment_s())
      .Add("reload_period_s", s.reload_period_s)
      .Add("p99_limit_ms", s.p99_limit_ms)
      .Add("ladder_factor", s.ladder_factor)
      .Add("ladder_bisections", static_cast<uint64_t>(s.bisections));
  Record("settings", o);
}

int Main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const Settings s = ParseSettings(flags);
  if (const int rc = flags.RejectUnknownFlags("see perfbench/run.py\n")) {
    return rc;
  }
  SetLogLevel(LogLevel::kWarn);
  RecordBuild();
  RecordSettings(s);
  if (std::string(PERFBENCH_SANITIZE) != "" ||
      std::string(PERFBENCH_VALIDATE) != "OFF") {
    std::fprintf(stderr,
                 "error: refusing to benchmark a sanitizer or "
                 "CULDA_VALIDATE=ON build\n");
    return 2;
  }
  ::mkdir(s.run_dir.c_str(), 0755);

  Report rep;
  ThreadPool pool(s.workers);
  ThreadPool* pool_ptr = s.workers > 0 ? &pool : nullptr;
  try {
    // The ladder runs only in traced runs, on the plain daemon: it is too
    // sensitive to the host's speed to carry a bound (perfbench/METRICS.md).
    const Journey plain =
        RunJourney(s, pool_ptr, /*traced=*/false, /*ladder=*/s.trace, rep);
    RecordInputs(plain);
    if (!s.trace) {
      ReportEndToEnd(s, plain, rep);
    } else {
      // Traced pass: the program's metrics and spans on, plus the
      // benchmark's spans under one root.
      obs::SpanTracer::Global().Reset();
      obs::SpanTracer::Global().set_enabled(true);
      obs::Metrics().ResetValues();
      obs::Metrics().set_enabled(true);
      std::optional<Journey> traced;
      {
        obs::ScopedSpan root("perfbench/" + s.workload,
                             obs::NewRequestContext("perfbench"));
        traced.emplace(
            RunJourney(s, pool_ptr, /*traced=*/true, /*ladder=*/false, rep));
      }
      double busy = 0, wait_mean = 0;
      const auto samples = obs::Metrics().CollectSamples();
      for (const auto& [name, v] : samples.gauges) {
        if (name.rfind("threadpool.worker", 0) == 0 &&
            name.find(".busy_s") != std::string::npos) {
          busy += v;
        }
      }
      for (const auto& h : samples.histograms) {
        if (h.name == "threadpool.queue_wait_s") wait_mean = h.summary.mean();
      }
      obs::Metrics().set_enabled(false);

      // Inline pass: the same sweeps with no worker pool.
      Settings inline_s = s;
      inline_s.sweeps = std::min(s.sweeps, s.warmup + 8);
      const Trial inl = [&] {
        obs::ScopedSpan root("perfbench/inline",
                             obs::NewRequestContext("perfbench-inline"));
        return RunTrial(inline_s, nullptr, /*keep=*/false);
      }();
      rep.Attempted(inline_s.sweeps);
      const double inline_sweep =
          Median(std::vector<double>(inl.sweep_wall.begin() + s.warmup,
                                     inl.sweep_wall.end()));
      {
        obs::ScopedSpan root("perfbench/layers",
                             obs::NewRequestContext("perfbench-layers"));
        ReportLayers(s, plain, *traced, busy, wait_mean, inline_sweep,
                     pool_ptr, rep);
      }
      obs::SpanTracer::Global().set_enabled(false);
      ReportSpans(s.run_dir + "/spans-" + s.workload + "-" +
                  std::to_string(s.seed) + ".json");
    }
  } catch (const std::exception& e) {
    // A refusal (e.g. the trainer's 16-bit φ guard) or a broken daemon is
    // a failed operation, not a skipped workload.
    std::printf("error %s\n", e.what());
    rep.Attempted(1);
    rep.Check(false, std::string("workload ran to completion: ") + e.what());
  }
  const std::string line = rep.ResultLine();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
