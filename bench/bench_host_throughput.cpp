// Host throughput — wall-clock tokens/sec of the simulator itself.
//
// Everything else in bench/ reports *simulated* seconds; this bench measures
// how fast the host executes the simulation, which is the quantity every
// other bench's runtime is made of. It runs the same 4-simulated-GPU WS1
// training across several ThreadPool sizes (0 = inline baseline), each both
// unpinned and pinned (the topology-aware placement path). Rows are labelled
// by lanes — pool workers plus the calling thread, which also executes
// work — and report the wall-clock speedup and the busy lanes (process CPU
// seconds / wall seconds over the timed sweeps: how many lanes actually
// ran, on average). It verifies that the model state and the simulated
// timings are bit-identical across every (workers, placement) cell — the
// determinism contract of the host-parallel execution path, and the only
// reliable signal on 1-core hosts where speedup is unobservable — and emits
// BENCH_host_throughput.json stamped with the detected topology so the
// repo's perf trajectory is trackable run over run and across machines.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "obs/sink.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/topology.hpp"

using namespace culda;

namespace {

struct HostRun {
  size_t workers = 0;
  size_t lanes = 1;                 ///< workers + the calling thread
  bool pinned = false;              ///< requested --pin placement
  size_t pinned_workers = 0;        ///< how many the kernel actually pinned
  uint64_t steals = 0;              ///< cross-socket shard claims
  double wall_s_per_iter = 0;
  double wall_tokens_per_sec = 0;
  double busy_lanes = 0;            ///< process CPU s / wall s, timed sweeps
  std::vector<double> sim_seconds;  ///< per-iteration, must be bit-identical
  uint64_t z_checksum = 0;
};

uint64_t Fnv1a(const std::vector<uint16_t>& v) {
  uint64_t h = 1469598103934665603ull;
  for (const uint16_t x : v) {
    h = (h ^ x) * 1099511628211ull;
  }
  return h;
}

/// User + system CPU seconds consumed by the whole process so far.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

HostRun Run(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
            int gpus, size_t workers, bool pin, int iters) {
  ThreadPoolOptions pool_options;
  pool_options.pin = pin;
  ThreadPool pool(workers, pool_options);
  core::TrainerOptions opts;
  opts.gpus.assign(gpus, gpusim::V100Volta());
  opts.chunks_per_gpu = 1;  // WS1: chunks stay resident, one per GPU
  if (workers > 0) opts.pool = &pool;
  core::CuldaTrainer trainer(corpus, cfg, opts);

  HostRun run;
  run.workers = workers;
  run.lanes = workers + 1;
  run.pinned = pin;
  run.pinned_workers = pool.pinned_worker_count();
  trainer.Step();  // warmup: first iteration pays cold caches
  double wall = 0;
  double wall_tok = 0;
  const double cpu_before = ProcessCpuSeconds();
  const Stopwatch timed;
  for (int i = 0; i < iters; ++i) {
    const auto st = trainer.Step();
    wall += st.wall_seconds;
    wall_tok += st.wall_tokens_per_sec;
    run.sim_seconds.push_back(st.sim_seconds);
  }
  run.busy_lanes = (ProcessCpuSeconds() - cpu_before) / timed.Seconds();
  run.wall_s_per_iter = wall / iters;
  run.wall_tokens_per_sec = wall_tok / iters;
  run.z_checksum = Fnv1a(trainer.ExportAssignments());
  run.steals = pool.steal_count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Host throughput — wall-clock tokens/sec of the simulator",
      "4 simulated GPUs, WS1, 1/2/3/5 lanes (ThreadPool of 0/1/2/4 workers "
      "+ the caller), pinned and unpinned; model state and simulated times "
      "must not change.");

  const double scale = flags.GetDouble("scale", 0.5);
  const int iters = static_cast<int>(flags.GetInt("iters", 4));
  const int gpus = static_cast<int>(flags.GetInt("gpus", 4));
  const std::string out_path =
      flags.GetString("out", "BENCH_host_throughput.json");
  core::CuldaConfig cfg = bench::BenchConfig(flags);
  if (!flags.Has("topics")) cfg.num_topics = 128;
  const auto corpus =
      bench::MakeCorpus(flags, bench::NyTimesBenchProfile(scale), "nytimes");
  bench::RejectUnknownFlags(flags);
  const CpuTopology& topo = SystemTopology();
  std::printf("%s | K=%u | %d GPUs (WS1) | %d timed iterations\n",
              corpus.Summary("NYTimes").c_str(), cfg.num_topics, gpus, iters);
  std::printf("topology: %s | auto workers = %zu\n\n", topo.Summary().c_str(),
              DefaultWorkerCount());

  // Sweep pool sizes, each unpinned then pinned (workers=0 is inline — the
  // pin knob has nothing to act on, so it runs once).
  const std::vector<size_t> worker_counts{0, 1, 2, 4};
  std::vector<HostRun> runs;
  for (const size_t w : worker_counts) {
    for (const bool pin : {false, true}) {
      if (w == 0 && pin) continue;
      runs.push_back(Run(corpus, cfg, gpus, w, pin, iters));
      const HostRun& r = runs.back();
      std::printf("lanes=%zu (workers=%zu)%s: %.2f Mtok/s wall, %.2f busy "
                  "lanes (%zu/%zu pinned)\n",
                  r.lanes, w, pin ? " pinned" : "", r.wall_tokens_per_sec / 1e6,
                  r.busy_lanes, r.pinned_workers, w);
    }
  }
  std::printf("\n");

  // Determinism contract: identical assignments and bit-identical simulated
  // timings regardless of pool size *and* placement. This gate is the
  // bench's pass/fail signal — on a 1-core host it is the only observable.
  bool deterministic = true;
  for (const HostRun& r : runs) {
    if (r.z_checksum != runs[0].z_checksum ||
        r.sim_seconds != runs[0].sim_seconds) {
      deterministic = false;
    }
  }

  TextTable table({"lanes", "pinned", "ms/iter (wall)",
                   "M tokens/s (wall)", "busy lanes", "speedup vs 1 lane"});
  const double base = runs[0].wall_s_per_iter;
  for (const HostRun& r : runs) {
    table.AddRow({std::to_string(r.lanes),
                  r.pinned ? std::to_string(r.pinned_workers) + "/" +
                                 std::to_string(r.workers)
                           : "-",
                  TextTable::Num(r.wall_s_per_iter * 1e3, 4),
                  TextTable::Num(r.wall_tokens_per_sec / 1e6, 4),
                  TextTable::Num(r.busy_lanes, 3),
                  TextTable::Num(base / r.wall_s_per_iter, 3) + "x"});
  }
  table.Print();
  std::printf("\ndeterminism across pool sizes and placements: %s\n",
              deterministic ? "OK (bit-identical z and sim_seconds)"
                            : "FAILED — model state or simulated time "
                              "changed with the pool size or placement!");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"host_throughput\",\n"
       << "  \"gpus\": " << gpus << ",\n"
       << "  \"schedule\": \"WS1\",\n"
       << "  \"topics\": " << cfg.num_topics << ",\n"
       << "  \"tokens\": " << corpus.num_tokens() << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"topology\": {\"effective_cpus\": " << topo.cpu_count()
       << ", \"sockets\": " << topo.num_nodes << ", \"summary\": \""
       << topo.Summary() << "\", \"auto_workers\": " << DefaultWorkerCount()
       << "},\n"
       << "  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n"
       << "  \"metrics_schema\": \"" << obs::kMetricsSchema << "\",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const HostRun& r = runs[i];
    json << "    {\"lanes\": " << r.lanes << ", \"workers\": " << r.workers
         << ", \"pinned\": "
         << (r.pinned ? "true" : "false")
         << ", \"pinned_workers\": " << r.pinned_workers
         << ", \"steals\": " << r.steals
         << ", \"wall_seconds_per_iter\": " << r.wall_s_per_iter
         << ", \"wall_tokens_per_sec\": " << r.wall_tokens_per_sec
         << ", \"busy_lanes\": " << r.busy_lanes
         << ", \"speedup_vs_inline\": " << base / r.wall_s_per_iter << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return deterministic ? 0 : 1;
}
