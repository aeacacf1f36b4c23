// Cross-schedule determinism: because every random draw is keyed by
// (seed, iteration, global token index), the trained model must be bit-
// identical no matter how the corpus is partitioned — 1 GPU or 4, WS1 or
// WS2, tree or CPU sync. This is the property that makes the multi-GPU
// results of Figure 9 directly comparable to the single-GPU runs.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {
namespace {

corpus::Corpus TestCorpus() {
  corpus::SyntheticProfile p;
  p.num_docs = 350;
  p.vocab_size = 500;
  p.avg_doc_length = 45;
  return corpus::GenerateCorpus(p);
}

CuldaConfig TestConfig() {
  CuldaConfig cfg;
  cfg.num_topics = 32;
  return cfg;
}

/// Fingerprint of the trained model: full θ structure plus φ.
std::vector<uint64_t> Fingerprint(const GatheredModel& m) {
  std::vector<uint64_t> fp;
  fp.push_back(m.theta.nnz());
  for (size_t i = 0; i < m.theta.nnz(); ++i) {
    fp.push_back((static_cast<uint64_t>(m.theta.col_idx()[i]) << 32) |
                 static_cast<uint32_t>(m.theta.values()[i]));
  }
  for (const uint16_t c : m.phi.flat()) fp.push_back(c);
  return fp;
}

std::vector<uint64_t> TrainAndFingerprint(const corpus::Corpus& c,
                                          TrainerOptions opts,
                                          uint32_t iters = 4) {
  CuldaTrainer trainer(c, TestConfig(), std::move(opts));
  trainer.Train(iters);
  return Fingerprint(trainer.Gather());
}

TEST(Determinism, RepeatedRunsIdentical) {
  const auto c = TestCorpus();
  EXPECT_EQ(TrainAndFingerprint(c, {}), TrainAndFingerprint(c, {}));
}

TEST(Determinism, IndependentOfGpuCount) {
  const auto c = TestCorpus();
  TrainerOptions g1, g2, g4;
  g1.gpus.assign(1, gpusim::TitanXpPascal());
  g2.gpus.assign(2, gpusim::TitanXpPascal());
  g4.gpus.assign(4, gpusim::TitanXpPascal());
  const auto fp1 = TrainAndFingerprint(c, g1);
  EXPECT_EQ(fp1, TrainAndFingerprint(c, g2));
  EXPECT_EQ(fp1, TrainAndFingerprint(c, g4));
}

TEST(Determinism, IndependentOfChunksPerGpu) {
  const auto c = TestCorpus();
  TrainerOptions m1, m3;
  m1.chunks_per_gpu = 1;
  m3.chunks_per_gpu = 3;
  EXPECT_EQ(TrainAndFingerprint(c, m1), TrainAndFingerprint(c, m3));
}

TEST(Determinism, IndependentOfSyncMode) {
  const auto c = TestCorpus();
  TrainerOptions tree, cpu;
  tree.gpus.assign(3, gpusim::TitanXpPascal());
  cpu.gpus.assign(3, gpusim::TitanXpPascal());
  tree.sync_mode = SyncMode::kGpuTree;
  cpu.sync_mode = SyncMode::kCpuSum;
  EXPECT_EQ(TrainAndFingerprint(c, tree), TrainAndFingerprint(c, cpu));
}

TEST(Determinism, IndependentOfDeviceArchitecture) {
  // The cost model changes times, never results.
  const auto c = TestCorpus();
  TrainerOptions titan, volta;
  titan.gpus = {gpusim::TitanXMaxwell()};
  volta.gpus = {gpusim::V100Volta()};
  EXPECT_EQ(TrainAndFingerprint(c, titan), TrainAndFingerprint(c, volta));
}

TEST(Determinism, IndependentOfOverlapSettings) {
  const auto c = TestCorpus();
  TrainerOptions on, off;
  on.chunks_per_gpu = 2;
  off.chunks_per_gpu = 2;
  off.overlap_transfers = false;
  off.overlap_theta_with_sync = false;
  EXPECT_EQ(TrainAndFingerprint(c, on), TrainAndFingerprint(c, off));
}

TEST(Determinism, SeedChangesResults) {
  const auto c = TestCorpus();
  CuldaConfig cfg_a = TestConfig();
  CuldaConfig cfg_b = TestConfig();
  cfg_b.seed += 1;
  CuldaTrainer a(c, cfg_a, {});
  CuldaTrainer b(c, cfg_b, {});
  a.Train(3);
  b.Train(3);
  EXPECT_NE(Fingerprint(a.Gather()), Fingerprint(b.Gather()));
}

TEST(Determinism, WorkerPoolDoesNotChangeResults) {
  const auto c = TestCorpus();
  ThreadPool pool(3);
  TrainerOptions seq, par;
  par.pool = &pool;
  EXPECT_EQ(TrainAndFingerprint(c, seq), TrainAndFingerprint(c, par));
}

/// Full observable state of a training run: per-token assignments, θ+φ
/// (via the fingerprint), and the per-iteration *simulated* timings. The
/// host-parallel execution path must reproduce all of it bit-identically —
/// a worker pool may only change wall-clock time.
struct FullRun {
  std::vector<uint64_t> fingerprint;
  std::vector<uint16_t> z;
  std::vector<double> sim_seconds;

  bool operator==(const FullRun&) const = default;
};

FullRun TrainFully(const corpus::Corpus& c, TrainerOptions opts,
                   uint32_t iters = 4) {
  CuldaTrainer trainer(c, TestConfig(), std::move(opts));
  FullRun run;
  for (const IterationStats& st : trainer.Train(iters)) {
    run.sim_seconds.push_back(st.sim_seconds);
  }
  run.z = trainer.ExportAssignments();
  run.fingerprint = Fingerprint(trainer.Gather());
  return run;
}

TEST(Determinism, MultiWorkerPoolIdenticalWs1) {
  // WS1 (M = 1): 4 resident chunks on 4 simulated GPUs, with both trainer-
  // level device parallelism and block-level kernel parallelism active.
  const auto c = TestCorpus();
  ThreadPool pool(4);
  TrainerOptions inline_opts, pooled;
  inline_opts.gpus.assign(4, gpusim::TitanXpPascal());
  inline_opts.chunks_per_gpu = 1;
  pooled.gpus.assign(4, gpusim::TitanXpPascal());
  pooled.chunks_per_gpu = 1;
  pooled.pool = &pool;
  const FullRun a = TrainFully(c, inline_opts);
  const FullRun b = TrainFully(c, pooled);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);  // bit-identical doubles
}

TEST(Determinism, MultiWorkerPoolIdenticalWs2) {
  // WS2 (M > 1): chunks stream through the GPUs with double-buffered
  // transfers; the streamed schedule must be as pool-independent as WS1.
  const auto c = TestCorpus();
  ThreadPool pool(4);
  TrainerOptions inline_opts, pooled;
  inline_opts.gpus.assign(2, gpusim::TitanXpPascal());
  inline_opts.chunks_per_gpu = 3;
  pooled.gpus.assign(2, gpusim::TitanXpPascal());
  pooled.chunks_per_gpu = 3;
  pooled.pool = &pool;
  const FullRun a = TrainFully(c, inline_opts);
  const FullRun b = TrainFully(c, pooled);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}


/// Exact-sampler output pinned to captured values: the FNV-1a checksum of z,
/// the per-iteration simulated seconds, and every billed per-step counter.
/// Any change to the tree sampler's host representation must leave all of
/// them bit-identical — at any worker count, with p1 trees spilling out of
/// shared memory, and at a non-power-of-two fanout.
struct PinnedRun {
  uint64_t z_fnv = 0;
  std::vector<double> sim_seconds;
  /// bytes and flops of compute_s, compute_q, sample_p1, sample_p2, then
  /// p1_branches and p1_tree_spills.
  std::vector<uint64_t> counters;
};

corpus::SyntheticProfile PinnedProfile() {
  corpus::SyntheticProfile p;
  p.num_docs = 300;
  p.vocab_size = 400;
  p.avg_doc_length = 60;
  return p;
}

PinnedRun TrainPinned(const CuldaConfig& cfg,
                      const corpus::SyntheticProfile& profile,
                      size_t workers) {
  const auto c = corpus::GenerateCorpus(profile);
  ThreadPool pool(workers);
  TrainerOptions opts;
  opts.gpus.assign(2, gpusim::V100Volta());
  opts.collect_step_counters = true;
  if (workers > 0) opts.pool = &pool;
  CuldaTrainer trainer(c, cfg, opts);
  PinnedRun run;
  for (const IterationStats& st : trainer.Train(3)) {
    run.sim_seconds.push_back(st.sim_seconds);
  }
  run.z_fnv = 1469598103934665603ull;
  for (const uint16_t z : trainer.ExportAssignments()) {
    run.z_fnv = (run.z_fnv ^ z) * 1099511628211ull;
  }
  const SamplingStepCounters& s = trainer.step_counters();
  for (const gpusim::KernelCounters* k :
       {&s.compute_s, &s.compute_q, &s.sample_p1, &s.sample_p2}) {
    run.counters.insert(run.counters.end(),
                        {k->global_read_bytes, k->l1_read_bytes,
                         k->global_write_bytes, k->shared_read_bytes,
                         k->shared_write_bytes, k->flops});
  }
  run.counters.push_back(s.p1_branches);
  run.counters.push_back(s.p1_tree_spills);
  return run;
}

void ExpectPinned(const CuldaConfig& cfg, const PinnedRun& want,
                  const corpus::SyntheticProfile& profile = PinnedProfile()) {
  for (const size_t workers : {size_t{0}, size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const PinnedRun got = TrainPinned(cfg, profile, workers);
    EXPECT_EQ(got.z_fnv, want.z_fnv);
    EXPECT_EQ(got.sim_seconds, want.sim_seconds);  // bit-identical doubles
    EXPECT_EQ(got.counters, want.counters);
    if (testing::Test::HasFailure()) {
      std::printf("z_fnv=%llu\n", static_cast<unsigned long long>(got.z_fnv));
      for (const double s : got.sim_seconds) std::printf("sim %a\n", s);
      for (const uint64_t v : got.counters) {
        std::printf("ctr %llu\n", static_cast<unsigned long long>(v));
      }
    }
  }
}

/// K = 100 gives the p2 tree (and long documents' p1 trees) two levels even
/// at fanout 32.
CuldaConfig PinnedConfig() {
  CuldaConfig cfg;
  cfg.num_topics = 100;
  return cfg;
}

TEST(TreeSamplerPinned, SharedTreesFanout32) {
  const CuldaConfig cfg = PinnedConfig();
  const PinnedRun want{
      7985053579215119234ull,
      {0x1.0921f2796d77cp-14, 0x1.070dfdba4fe5p-14, 0x1.05ef85fac372p-14},
      {9463372, 4731686, 0, 9463372, 0, 4833914,  // compute_s
       391200, 782400, 0, 0, 0, 586800,           // compute_q
       0, 0, 0, 1871584, 9810648, 2833739,        // sample_p1
       0, 0, 0, 1532972, 813696, 774443,          // sample_p2
       29846, 0}};                                // p1_branches, p1_tree_spills
  ExpectPinned(cfg, want);
}

TEST(TreeSamplerPinned, SpilledP1Trees) {
  CuldaConfig cfg = PinnedConfig();
  cfg.use_shared_trees = false;
  const PinnedRun want{
      7985053579215119234ull,
      {0x1.23e538c4f392ap-14, 0x1.1fbcbfa087ddap-14, 0x1.1d6989f3d018p-14},
      {9463372, 4731686, 0, 9463372, 0, 4833914,  // compute_s
       391200, 782400, 0, 0, 0, 586800,           // compute_q
       1871584, 0, 9810648, 0, 0, 2833739,        // sample_p1
       0, 0, 0, 1532972, 813696, 774443,          // sample_p2
       29846, 51114}};                            // p1_branches, p1_tree_spills
  ExpectPinned(cfg, want);
}

TEST(TreeSamplerPinned, NonPowerOfTwoFanout) {
  CuldaConfig cfg = PinnedConfig();
  cfg.tree_fanout = 3;
  const PinnedRun want{
      7985053579215119234ull,
      {0x1.0921f2796d77cp-14, 0x1.070dfdba4fe5p-14, 0x1.05ef85fac372p-14},
      {9463372, 4731686, 0, 9463372, 0, 4833914,  // compute_s
       391200, 782400, 0, 0, 0, 586800,           // compute_q
       0, 0, 0, 861980, 14267448, 2581338,        // sample_p1
       0, 0, 0, 756988, 1189248, 580447,          // sample_p2
       29846, 0}};                                // p1_branches, p1_tree_spills
  ExpectPinned(cfg, want);
}

/// Few words over long documents: a document repeats a word many times, so
/// its run of tokens in a word block crosses the 3-warp stride and, at 7
/// tokens per block, the boundary between blocks of the same word.
TEST(TreeSamplerPinned, SameDocumentRuns) {
  corpus::SyntheticProfile profile;
  profile.num_docs = 200;
  profile.vocab_size = 40;
  profile.avg_doc_length = 200;
  CuldaConfig cfg = PinnedConfig();
  cfg.samplers_per_block = 3;
  cfg.max_tokens_per_block = 7;
  {
    SCOPED_TRACE("shared trees");
    const PinnedRun want{
        3197569881245239268ull,
        {0x1.43875f2e36f7ep-14, 0x1.3cb90cdd58d0ep-14, 0x1.394c177ac0ccep-14},
        {36178920, 18089460, 0, 36178920, 0, 18315936,  // compute_s
         3256200, 6512400, 0, 0, 0, 4884300,            // compute_q
         0, 0, 0, 6300668, 37508888, 10619897,          // sample_p1
         0, 0, 0, 1584336, 6772896, 3652284,            // sample_p2
         91266, 0}};  // p1_branches, p1_tree_spills
    ExpectPinned(cfg, want, profile);
  }
  cfg.use_shared_trees = false;
  {
    SCOPED_TRACE("spilled trees");
    const PinnedRun want{
        3197569881245239268ull,
        {0x1.a4f229e22a5f7p-14, 0x1.96f58f6eaffd5p-14, 0x1.8fd479f3d655p-14},
        {36178920, 18089460, 0, 36178920, 0, 18315936,  // compute_s
         3256200, 6512400, 0, 0, 0, 4884300,            // compute_q
         6300668, 0, 37508888, 0, 0, 10619897,          // sample_p1
         0, 0, 0, 1584336, 6772896, 3652284,            // sample_p2
         91266, 113238}};  // p1_branches, p1_tree_spills
    ExpectPinned(cfg, want, profile);
  }
}

/// The per-token billing of p* recomputation and of an unshared p2 tree.
TEST(TreeSamplerPinned, AblationBranches) {
  CuldaConfig cfg = PinnedConfig();
  cfg.reuse_pstar = false;
  cfg.share_p2_tree = false;
  const PinnedRun want{
      7985053579215119234ull,
      {0x1.85ca8328c0a69p-14, 0x1.828a26348b027p-14, 0x1.80c663418ac78p-14},
      {14195058, 14195058, 0, 0, 0, 9565600,    // compute_s
       31059600, 782400, 0, 0, 0, 15921000,     // compute_q
       0, 0, 0, 1871584, 9810648, 2833739,      // sample_p1
       1532972, 0, 22077120, 0, 0, 10997243,    // sample_p2
       29846, 0}};                              // p1_branches, p1_tree_spills
  ExpectPinned(cfg, want);
}

}  // namespace
}  // namespace culda::core
