// Tests for training checkpoints: bit-exact resume, topology-independent
// restore (including from 2 nodes × 2 GPUs onto one 4-GPU machine),
// corruption rejection, and the async multi-node rejections.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"

namespace culda::core {
namespace {

corpus::Corpus TestCorpus(uint64_t seed = 42) {
  corpus::SyntheticProfile p;
  p.num_docs = 300;
  p.vocab_size = 400;
  p.avg_doc_length = 40;
  p.seed = seed;
  return corpus::GenerateCorpus(p);
}

CuldaConfig TestConfig() {
  CuldaConfig cfg;
  cfg.num_topics = 24;
  return cfg;
}

std::vector<uint16_t> PhiFingerprint(const CuldaTrainer& trainer) {
  const auto m = trainer.Gather();
  return {m.phi.flat().begin(), m.phi.flat().end()};
}

TEST(Checkpoint, ResumeContinuesBitExactly) {
  const auto c = TestCorpus();

  // Reference: 6 uninterrupted iterations.
  CuldaTrainer reference(c, TestConfig(), {});
  reference.Train(6);

  // Interrupted: 3 iterations, checkpoint, fresh trainer, restore, 3 more.
  CuldaTrainer first(c, TestConfig(), {});
  first.Train(3);
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  first.SaveCheckpoint(ckpt);

  CuldaTrainer resumed(c, TestConfig(), {});
  resumed.RestoreCheckpoint(ckpt);
  EXPECT_EQ(resumed.iteration(), 3u);
  resumed.Train(3);

  EXPECT_EQ(PhiFingerprint(resumed), PhiFingerprint(reference));
  EXPECT_DOUBLE_EQ(resumed.LogLikelihoodPerToken(),
                   reference.LogLikelihoodPerToken());
}

TEST(Checkpoint, RestoreAcrossDifferentGpuCount) {
  const auto c = TestCorpus();
  CuldaTrainer one(c, TestConfig(), {});
  one.Train(2);
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  one.SaveCheckpoint(ckpt);

  TrainerOptions four;
  four.gpus.assign(4, gpusim::TitanXpPascal());
  CuldaTrainer wide(c, TestConfig(), four);
  wide.RestoreCheckpoint(ckpt);
  wide.Train(2);

  CuldaTrainer reference(c, TestConfig(), {});
  reference.Train(4);
  EXPECT_EQ(PhiFingerprint(wide), PhiFingerprint(reference));
}

TEST(Checkpoint, RestoreAcrossDifferentChunking) {
  const auto c = TestCorpus();
  TrainerOptions m3;
  m3.chunks_per_gpu = 3;
  CuldaTrainer chunked(c, TestConfig(), m3);
  chunked.Train(2);
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  chunked.SaveCheckpoint(ckpt);

  CuldaTrainer plain(c, TestConfig(), {});
  plain.RestoreCheckpoint(ckpt);
  plain.Train(1);

  CuldaTrainer reference(c, TestConfig(), m3);
  reference.Train(3);
  EXPECT_EQ(PhiFingerprint(plain), PhiFingerprint(reference));
}

TEST(Checkpoint, RestoredModelSatisfiesInvariants) {
  const auto c = TestCorpus();
  CuldaTrainer a(c, TestConfig(), {});
  a.Train(2);
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  a.SaveCheckpoint(ckpt);
  CuldaTrainer b(c, TestConfig(), {});
  b.RestoreCheckpoint(ckpt);
  b.Gather().Validate(c);
}

TEST(Checkpoint, RejectsWrongCorpus) {
  const auto c1 = TestCorpus(1);
  const auto c2 = TestCorpus(2);
  CuldaTrainer a(c1, TestConfig(), {});
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  a.SaveCheckpoint(ckpt);
  CuldaTrainer b(c2, TestConfig(), {});
  EXPECT_THROW(b.RestoreCheckpoint(ckpt), Error);
}

TEST(Checkpoint, RejectsWrongConfig) {
  const auto c = TestCorpus();
  CuldaTrainer a(c, TestConfig(), {});
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  a.SaveCheckpoint(ckpt);
  CuldaConfig other = TestConfig();
  other.num_topics = 32;
  CuldaTrainer b(c, other, {});
  EXPECT_THROW(b.RestoreCheckpoint(ckpt), Error);
}

TEST(Checkpoint, RejectsGarbageAndTruncation) {
  const auto c = TestCorpus();
  CuldaTrainer a(c, TestConfig(), {});
  a.Train(1);
  std::ostringstream out(std::ios::binary);
  a.SaveCheckpoint(out);
  const std::string bytes = out.str();

  {
    std::istringstream garbage("not a checkpoint at all", std::ios::binary);
    CuldaTrainer b(c, TestConfig(), {});
    EXPECT_THROW(b.RestoreCheckpoint(garbage), Error);
  }
  for (const double frac : {0.2, 0.8}) {
    std::istringstream truncated(
        bytes.substr(0, static_cast<size_t>(bytes.size() * frac)),
        std::ios::binary);
    CuldaTrainer b(c, TestConfig(), {});
    EXPECT_THROW(b.RestoreCheckpoint(truncated), Error) << frac;
  }
}

// --- Multi-node ---------------------------------------------------------

TrainerOptions TwoNodesTwoGpus(DistMode mode) {
  TrainerOptions opts;
  opts.num_nodes = 2;
  opts.gpus.assign(2, gpusim::V100Volta());
  opts.mode = mode;
  return opts;
}

TEST(Checkpoint, MultiNodeSyncResumeContinuesBitExactly) {
  const auto c = TestCorpus();
  CuldaTrainer reference(c, TestConfig(), TwoNodesTwoGpus(DistMode::kSync));
  reference.Train(4);

  CuldaTrainer first(c, TestConfig(), TwoNodesTwoGpus(DistMode::kSync));
  first.Train(2);
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  first.SaveCheckpoint(ckpt);

  CuldaTrainer resumed(c, TestConfig(), TwoNodesTwoGpus(DistMode::kSync));
  resumed.RestoreCheckpoint(ckpt);
  EXPECT_EQ(resumed.iteration(), 2u);
  resumed.Train(2);
  EXPECT_EQ(PhiFingerprint(resumed), PhiFingerprint(reference));
  EXPECT_EQ(resumed.ExportAssignments(), reference.ExportAssignments());
}

TEST(Checkpoint, MultiNodeSyncRestoresIntoSingleMachine) {
  // 2 nodes × 2 GPUs and one 4-GPU machine partition the corpus the same
  // way, so the checkpoint moves between them and both continue in step.
  const auto c = TestCorpus();
  CuldaTrainer cluster(c, TestConfig(), TwoNodesTwoGpus(DistMode::kSync));
  cluster.Train(2);
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  cluster.SaveCheckpoint(ckpt);

  TrainerOptions four;
  four.gpus.assign(4, gpusim::V100Volta());
  CuldaTrainer machine(c, TestConfig(), four);
  machine.RestoreCheckpoint(ckpt);
  EXPECT_EQ(PhiFingerprint(machine), PhiFingerprint(cluster));
  EXPECT_EQ(machine.ExportAssignments(), cluster.ExportAssignments());

  machine.Train(2);
  cluster.Train(2);
  EXPECT_EQ(PhiFingerprint(machine), PhiFingerprint(cluster));
  EXPECT_EQ(machine.ExportAssignments(), cluster.ExportAssignments());
}

TEST(Checkpoint, AsyncValidateStateChecksCanonicalPhi) {
  // The per-node views are stale by design; the canonical φ must agree with
  // z after every sweep.
  const auto c = TestCorpus();
  CuldaTrainer t(c, TestConfig(), TwoNodesTwoGpus(DistMode::kAsync));
  for (int i = 0; i < 3; ++i) {
    t.Step();
    EXPECT_NO_THROW(t.ValidateState()) << "after sweep " << i;
  }
}

TEST(Checkpoint, AsyncRejectsCheckpointsNamingTheShardViews) {
  const auto c = TestCorpus();
  CuldaTrainer async(c, TestConfig(), TwoNodesTwoGpus(DistMode::kAsync));
  async.Step();
  const auto expect_rejected = [](const auto& fn) {
    try {
      fn();
      FAIL() << "async checkpoint I/O must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("shard views are not "
                                           "checkpointed"),
                std::string::npos)
          << e.what();
    }
  };
  std::stringstream out(std::ios::binary | std::ios::in | std::ios::out);
  expect_rejected([&] { async.SaveCheckpoint(out); });

  CuldaTrainer sync(c, TestConfig(), TwoNodesTwoGpus(DistMode::kSync));
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  sync.SaveCheckpoint(ckpt);
  expect_rejected([&] { async.RestoreCheckpoint(ckpt); });
  EXPECT_NO_THROW(async.ValidateState());  // the failed restore changed nothing
}

TEST(Checkpoint, AsyncRejectsMoreThanOneChunkPerGpu) {
  const auto c = TestCorpus();
  auto explicit_m = TwoNodesTwoGpus(DistMode::kAsync);
  explicit_m.chunks_per_gpu = 2;
  // Room for φ and a quarter of each GPU's share, so the automatic choice
  // lands on M > 1 as well.
  auto automatic_m = TwoNodesTwoGpus(DistMode::kAsync);
  for (auto& spec : automatic_m.gpus) spec.memory_bytes = 90'000;
  for (const TrainerOptions& opts : {explicit_m, automatic_m}) {
    try {
      CuldaTrainer t(c, TestConfig(), opts);
      FAIL() << "M > 1 must be rejected under async";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("keeps chunks resident"),
                std::string::npos)
          << e.what();
    }
  }
  // The same small devices are fine for sync, which streams chunks (WS2).
  auto sync = automatic_m;
  sync.mode = DistMode::kSync;
  CuldaTrainer streamed(c, TestConfig(), sync);
  EXPECT_GT(streamed.chunks_per_gpu(), 1u);
}

}  // namespace
}  // namespace culda::core
