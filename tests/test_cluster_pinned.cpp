// Pins the multi-node trainer to values recorded from the standalone
// cluster trainer it replaced, so folding that trainer into
// core::CuldaTrainer provably kept every assignment, simulated clock and
// fabric counter: 2×2 sync, and 3×2 async with the tree and alias/MH
// samplers at unbounded staleness and at a bound of 1. Each case runs
// inline and on a 3-worker pool; both must reproduce the same values.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>

#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {
namespace {

uint64_t Fnv1a(std::span<const uint16_t> v) {
  uint64_t h = 1469598103934665603ull;
  for (const uint16_t x : v) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

struct PinnedCase {
  const char* name;
  uint32_t nodes;
  uint32_t gpus;
  DistMode mode;
  TrainSampler sampler;
  uint32_t staleness_bound;
  // Recorded values.
  uint64_t z_fnv;
  std::array<double, 3> sweep_sim_s;
  double now;
  uint64_t payload_bytes;
  uint64_t wire_bytes;
  uint64_t transfers;
  uint32_t max_staleness;
};

constexpr PinnedCase kCases[] = {
    {"sync_2x2", 2, 2, DistMode::kSync, TrainSampler::kTree,
     kUnboundedStaleness, 0x9b2d05b3e2ccc6d2ull,
     {0x1.722b9987afbb9p-13, 0x1.722089d61a963p-13, 0x1.7221ddcc8aefcp-13},
     0x1.159b804a95506p-11, 57600, 57600, 12, 0},
    {"async_3x2_tree_unbounded", 3, 2, DistMode::kAsync, TrainSampler::kTree,
     kUnboundedStaleness, 0xa2ed02ff5049987eull,
     {0x1.85d31e2ec8c0bp-13, 0x1.13ddb09013a26p-12, 0x1.13de17617a4bcp-12},
     0x1.7552ab8479274p-11, 76800, 76800, 24, 2},
    {"async_3x2_tree_bound1", 3, 2, DistMode::kAsync, TrainSampler::kTree, 1,
     0x5ec2d7eacd70b3dfull,
     {0x1.f099ec20f97fap-13, 0x1.b4080280ca3edp-12, 0x1.b408475325ac2p-12},
     0x1.18174ff91b2abp-10, 144000, 144000, 45, 1},
    {"async_3x2_mh_unbounded", 3, 2, DistMode::kAsync, TrainSampler::kAliasMH,
     kUnboundedStaleness, 0x045d7021ba277c84ull,
     {0x1.857482b904ebbp-13, 0x1.13afdc3015c24p-12, 0x1.13af216476516p-12},
     0x1.750c9f788744cp-11, 76800, 76800, 24, 2},
    {"async_3x2_mh_bound1", 3, 2, DistMode::kAsync, TrainSampler::kAliasMH, 1,
     0x4f44f64ed07004d5ull,
     {0x1.f03b499f8069cp-13, 0x1.b3da0e8185594p-12, 0x1.b3d9438fed916p-12},
     0x1.17f43db84cc7ep-10, 144000, 144000, 45, 1},
};

class ClusterPinned
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(ClusterPinned, MatchesRecordedValues) {
  const PinnedCase& pc = kCases[std::get<0>(GetParam())];
  const size_t workers = std::get<1>(GetParam());
  SCOPED_TRACE(pc.name);

  corpus::SyntheticProfile profile;
  profile.num_docs = 240;
  profile.vocab_size = 300;
  profile.avg_doc_length = 40;
  const corpus::Corpus corpus = corpus::GenerateCorpus(profile);
  CuldaConfig cfg;
  cfg.num_topics = 16;

  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  TrainerOptions opts;
  opts.num_nodes = pc.nodes;
  opts.gpus.assign(pc.gpus, gpusim::V100Volta());
  opts.mode = pc.mode;
  opts.sampler = pc.sampler;
  opts.staleness_bound = pc.staleness_bound;
  opts.pool = pool.get();
  CuldaTrainer trainer(corpus, cfg, opts);

  for (size_t i = 0; i < pc.sweep_sim_s.size(); ++i) {
    EXPECT_EQ(trainer.Step().sim_seconds, pc.sweep_sim_s[i]) << "sweep " << i;
  }
  EXPECT_EQ(Fnv1a(trainer.ExportAssignments()), pc.z_fnv);
  EXPECT_EQ(trainer.Now(), pc.now);
  EXPECT_EQ(trainer.fabric().payload_bytes(), pc.payload_bytes);
  EXPECT_EQ(trainer.fabric().wire_bytes(), pc.wire_bytes);
  EXPECT_EQ(trainer.fabric().transfer_count(), pc.transfers);
  EXPECT_EQ(trainer.max_observed_staleness(), pc.max_staleness);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, ClusterPinned,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kCases)),
                       ::testing::Values<size_t>(0, 3)),
    [](const auto& info) {
      return std::string(kCases[std::get<0>(info.param)].name) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace culda::core
