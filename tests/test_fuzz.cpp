// Randomized fuzzing sweeps: the index tree against a linear-scan oracle
// over random shapes, UCI round-trips over random corpora, and determinism
// of the full trainer pipeline including the word-partition variant.
#include <gtest/gtest.h>

#include <sstream>

#include "core/index_tree.hpp"
#include "core/trainer.hpp"
#include "core/word_partition.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/uci_reader.hpp"
#include "gpusim/device.hpp"
#include "util/philox.hpp"

namespace culda {
namespace {

class FuzzSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeed, IndexTreeMatchesOracleOnRandomShapes) {
  PhiloxStream shape_rng(GetParam(), 100);
  for (int round = 0; round < 8; ++round) {
    const size_t n = 1 + shape_rng.NextBelow(3000);
    const uint32_t fanout = 2 + shape_rng.NextBelow(40);
    std::vector<float> p(n);
    PhiloxStream val_rng(GetParam(), 200 + round);
    for (auto& x : p) {
      // Mix of zeros, tiny, and large weights.
      const uint32_t kind = val_rng.NextBelow(4);
      x = kind == 0 ? 0.0f
          : kind == 1 ? val_rng.NextFloat() * 1e-5f
                      : val_rng.NextFloat() * 100.0f;
    }
    // Ensure at least one positive.
    p[val_rng.NextBelow(static_cast<uint32_t>(n))] += 1.0f;

    core::IndexTree tree(n, fanout);
    const float total = tree.view().Build(p);
    for (int draw = 0; draw < 60; ++draw) {
      const float u = val_rng.NextFloat() * total;
      float acc = 0;
      size_t expected = n - 1;
      for (size_t k = 0; k < n; ++k) {
        acc += p[k];
        if (acc > u) {
          expected = k;
          break;
        }
      }
      ASSERT_EQ(tree.view().Search(u), expected)
          << "n=" << n << " fanout=" << fanout << " u=" << u;
    }
  }
}

TEST_P(FuzzSeed, UciRoundTripOnRandomCorpora) {
  PhiloxStream rng(GetParam(), 300);
  corpus::SyntheticProfile p;
  p.num_docs = 20 + rng.NextBelow(100);
  p.vocab_size = 10 + rng.NextBelow(300);
  p.avg_doc_length = 5 + rng.NextBelow(40);
  p.seed = GetParam();
  const auto original = corpus::GenerateCorpus(p);

  std::stringstream buf;
  corpus::WriteUciBagOfWords(original, buf);
  const auto parsed = corpus::ReadUciBagOfWords(buf);
  ASSERT_EQ(parsed.num_tokens(), original.num_tokens());
  ASSERT_EQ(parsed.num_docs(), original.num_docs());
  EXPECT_EQ(parsed.WordFrequencies(), original.WordFrequencies());
}

TEST_P(FuzzSeed, PartitionPoliciesAgreeOnRandomCorpora) {
  // Full-pipeline differential test: partition-by-document (2 GPUs, WS2)
  // vs partition-by-word (2 GPUs) must give identical log-likelihoods.
  PhiloxStream rng(GetParam(), 400);
  corpus::SyntheticProfile p;
  p.num_docs = 60 + rng.NextBelow(200);
  p.vocab_size = 50 + rng.NextBelow(200);
  p.avg_doc_length = 10 + rng.NextBelow(40);
  p.seed = GetParam() * 31;
  const auto c = corpus::GenerateCorpus(p);

  core::CuldaConfig cfg;
  cfg.num_topics = 4 + rng.NextBelow(40);
  core::TrainerOptions opts;
  opts.gpus.assign(2, gpusim::TitanXpPascal());
  opts.chunks_per_gpu = 1 + rng.NextBelow(3);
  core::CuldaTrainer by_doc(c, cfg, opts);
  core::WordPartitionTrainer by_word(
      c, cfg, std::vector<gpusim::DeviceSpec>(2, gpusim::TitanXpPascal()));
  by_doc.Train(3);
  by_word.Train(3);
  EXPECT_DOUBLE_EQ(by_doc.LogLikelihoodPerToken(),
                   by_word.LogLikelihoodPerToken());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Range<uint64_t>(100, 110),
                         [](const auto& info) {
                           std::string name = "s";
                           name += std::to_string(info.param);
                           return name;
                         });

// ------------------------------------------------------------ event API

TEST(Events, RecordAndWaitOrderStreams) {
  gpusim::Device dev(gpusim::TitanXpPascal(), 0);
  dev.Launch("producer", {1, 32},
             [](gpusim::BlockContext& ctx) { ctx.ReadGlobal(50 << 20); },
             &dev.stream(0));
  const gpusim::Event done = dev.stream(0).Record();
  EXPECT_EQ(done.stream_id, 0);
  EXPECT_GT(done.timestamp, 0.0);

  dev.stream(1).Wait(done);
  const auto rec = dev.Launch(
      "consumer", {1, 32},
      [](gpusim::BlockContext& ctx) { ctx.ReadGlobal(1 << 20); },
      &dev.stream(1));
  EXPECT_GE(rec.start_s, done.timestamp);
}

}  // namespace
}  // namespace culda
