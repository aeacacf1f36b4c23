// Property sweeps: the trainer and corpus substrates over broad parameter
// grids and randomized inputs. Each case re-checks the fundamental
// invariants (count consistency, coverage, determinism) rather than any
// specific value.
#include <gtest/gtest.h>

#include <tuple>

#include "core/trainer.hpp"
#include "corpus/chunking.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/word_first.hpp"
#include "util/philox.hpp"

namespace culda {
namespace {

// ---------------------------------------------------- trainer config grid

struct GridCase {
  uint32_t k_topics;
  int gpus;
  uint32_t chunks_per_gpu;
  bool pubmed_shape;
};

class TrainerGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(TrainerGrid, InvariantsAndDeterminism) {
  const auto [k_topics, gpus, m, pubmed] = GetParam();
  corpus::SyntheticProfile p;
  p.num_docs = pubmed ? 800 : 250;
  p.vocab_size = 400;
  p.avg_doc_length = pubmed ? 25 : 80;
  const auto c = corpus::GenerateCorpus(p);

  core::CuldaConfig cfg;
  cfg.num_topics = k_topics;
  core::TrainerOptions opts;
  opts.gpus.assign(gpus, gpusim::TitanXpPascal());
  opts.chunks_per_gpu = m;

  core::CuldaTrainer trainer(c, cfg, opts);
  const double ll0 = trainer.LogLikelihoodPerToken();
  trainer.Train(3);
  trainer.Gather().Validate(c);
  EXPECT_GT(trainer.LogLikelihoodPerToken(), ll0);

  // Determinism: a second identical run lands on the same model.
  core::CuldaTrainer again(c, cfg, opts);
  again.Train(3);
  EXPECT_DOUBLE_EQ(again.LogLikelihoodPerToken(),
                   trainer.LogLikelihoodPerToken());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrainerGrid,
    ::testing::Values(GridCase{8, 1, 1, false}, GridCase{8, 2, 2, false},
                      GridCase{64, 1, 1, false}, GridCase{64, 3, 1, true},
                      GridCase{64, 2, 3, true}, GridCase{200, 1, 2, false},
                      GridCase{200, 4, 1, true}, GridCase{16, 4, 4, false}),
    [](const auto& info) {
      std::string name = "K";
      name += std::to_string(info.param.k_topics);
      name += "_G";
      name += std::to_string(info.param.gpus);
      name += "_M";
      name += std::to_string(info.param.chunks_per_gpu);
      name += info.param.pubmed_shape ? "_short" : "_long";
      return name;
    });

// --------------------------------------------- randomized corpus fuzzing

class CorpusFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorpusFuzz, ChunkingAndLayoutInvariants) {
  // Random corpora with adversarial shapes: empty docs, giant docs, tiny
  // vocabularies.
  PhiloxStream rng(GetParam(), 0);
  const uint32_t vocab = 2 + rng.NextBelow(50);
  const uint32_t docs = 1 + rng.NextBelow(80);
  std::vector<uint64_t> offsets{0};
  std::vector<uint32_t> words;
  for (uint32_t d = 0; d < docs; ++d) {
    uint32_t len = rng.NextBelow(30);
    if (rng.NextBelow(10) == 0) len = 0;           // empty doc
    if (rng.NextBelow(20) == 0) len = 500;         // giant doc
    for (uint32_t t = 0; t < len; ++t) {
      words.push_back(rng.NextBelow(vocab));
    }
    offsets.push_back(words.size());
  }
  const corpus::Corpus c(vocab, std::move(offsets), std::move(words));
  c.Validate();

  for (const uint32_t chunks : {1u, 2u, 3u, 5u, 9u}) {
    const auto specs = corpus::PartitionByTokens(c, chunks);
    uint64_t covered = 0;
    for (const auto& spec : specs) {
      const auto layout = corpus::BuildWordFirstChunk(c, spec);
      layout.Validate(c);
      covered += layout.num_tokens();
      const auto work = corpus::BuildBlockWorkList(layout, 16);
      uint64_t work_tokens = 0;
      for (const auto& bw : work) work_tokens += bw.size();
      EXPECT_EQ(work_tokens, layout.num_tokens());
    }
    EXPECT_EQ(covered, c.num_tokens());
  }
}

TEST_P(CorpusFuzz, TrainerHandlesAdversarialCorpora) {
  PhiloxStream rng(GetParam(), 1);
  const uint32_t vocab = 5 + rng.NextBelow(100);
  const uint32_t docs = 5 + rng.NextBelow(60);
  std::vector<uint64_t> offsets{0};
  std::vector<uint32_t> words;
  for (uint32_t d = 0; d < docs; ++d) {
    const uint32_t len = rng.NextBelow(40);
    for (uint32_t t = 0; t < len; ++t) {
      // Skewed: half the tokens are word 0.
      words.push_back(rng.NextBelow(2) ? 0 : rng.NextBelow(vocab));
    }
    offsets.push_back(words.size());
  }
  if (words.empty()) words.push_back(0), offsets.back() = 1;
  const corpus::Corpus c(vocab, std::move(offsets), std::move(words));

  core::CuldaConfig cfg;
  cfg.num_topics = 2 + rng.NextBelow(30);
  cfg.max_tokens_per_block = 1 + rng.NextBelow(64);
  core::TrainerOptions opts;
  opts.gpus.assign(1 + rng.NextBelow(3), gpusim::TitanXMaxwell());
  core::CuldaTrainer trainer(c, cfg, opts);
  trainer.Train(2);
  trainer.Gather().Validate(c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusFuzz,
                         ::testing::Range<uint64_t>(1, 13),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ------------------------------------------------ hyperopt-in-training

TEST(TrainerExtensions, HyperoptIntervalKeepsInvariants) {
  corpus::SyntheticProfile p;
  p.num_docs = 300;
  p.vocab_size = 300;
  const auto c = corpus::GenerateCorpus(p);
  core::CuldaConfig cfg;
  cfg.num_topics = 24;
  core::TrainerOptions opts;
  opts.hyperopt_interval = 3;
  core::CuldaTrainer trainer(c, cfg, opts);
  const double ll0 = trainer.LogLikelihoodPerToken();
  trainer.Train(9);
  trainer.Gather().Validate(c);
  EXPECT_GT(trainer.LogLikelihoodPerToken(), ll0);
  // The re-estimated α must differ from the 50/K default by now.
  EXPECT_NE(trainer.config().alpha, -1.0);
}

}  // namespace
}  // namespace culda
