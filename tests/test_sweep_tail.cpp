// Pins for the tail of a sweep — everything after the sampling kernel: the
// θ rebuild (full and delta kernels), φ zeroing, the n_k totals and the φ
// reduce/broadcast. Each phase is integer work split across pool lanes, so
// the values below (checksums, billed bytes, simulated seconds) must come
// out bit-identical at any worker count, on ragged inputs whose sizes do
// not divide evenly among blocks or ranges.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "core/kernels.hpp"
#include "core/sync.hpp"
#include "corpus/chunking.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/word_first.hpp"
#include "gpusim/fabric.hpp"
#include "gpusim/multi_gpu.hpp"
#include "util/philox.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {
namespace {

constexpr size_t kWorkerCounts[] = {0, 3};
constexpr uint64_t kFnvBasis = 1469598103934665603ull;

uint64_t Fnv(uint64_t h, uint64_t v) { return (h ^ v) * 1099511628211ull; }

uint64_t ThetaFnv(const ThetaMatrix& m) {
  uint64_t h = kFnvBasis;
  for (const uint64_t v : m.row_ptr()) h = Fnv(h, v);
  for (const uint16_t v : m.col_idx()) h = Fnv(h, v);
  for (const int32_t v : m.values()) h = Fnv(h, static_cast<uint32_t>(v));
  return h;
}

uint64_t PhiFnv(const PhiMatrix& m) {
  uint64_t h = kFnvBasis;
  for (const uint16_t v : m.flat()) h = Fnv(h, v);
  return h;
}

// ----------------------------------------------------------------- theta --

/// What one θ kernel left behind: the CSR checksum, its nnz, and the
/// launch's billed write bytes and simulated seconds.
struct ThetaPin {
  uint64_t fnv = 0;
  uint64_t nnz = 0;
  uint64_t write_bytes = 0;
  double sim_s = 0;

  bool operator==(const ThetaPin&) const = default;
};

ThetaPin PinOf(const ThetaMatrix& theta, const gpusim::KernelRecord& rec) {
  return {ThetaFnv(theta), theta.nnz(), rec.counters.global_write_bytes,
          rec.time.total_s};
}

void PrintPin(const char* what, const ThetaPin& p) {
  std::printf("%s: {%lluull, %llu, %llu, %a}\n", what,
              static_cast<unsigned long long>(p.fnv),
              static_cast<unsigned long long>(p.nnz),
              static_cast<unsigned long long>(p.write_bytes), p.sim_s);
}

constexpr uint32_t kThetaTopics = 40;

corpus::Corpus TailCorpus(uint64_t docs) {
  corpus::SyntheticProfile p;
  p.num_docs = docs;
  p.vocab_size = 150;
  p.avg_doc_length = 40;
  return corpus::GenerateCorpus(p);
}

/// Runs the full θ kernel on `layout` (starting from an empty θ), then
/// reassigns every third token and runs the delta kernel on the same chunk,
/// so the delta rebuild reuses the arrays the full one filled.
std::pair<ThetaPin, ThetaPin> RunTheta(const corpus::WordFirstChunk& layout,
                                       size_t workers) {
  ThreadPool pool(workers);
  gpusim::Device device(gpusim::V100Volta(), 0, &pool);
  CuldaConfig cfg;
  cfg.num_topics = kThetaTopics;
  ChunkState chunk;
  chunk.layout = layout;
  chunk.z.resize(layout.num_tokens());
  for (uint64_t t = 0; t < chunk.z.size(); ++t) {
    PhiloxStream rng(7, t);
    chunk.z[t] = static_cast<uint16_t>(rng.NextBelow(kThetaTopics));
  }
  const auto full = RunUpdateThetaKernel(device, cfg, chunk);
  const ThetaPin full_pin = PinOf(chunk.theta, full);

  uint64_t touched = 0;
  for (uint64_t t = 0; t < chunk.z.size(); t += 3, ++touched) {
    chunk.z[t] = static_cast<uint16_t>((chunk.z[t] * 7 + 3) % kThetaTopics);
  }
  const auto delta = RunUpdateThetaDeltaKernel(device, cfg, chunk, touched);
  chunk.theta.Validate();
  return {full_pin, PinOf(chunk.theta, delta)};
}

void ExpectTheta(const corpus::WordFirstChunk& layout, const ThetaPin& full,
                 const ThetaPin& delta) {
  for (const size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const auto [got_full, got_delta] = RunTheta(layout, workers);
    EXPECT_EQ(got_full, full);
    EXPECT_EQ(got_delta, delta);
    if (testing::Test::HasFailure()) {
      PrintPin("full", got_full);
      PrintPin("delta", got_delta);
    }
  }
}

corpus::WordFirstChunk DocRangeChunk(const corpus::Corpus& c) {
  return corpus::BuildWordFirstChunk(c, corpus::PartitionByTokens(c, 1)[0]);
}

TEST(SweepTailPinned, ThetaTypicalChunk) {
  const auto c = TailCorpus(120);
  ExpectTheta(DocRangeChunk(c),
              {18105475163943848464ull, 2762, 54948, 0x1.81d35ce76a3a9p-18},
              {1483132863406129574ull, 2790, 12784, 0x1.6a702db1e15b7p-18});
}

TEST(SweepTailPinned, ThetaFewerDocumentsThanRanges) {
  const auto c = TailCorpus(2);
  ExpectTheta(DocRangeChunk(c),
              {17381526934713195217ull, 59, 1082, 0x1.509156c3cadf5p-18},
              {6631134751401398339ull, 60, 272, 0x1.5032d9824e09bp-18});
}

TEST(SweepTailPinned, ThetaSingleDocument) {
  const auto c = TailCorpus(1);
  ExpectTheta(DocRangeChunk(c),
              {2187967267458624261ull, 30, 604, 0x1.502e8dff54p-18},
              {2209045365620675882ull, 31, 176, 0x1.4fff4f5e95953p-18});
}

TEST(SweepTailPinned, ThetaWordRangeChunkWithEmptyDocuments) {
  // The last of four word ranges holds the rare words: most documents have
  // no token in it, so most θ rows are empty.
  const auto c = TailCorpus(120);
  const auto ranges = corpus::PartitionWordsByTokens(c, 4);
  const auto layout = corpus::BuildWordRangeChunk(c, ranges.back());
  uint64_t empty_docs = 0;
  for (uint64_t d = 0; d < layout.num_docs(); ++d) {
    empty_docs += layout.doc_map_offsets[d] == layout.doc_map_offsets[d + 1];
  }
  ASSERT_GT(empty_docs, 0u);
  ExpectTheta(layout,
              {7410353289339537795ull, 994, 29968, 0x1.63af7443c1175p-18},
              {6475572026233704697ull, 1012, 3208, 0x1.565b1a46c1f51p-18});
}

// ------------------------------------------------------- zero phi, n_k --

// K·V = 210077 cells: three zero_phi blocks (cells >> 16) with a remainder
// of two cells that the last block must also clear.
constexpr uint32_t kOddTopics = 7;
constexpr uint32_t kOddVocab = 30011;

void FillRandom(PhiMatrix& phi, uint64_t seed, uint32_t below) {
  PhiloxStream rng(seed, 0);
  for (auto& c : phi.flat()) c = static_cast<uint16_t>(rng.NextBelow(below));
}

TEST(SweepTailPinned, ZeroPhiClearsEveryCellOfAnOddGrid) {
  ASSERT_NE((kOddTopics * kOddVocab) % ((kOddTopics * kOddVocab) >> 16), 0u);
  for (const size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ThreadPool pool(workers);
    gpusim::Device device(gpusim::V100Volta(), 0, &pool);
    CuldaConfig cfg;
    cfg.num_topics = kOddTopics;
    PhiReplica replica(kOddTopics, kOddVocab);
    FillRandom(replica.phi, 3, 1000);
    replica.phi.flat().back() = 9;
    replica.RecomputeTotals();
    const auto rec = RunZeroPhiKernel(device, cfg, replica);
    uint64_t nonzero = 0;
    for (const uint16_t c : replica.phi.flat()) nonzero += c != 0;
    EXPECT_EQ(nonzero, 0u);
    for (const int32_t n : replica.nk) EXPECT_EQ(n, 0);
    EXPECT_EQ(rec.counters.global_write_bytes, 420153u);
    EXPECT_EQ(rec.time.total_s, 0x1.758aa74511c8ap-18);
    if (testing::Test::HasFailure()) {
      std::printf("zero_phi: %llu %a\n",
                  static_cast<unsigned long long>(
                      rec.counters.global_write_bytes),
                  rec.time.total_s);
    }
  }
}

TEST(SweepTailPinned, ComputeNkMatchesRecomputeTotalsOnARaggedGrid) {
  // K = 250 runs K/4 = 62 blocks: two of them own a fifth row.
  constexpr uint32_t kTopics = 250;
  constexpr uint32_t kVocab = 301;
  for (const size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ThreadPool pool(workers);
    gpusim::Device device(gpusim::V100Volta(), 0, &pool);
    CuldaConfig cfg;
    cfg.num_topics = kTopics;
    PhiReplica replica(kTopics, kVocab);
    FillRandom(replica.phi, 5, 60000);
    PhiReplica reference = replica;
    reference.RecomputeTotals();
    std::fill(replica.nk.begin(), replica.nk.end(), -1);
    const auto rec = RunComputeNkKernel(device, cfg, replica);
    EXPECT_EQ(replica.nk, reference.nk);
    EXPECT_EQ(rec.counters.global_read_bytes, 150500u);
    EXPECT_EQ(rec.time.total_s, 0x1.625b0e72d2acep-18);
    if (testing::Test::HasFailure()) {
      std::printf("compute_nk: %llu %a\n",
                  static_cast<unsigned long long>(
                      rec.counters.global_read_bytes),
                  rec.time.total_s);
    }
  }
}

// ------------------------------------------------------------------ sync --

std::vector<PhiReplica> OddReplicas(size_t count, uint64_t seed) {
  std::vector<PhiReplica> out;
  for (size_t i = 0; i < count; ++i) {
    PhiReplica r(kOddTopics, kOddVocab);
    FillRandom(r.phi, seed + i, 1000);
    out.push_back(std::move(r));
  }
  return out;
}

PhiMatrix NaiveSum(const std::vector<PhiReplica>& replicas) {
  PhiMatrix sum(kOddTopics, kOddVocab);
  for (const auto& r : replicas) {
    for (size_t i = 0; i < sum.flat().size(); ++i) {
      sum.flat()[i] = static_cast<uint16_t>(sum.flat()[i] + r.phi.flat()[i]);
    }
  }
  return sum;
}

struct SyncPin {
  uint64_t fnv = 0;
  double seconds = 0;
};

class SweepTailSync
    : public ::testing::TestWithParam<std::tuple<size_t, SyncMode>> {};

TEST_P(SweepTailSync, EqualAcrossPoolSizes) {
  const auto [g, mode] = GetParam();
  const SyncPin want = [&, g = g, mode = mode]() -> SyncPin {
    if (mode == SyncMode::kGpuTree) {
      return g == 2 ? SyncPin{17815532346311456037ull, 0x1.4c3b770cfb7fcp-14}
                    : SyncPin{9054227946737036895ull, 0x1.4c3b770cfb7fcp-13};
    }
    return g == 2 ? SyncPin{17815532346311456037ull, 0x1.79ec3d890022p-13}
                  : SyncPin{9054227946737036895ull, 0x1.6da15be35e3c6p-12};
  }();
  for (const size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ThreadPool pool(workers);
    gpusim::DeviceGroup group(
        std::vector<gpusim::DeviceSpec>(g, gpusim::V100Volta()),
        gpusim::Pcie3x16(), &pool);
    auto replicas = OddReplicas(g, 11);
    const PhiMatrix expected = NaiveSum(replicas);
    CuldaConfig cfg;
    cfg.num_topics = kOddTopics;
    const SyncStats stats = SynchronizePhi(group, cfg, replicas, mode);
    for (size_t i = 0; i < g; ++i) {
      EXPECT_EQ(PhiFnv(replicas[i].phi), PhiFnv(expected)) << "gpu " << i;
    }
    EXPECT_EQ(PhiFnv(expected), want.fnv);
    EXPECT_EQ(stats.seconds, want.seconds);
    if (testing::Test::HasFailure()) {
      std::printf("sync: {%lluull, %a}\n",
                  static_cast<unsigned long long>(PhiFnv(expected)),
                  stats.seconds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GpusAndModes, SweepTailSync,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(SyncMode::kGpuTree,
                                         SyncMode::kCpuSum)),
    [](const auto& info) {
      return "g" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == SyncMode::kGpuTree ? "_tree"
                                                            : "_cpu");
    });

std::vector<gpusim::DeviceGroup> Nodes(size_t nodes, size_t gpus,
                                       ThreadPool* pool) {
  std::vector<gpusim::DeviceGroup> out;
  for (size_t n = 0; n < nodes; ++n) {
    out.emplace_back(std::vector<gpusim::DeviceSpec>(gpus, gpusim::V100Volta()),
                     gpusim::Pcie3x16(), pool, static_cast<int>(n * gpus));
  }
  return out;
}

TEST(SweepTailPinned, AcrossNodesEqualAcrossPoolSizes) {
  for (const size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ThreadPool pool(workers);
    auto nodes = Nodes(2, 2, &pool);
    auto replicas = OddReplicas(4, 23);
    const PhiMatrix expected = NaiveSum(replicas);
    gpusim::Fabric fabric(2, gpusim::FabricTopology::kRing,
                          gpusim::Ethernet10G());
    CuldaConfig cfg;
    cfg.num_topics = kOddTopics;
    const auto stats = SynchronizePhiAcrossNodes(nodes, cfg, replicas, fabric);
    for (size_t i = 0; i < replicas.size(); ++i) {
      EXPECT_EQ(PhiFnv(replicas[i].phi), PhiFnv(expected)) << "replica " << i;
    }
    EXPECT_EQ(PhiFnv(expected), 7427807341177768217ull);
    EXPECT_EQ(stats.seconds, 0x1.34344462ddd86p-11);
    if (testing::Test::HasFailure()) {
      std::printf("nodes: {%lluull, %a}\n",
                  static_cast<unsigned long long>(PhiFnv(expected)),
                  stats.seconds);
    }
  }
}

/// Runs `sync` and returns the message it threw, or "" if it did not throw.
template <typename Fn>
std::string ThrownMessage(Fn&& sync) {
  try {
    sync();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SweepTailPinned, ReduceOverflowStillThrowsAtEveryPoolSize) {
  // One cell — the last, inside the reduce's remainder — is driven past
  // 0xFFFF; ROADMAP item 1 keeps the per-cell check on every path.
  constexpr const char* kMessage =
      "phi count overflowed 16 bits during reduce";
  auto overflowing = [](size_t count) {
    auto replicas = OddReplicas(count, 31);
    for (auto& r : replicas) r.phi.flat().back() = 40000;
    return replicas;
  };
  CuldaConfig cfg;
  cfg.num_topics = kOddTopics;
  for (const size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ThreadPool pool(workers);
    for (const SyncMode mode : {SyncMode::kGpuTree, SyncMode::kCpuSum}) {
      gpusim::DeviceGroup group(
          std::vector<gpusim::DeviceSpec>(2, gpusim::V100Volta()),
          gpusim::Pcie3x16(), &pool);
      auto replicas = overflowing(2);
      EXPECT_NE(ThrownMessage([&] {
                  SynchronizePhi(group, cfg, replicas, mode);
                }).find(kMessage),
                std::string::npos);
    }
    // Across nodes the overflow happens in the inter-node sum: each node's
    // own sum (one replica of 40000 + one of 0) still fits.
    auto nodes = Nodes(2, 2, &pool);
    auto replicas = overflowing(4);
    replicas[1].phi.flat().back() = 0;
    replicas[3].phi.flat().back() = 0;
    gpusim::Fabric fabric(2, gpusim::FabricTopology::kRing,
                          gpusim::Ethernet10G());
    EXPECT_NE(ThrownMessage([&] {
                SynchronizePhiAcrossNodes(nodes, cfg, replicas, fabric);
              }).find(kMessage),
              std::string::npos);
  }
}

}  // namespace
}  // namespace culda::core
