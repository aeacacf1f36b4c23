// Model state for CuLDA training.
//
// Partition-by-document (Section 4): the corpus is split into chunks; every
// chunk owns its documents' θ rows outright (no synchronization needed),
// while each GPU accumulates a φ replica from its local tokens that must be
// reduced and re-broadcast every iteration.
//
// Data representations follow Section 6.1.3: θ is CSR with 16-bit topic
// indices; φ is a dense K×V matrix of 16-bit counts; per-topic totals
// n_k = Σ_v φ_kv are 32-bit (they exceed 2^16 on any real corpus).
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "corpus/word_first.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace culda::core {

using ThetaMatrix = sparse::CsrMatrix<uint16_t, int32_t>;
using PhiMatrix = sparse::DenseMatrix<uint16_t>;

/// Host-resident state of one corpus chunk: the word-first token layout, the
/// per-block work list, the current topic assignment z, and the chunk's θ
/// rows. (The simulator is functional — "device" copies of these arrays are
/// capacity/transfer bookkeeping on the owning gpusim::Device.)
struct ChunkState {
  corpus::WordFirstChunk layout;
  std::vector<corpus::BlockWork> work;
  std::vector<uint16_t> z;  ///< topic per token, in word-first order
  ThetaMatrix theta;        ///< rows = chunk-local documents

  uint64_t num_tokens() const { return layout.num_tokens(); }
  uint64_t num_docs() const { return layout.num_docs(); }

  /// Device footprint of this chunk (tokens + doc map + z + θ at its dense
  /// worst case), used for the scheduler's capacity check (Section 5.1).
  uint64_t DeviceBytes(const CuldaConfig& cfg) const {
    const uint64_t theta_worst =
        num_tokens() * (cfg.theta_index_bytes() + sizeof(int32_t)) +
        (num_docs() + 1) * sizeof(uint64_t);
    return layout.DeviceBytes() + z.size() * sizeof(uint16_t) + theta_worst;
  }
};

/// Per-device replica state: φ and n_k.
struct PhiReplica {
  uint32_t num_topics = 0;
  uint32_t vocab_size = 0;
  PhiMatrix phi;              ///< K×V counts
  std::vector<int32_t> nk;    ///< per-topic totals, derived from φ

  PhiReplica() = default;
  PhiReplica(uint32_t k, uint32_t v)
      : num_topics(k), vocab_size(v), phi(k, v), nk(k, 0) {}

  /// Recomputes n_k from φ (host-side reference; the kernel variant bills
  /// its traffic through the device).
  void RecomputeTotals() { RecomputeTotals(0, num_topics); }
  /// Recomputes n_k for topics [k_first, k_last) only.
  void RecomputeTotals(uint32_t k_first, uint32_t k_last) {
    for (uint32_t k = k_first; k < k_last; ++k) {
      int64_t sum = 0;
      for (const uint16_t c : phi.Row(k)) sum += c;
      nk[k] = static_cast<int32_t>(sum);
    }
  }
};

/// The full trained model gathered back to the host (Algorithm 1 lines
/// 17–20): θ over all documents plus the synchronized φ.
struct GatheredModel {
  uint32_t num_topics = 0;
  uint32_t vocab_size = 0;
  uint64_t num_docs = 0;
  ThetaMatrix theta;  ///< rows = all documents, in corpus order
  PhiMatrix phi;
  std::vector<int32_t> nk;

  /// Consistency invariants: Σ_k θ_dk = len_d for every d, Σ_v φ_kv = n_k,
  /// ΣΣ φ = total tokens. Throws on violation.
  void Validate(const corpus::Corpus& corpus) const;
};

}  // namespace culda::core
