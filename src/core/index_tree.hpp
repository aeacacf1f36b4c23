// F-ary index tree for multinomial sampling (Figure 5, Section 6.1.1).
//
// Sampling from a discrete distribution p[0..n) is transformed into a search
// problem: build the inclusive prefix sums of p, then find the minimal k
// with prefix[k] > u. CuLDA builds a 32-ary tree over the prefix sums — one
// warp inspects all 32 children of a node in lock-step — and keeps the tree
// in shared memory, so the two passes over p (mass computation and sampling)
// touch off-chip memory only once.
//
// Layout: the host stores only the leaf prefix array. The device tree's
// internal levels are implicit: level i+1 entry g would hold the last prefix
// value of the g-th group of `fanout` level-i entries, i.e. a copy of a leaf
// prefix, so building them adds nothing a binary search over the leaves
// needs. The simulated device still pays for them: StorageSlots is the full
// tree footprint that kernels bill and place in shared memory, and Search
// reports the comparisons of the F-ary top-down walk (at most `fanout`
// entries per level), derived from the chosen leaf.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "util/check.hpp"

namespace culda::core {

class IndexTreeView {
 public:
  /// Number of float slots the device tree over `n` probabilities occupies:
  /// the leaves plus every internal level.
  static size_t StorageSlots(size_t n, uint32_t fanout) {
    CULDA_DCHECK(fanout >= 2);
    const Arity arity(fanout);
    size_t slots = n;
    for (size_t level = n; level > fanout;) {
      level = arity.CeilDiv(level);
      slots += level;
    }
    return slots;
  }

  IndexTreeView() = default;

  /// Binds the view to external storage (shared memory in kernels) holding
  /// at least the n leaf prefix values.
  IndexTreeView(std::span<float> storage, size_t n, uint32_t fanout)
      : storage_(storage), n_(n), arity_(fanout) {
    CULDA_CHECK(fanout >= 2);
    CULDA_CHECK_MSG(storage.size() >= n, "index-tree storage too small");
  }

  size_t size() const { return n_; }

  /// Levels of the F-ary tree: the leaves plus the internal levels, the
  /// last of which has <= fanout entries.
  size_t levels() const {
    size_t count = 1;
    for (size_t level = n_; level > arity_.fanout;) {
      level = arity_.CeilDiv(level);
      ++count;
    }
    return count;
  }

  /// Builds the tree from probabilities `p` (length n). Returns the total
  /// mass (the last prefix sum). The device pays n adds for the leaves plus
  /// ~n/(F-1) copies for the internal levels; the host writes only the
  /// leaves.
  ///
  /// Contract: every p[i] must be finite and non-negative (checked
  /// per-element in debug builds; the final mass is checked in every
  /// build, so a NaN or net-negative input always fails loudly instead of
  /// producing a tree whose Search silently returns the last leaf). A
  /// legally-built tree may still have zero total mass (all-zero p);
  /// sampling from one is the caller's bug and is rejected by Search.
  float Build(std::span<const float> p) {
    CULDA_CHECK(p.size() == n_);
    return BuildWith([p](size_t i) { return p[i]; });
  }

  /// Build with p[i] = prob_at(i), so a kernel can compute the
  /// probabilities in the same pass that accumulates their prefix. Same
  /// contract and summation order as Build.
  template <typename ProbAt>
  float BuildWith(ProbAt&& prob_at) {
    if (n_ == 0) return 0.0f;
    float* leaves = storage_.data();
    float acc = 0;
    for (size_t i = 0; i < n_; ++i) {
      const float p = prob_at(i);
      CULDA_DCHECK(p >= 0.0f);
      acc += p;
      leaves[i] = acc;
    }
    if (!(std::isfinite(acc) && acc >= 0.0f)) BadMass(acc);
    return acc;
  }

  float TotalMass() const { return n_ == 0 ? 0.0f : storage_[n_ - 1]; }

  /// Finds the minimal k with prefix[k] > u (clamped to n-1 for u at or
  /// beyond the total mass, absorbing float round-off). `comparisons`, if
  /// given, receives the number of entries the F-ary top-down walk inspects
  /// to reach k — the cost a warp pays.
  ///
  /// Contract: `u` must be finite and non-negative, and the tree must have
  /// positive total mass. Both are checked in every build: a NaN draw or a
  /// zero-mass tree previously fell through the round-off clamp and
  /// silently returned the last leaf — a sampling bug indistinguishable
  /// from a legitimate draw (see tests/test_index_tree.cpp edge cases).
  size_t Search(float u, uint64_t* comparisons = nullptr) const {
    CULDA_CHECK_MSG(n_ > 0, "cannot sample from an empty index tree");
    CULDA_CHECK_MSG(std::isfinite(u) && u >= 0.0f,
                    "index-tree search point must be finite and "
                    "non-negative, got "
                        << u);
    CULDA_CHECK_MSG(TotalMass() > 0.0f,
                    "cannot sample from an index tree with total mass "
                        << TotalMass()
                        << "; the distribution has no support");
    // Binary search for the count of leaves <= u, which lies in
    // [lo, lo + len]. Each step is a conditional move, not a branch: the
    // halving decisions are data-dependent coin flips a branch predictor
    // cannot learn.
    const float* leaves = storage_.data();
    size_t lo = 0;
    for (size_t len = n_; len > 1;) {
      const size_t half = len / 2;
      lo += leaves[lo + half - 1] <= u ? half : 0;
      len -= half;
    }
    const size_t k = std::min(lo + (leaves[lo] <= u ? 1 : 0), n_ - 1);
    if (comparisons != nullptr) *comparisons = WalkComparisons(k);
    return k;
  }

  /// Leaf prefix value at k (prefix[k]); used by tests.
  float PrefixAt(size_t k) const { return storage_[k]; }

 private:
  /// The fanout plus its shift when it is a power of two, so the level
  /// arithmetic avoids 64-bit divisions for the usual F = 32.
  struct Arity {
    explicit Arity(uint32_t f = 32)
        : fanout(f), shift(std::has_single_bit(f) ? std::countr_zero(f) : 0) {}
    size_t Div(size_t x) const { return shift != 0 ? x >> shift : x / fanout; }
    size_t CeilDiv(size_t x) const { return Div(x + fanout - 1); }

    uint32_t fanout;
    int shift;  ///< log2(fanout) when a power of two, else 0
  };

  /// The mass check's failure path, out of line: formatting the message
  /// inside the build loop's function keeps its accumulator on the stack.
  [[noreturn, gnu::cold, gnu::noinline]] static void BadMass(float acc) {
    std::ostringstream msg;
    msg << "index-tree mass must be finite and non-negative, got " << acc
        << " (NaN or negative probabilities in the input)";
    detail::CheckFailed("std::isfinite(acc) && acc >= 0.0f", __FILE__,
                        __LINE__, msg.str());
  }

  /// Entries the top-down walk inspects to reach leaf k: at each level the
  /// walk scans the chosen node's group of siblings from the first one up
  /// to the node itself, i.e. (k / F^l) % F + 1 entries at level l.
  uint64_t WalkComparisons(size_t k) const {
    uint64_t inspected = 0;
    for (size_t index = k, level = n_;;) {
      const size_t parent = arity_.Div(index);
      inspected += index - parent * arity_.fanout + 1;
      if (level <= arity_.fanout) return inspected;
      index = parent;
      level = arity_.CeilDiv(level);
    }
  }

  std::span<float> storage_;
  size_t n_ = 0;
  Arity arity_;
};

/// An IndexTreeView plus owned storage, for host-side use (tests, CPU
/// baselines). Kernels bind views over shared memory instead.
class IndexTree {
 public:
  IndexTree(size_t n, uint32_t fanout)
      : storage_(n), view_(storage_, n, fanout) {}

  IndexTreeView& view() { return view_; }
  const IndexTreeView& view() const { return view_; }

 private:
  std::vector<float> storage_;
  IndexTreeView view_;
};

}  // namespace culda::core
