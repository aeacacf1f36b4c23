// dist:: names for the multi-node trainer, kept for code written against
// the former standalone cluster trainer. There is one trainer:
// core::CuldaTrainer over TrainerOptions::num_nodes nodes, whose inter-node
// φ exchange is TrainerOptions::mode (docs/distributed.md).
#pragma once

#include "core/sync.hpp"
#include "core/trainer.hpp"

namespace culda::dist {

using ClusterOptions = core::TrainerOptions;
using SweepStats = core::IterationStats;
using core::DistMode;
using core::DistModeName;
using core::kUnboundedStaleness;
using core::ParseDistMode;

class ClusterTrainer : public core::CuldaTrainer {
 public:
  using core::CuldaTrainer::CuldaTrainer;
  /// One sweep over the corpus (= one Step()).
  SweepStats Sweep() { return Step(); }
};

}  // namespace culda::dist
