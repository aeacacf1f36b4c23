// Tests for the profiler report and Chrome trace export.
#include <gtest/gtest.h>

#include <sstream>

#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "gpusim/profiler.hpp"
#include "obs/trace.hpp"

namespace culda::gpusim {
namespace {

TEST(Profiler, PrintProfileListsKernels) {
  Device dev(TitanXMaxwell(), 0);
  dev.Launch("alpha_kernel", {4, 64},
             [](BlockContext& ctx) { ctx.ReadGlobal(1024); });
  dev.Launch("beta_kernel", {1, 32}, [](BlockContext&) {});
  std::ostringstream out;
  PrintProfile(dev, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("alpha_kernel"), std::string::npos);
  EXPECT_NE(s.find("beta_kernel"), std::string::npos);
  EXPECT_NE(s.find("TITAN X"), std::string::npos);
}

TEST(Profiler, TraceDisabledByDefault) {
  Device dev(TitanXMaxwell(), 0);
  dev.Launch("k", {1, 32}, [](BlockContext&) {});
  EXPECT_TRUE(dev.trace().empty());
}

TEST(Profiler, TraceRecordsLaunchesAndTransfers) {
  Device dev(TitanXMaxwell(), 0);
  dev.set_record_trace(true);
  dev.Launch("k", {1, 32}, [](BlockContext& ctx) { ctx.ReadGlobal(1 << 20); });
  dev.RecordTransfer(4096, "h2d");
  ASSERT_EQ(dev.trace().size(), 2u);
  EXPECT_EQ(dev.trace()[0].name, "k");
  EXPECT_EQ(dev.trace()[1].name, "memcpy_h2d");
  EXPECT_GT(dev.trace()[0].end_s, dev.trace()[0].start_s);
  // In-order on one stream.
  EXPECT_GE(dev.trace()[1].start_s, dev.trace()[0].end_s - 1e-12);
}

TEST(Profiler, ChromeTraceIsWellFormedJson) {
  Device dev(V100Volta(), 3);
  dev.set_record_trace(true);
  dev.Launch("sampling", {2, 64},
             [](BlockContext& ctx) { ctx.ReadGlobal(1 << 16); },
             &dev.stream(0));
  dev.Launch("update", {1, 32},
             [](BlockContext& ctx) { ctx.WriteGlobal(1 << 10); },
             &dev.stream(1));
  std::ostringstream out;
  WriteChromeTrace(dev, out);
  const std::string s = out.str();
  EXPECT_EQ(s.front(), '[');
  EXPECT_NE(s.find("\"name\": \"sampling\""), std::string::npos);
  EXPECT_NE(s.find("\"pid\": 3"), std::string::npos);
  EXPECT_NE(s.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  // Events are comma-separated: 2 events → exactly 1 separator line.
  EXPECT_NE(s.find("},\n"), std::string::npos);
}

TEST(Profiler, GroupTraceCoversAllDevices) {
  DeviceGroup group({TitanXpPascal(), TitanXpPascal()});
  for (size_t g = 0; g < group.size(); ++g) {
    group.device(g).set_record_trace(true);
    group.device(g).Launch("k", {1, 32}, [](BlockContext&) {});
  }
  std::ostringstream out;
  WriteChromeTrace(group, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"pid\": 1"), std::string::npos);
}

TEST(Profiler, TrainerTraceShowsTheKernelPipeline) {
  corpus::SyntheticProfile p;
  p.num_docs = 150;
  p.vocab_size = 200;
  const auto c = corpus::GenerateCorpus(p);
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  core::CuldaTrainer trainer(c, cfg, {});
  trainer.group().device(0).set_record_trace(true);
  trainer.Step();
  std::ostringstream out;
  WriteChromeTrace(trainer.group(), out);
  const std::string s = out.str();
  EXPECT_NE(s.find("sampling"), std::string::npos);
  EXPECT_NE(s.find("update_phi"), std::string::npos);
  EXPECT_NE(s.find("update_theta"), std::string::npos);
}

TEST(Profiler, ResetProfileClearsTrace) {
  Device dev(TitanXMaxwell(), 0);
  dev.set_record_trace(true);
  dev.Launch("k", {1, 32}, [](BlockContext&) {});
  dev.ResetProfile();
  EXPECT_TRUE(dev.trace().empty());
}

TEST(Profiler, ProfileJsonMirrorsThePrintedTable) {
  Device dev(TitanXMaxwell(), 2);
  dev.Launch("alpha_kernel", {4, 64},
             [](BlockContext& ctx) { ctx.ReadGlobal(1024); });
  dev.Launch("alpha_kernel", {4, 64},
             [](BlockContext& ctx) { ctx.ReadGlobal(1024); });
  dev.Launch("beta_kernel", {1, 32}, [](BlockContext&) {});
  dev.RecordTransfer(4096, "h2d");
  std::ostringstream out;
  WriteProfileJson(dev, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"schema\":\"culda.profile.v1\""), std::string::npos);
  EXPECT_NE(s.find("\"alpha_kernel\":{\"launches\":2"), std::string::npos);
  EXPECT_NE(s.find("\"beta_kernel\":{\"launches\":1"), std::string::npos);
  EXPECT_NE(s.find("\"id\":2"), std::string::npos);
  EXPECT_NE(s.find("\"transfer_bytes\":4096"), std::string::npos);
}

TEST(Profiler, GroupProfileJsonListsEveryDevice) {
  DeviceGroup group({TitanXpPascal(), TitanXpPascal()});
  for (size_t g = 0; g < group.size(); ++g) {
    group.device(g).Launch("k", {1, 32}, [](BlockContext&) {});
  }
  std::ostringstream out;
  WriteProfileJson(group, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"devices\":[{"), std::string::npos);
  EXPECT_NE(s.find("\"id\":0"), std::string::npos);
  EXPECT_NE(s.find("\"id\":1"), std::string::npos);
  EXPECT_NE(s.find("\"peer_bytes\""), std::string::npos);
}

TEST(Profiler, MergedTraceCombinesHostSpansAndDeviceEvents) {
  corpus::SyntheticProfile p;
  p.num_docs = 150;
  p.vocab_size = 200;
  const auto c = corpus::GenerateCorpus(p);
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  core::CuldaTrainer trainer(c, cfg, {});
  trainer.group().device(0).set_record_trace(true);

  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Reset();
  tracer.set_enabled(true);
  trainer.Step();
  tracer.set_enabled(false);

  std::ostringstream out;
  WriteMergedChromeTrace(trainer.group(), tracer, out);
  tracer.Reset();
  const std::string s = out.str();
  // One JSON object with both timelines: simulated kernels under the
  // device pid, trainer phases under the host pid.
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"sampling\""), std::string::npos);
  EXPECT_NE(s.find("\"train/step\""), std::string::npos);
  EXPECT_NE(s.find("\"pid\":" + std::to_string(obs::kHostTracePid)),
            std::string::npos);
  EXPECT_NE(s.find("\"host (wall clock)\""), std::string::npos);
  EXPECT_NE(s.find("\"stream 0\""), std::string::npos);
}

TEST(Profiler, MultiNodeProfileAndTraceCoverEveryNode) {
  corpus::SyntheticProfile p;
  p.num_docs = 150;
  p.vocab_size = 200;
  const auto c = corpus::GenerateCorpus(p);
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  core::TrainerOptions opts;
  opts.num_nodes = 2;
  opts.gpus.assign(2, V100Volta());
  opts.mode = core::DistMode::kAsync;
  core::CuldaTrainer trainer(c, cfg, opts);
  for (DeviceGroup& node : trainer.nodes()) {
    for (size_t g = 0; g < node.size(); ++g) {
      node.device(g).set_record_trace(true);
    }
  }
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Reset();
  tracer.set_enabled(true);
  trainer.Step();
  tracer.set_enabled(false);

  std::ostringstream profile;
  WriteProfileJson(trainer.nodes(), profile);
  const std::string ps = profile.str();
  size_t devices = 0;
  for (size_t at = ps.find("\"id\":"); at != std::string::npos;
       at = ps.find("\"id\":", at + 1)) {
    ++devices;
  }
  EXPECT_EQ(devices, 4u);
  // Device ids are n·G + g: unique across the two nodes.
  for (int id = 0; id < 4; ++id) {
    EXPECT_NE(ps.find("\"id\":" + std::to_string(id) + ","),
              std::string::npos)
        << id;
  }

  std::ostringstream trace;
  WriteMergedChromeTrace(trainer.nodes(), tracer, trace);
  tracer.Reset();
  const std::string ts = trace.str();
  for (int id = 0; id < 4; ++id) {
    EXPECT_NE(ts.find("(device " + std::to_string(id) + ")"),
              std::string::npos)
        << id;
    EXPECT_NE(ts.find("\"pid\":" + std::to_string(id) + ","),
              std::string::npos)
        << id;
  }
  EXPECT_EQ(ts.find("(device 4)"), std::string::npos);
  EXPECT_NE(ts.find("\"pid\":" + std::to_string(obs::kHostTracePid)),
            std::string::npos);
}

}  // namespace
}  // namespace culda::gpusim
