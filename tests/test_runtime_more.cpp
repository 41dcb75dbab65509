// Additional threaded-runtime coverage: paired inputs, assignment policies,
// concurrency stress, and command binding fidelity.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "frieda/partition.hpp"
#include "obs/trace.hpp"
#include "obs/vocab.hpp"
#include "runtime/rt_engine.hpp"

namespace frieda::rt {
namespace {

namespace fs = std::filesystem;

class RtMoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) / ("frieda_rt_more_" + std::to_string(::getpid()));
    source_ = (root_ / "source").string();
    staging_ = (root_ / "staging").string();
    fs::remove_all(root_);
    make_dataset(source_, 16, 32 * KiB, 5);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  std::string source_;
  std::string staging_;
};

TEST_F(RtMoreTest, PairwiseSchemeDeliversBothFiles) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 2;
  opt.staging_root = staging_;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kPairwiseAdjacent,
                                                  engine.catalog());
  std::mutex mu;
  std::set<std::string> seen;
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("compare $inp1 $inp2"),
      [&](const core::WorkUnit&, const std::vector<std::string>& paths,
          const std::string& command) {
        EXPECT_EQ(paths.size(), 2u);
        EXPECT_TRUE(fs::exists(paths[0]));
        EXPECT_TRUE(fs::exists(paths[1]));
        EXPECT_NE(command.find(paths[0]), std::string::npos);
        EXPECT_NE(command.find(paths[1]), std::string::npos);
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(paths[0]);
        seen.insert(paths[1]);
        return true;
      });
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.units_completed, 8u);
  EXPECT_EQ(seen.size(), 16u);  // every file appeared exactly once per pair
}

TEST_F(RtMoreTest, SizeBalancedAssignmentPolicy) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kPrePartitionLocal;
  opt.assignment = core::AssignmentPolicy::kSizeBalanced;
  opt.worker_count = 4;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const auto report = engine.run(std::move(units), core::CommandTemplate("app $inp1"),
                                 [](const core::WorkUnit&, const std::vector<std::string>&,
                                    const std::string&) { return true; });
  EXPECT_TRUE(report.all_completed());
  // Uniform sizes + LPT => even split.
  for (const auto n : report.per_worker_completed) EXPECT_EQ(n, 4u);
}

TEST_F(RtMoreTest, ManyWorkersStress) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 8;  // more threads than inputs per wave
  opt.staging_root = staging_;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  std::atomic<int> concurrent{0}, peak{0};
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("app $inp1"),
      [&](const core::WorkUnit&, const std::vector<std::string>&, const std::string&) {
        const int now = ++concurrent;
        int expected = peak.load();
        while (now > expected && !peak.compare_exchange_weak(expected, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        --concurrent;
        return true;
      });
  EXPECT_TRUE(report.all_completed());
  EXPECT_GT(peak.load(), 1);  // genuine parallel execution
}

TEST_F(RtMoreTest, EveryWorkerRegistersWhenWorkersOutnumberUnits) {
  // One unit for four workers: the unit can end before the other threads
  // have pushed their RegisterWorker, which must still reach the trace.
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kPrePartitionLocal;
  opt.worker_count = 4;
  for (int run = 0; run < 50; ++run) {
    obs::Tracer tracer;
    opt.tracer = &tracer;
    RtEngine engine(source_, opt);
    auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                    engine.catalog());
    units.resize(1);
    const auto report = engine.run(
        std::move(units), core::CommandTemplate("app $inp1"),
        [](const core::WorkUnit&, const std::vector<std::string>&, const std::string&) {
          return true;
        });
    ASSERT_TRUE(report.all_completed());
    std::set<std::string> registered;
    for (const auto& e : tracer.events()) {
      if (e.name == obs::event::kRegisterWorker) registered.insert(e.args.at(0).value);
    }
    ASSERT_EQ(registered.size(), opt.worker_count) << "run " << run;
  }
}

TEST_F(RtMoreTest, RunValidation) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 1;
  opt.staging_root = staging_;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  EXPECT_THROW(engine.run(units, core::CommandTemplate("app $inp1 $inp2"),
                          [](const core::WorkUnit&, const std::vector<std::string>&,
                             const std::string&) { return true; }),
               FriedaError);
  EXPECT_THROW(engine.run(std::move(units), core::CommandTemplate("app $inp1"), nullptr),
               FriedaError);
}

TEST_F(RtMoreTest, EmptyUnitListIsVacuousSuccess) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 2;
  opt.staging_root = staging_;
  RtEngine engine(source_, opt);
  std::atomic<int> calls{0};
  const auto report = engine.run(
      {}, core::CommandTemplate("app $inp1"),
      [&](const core::WorkUnit&, const std::vector<std::string>&, const std::string&) {
        ++calls;
        return true;
      });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(report.units_completed, 0u);
  EXPECT_EQ(report.units_failed, 0u);
  EXPECT_TRUE(report.units.empty());
  // Nothing was asked for and nothing failed: vacuously complete.
  EXPECT_TRUE(report.all_completed());
}

}  // namespace
}  // namespace frieda::rt
