// Tests of the threaded runtime: MPMC queue, token bucket, and end-to-end
// runs over real files in a temp directory.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "frieda/partition.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/rt_engine.hpp"
#include "runtime/token_bucket.hpp"

namespace frieda::rt {
namespace {

namespace fs = std::filesystem;

TEST(MpmcQueue, PushPopOrder) {
  MpmcQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  int v = 0;
  EXPECT_EQ(q.try_pop(v), PopStatus::kItem);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(q.try_pop(v), PopStatus::kEmpty);
  EXPECT_EQ(v, 2);  // a non-pop leaves the out-parameter untouched
}

TEST(MpmcQueue, TryPopDistinguishesEmptyFromClosed) {
  // The tri-state a poller needs: empty-but-open says "retry", closed-and-
  // drained says "done forever".  The old optional API conflated the two.
  MpmcQueue<int> q;
  int v = 0;
  EXPECT_EQ(q.try_pop(v), PopStatus::kEmpty);
  EXPECT_FALSE(q.drained());
  q.push(3);
  q.close();
  EXPECT_FALSE(q.drained());  // closed but not yet drained
  EXPECT_EQ(q.try_pop(v), PopStatus::kItem);
  EXPECT_EQ(v, 3);
  EXPECT_EQ(q.try_pop(v), PopStatus::kClosed);
  EXPECT_TRUE(q.drained());
}

TEST(MpmcQueue, TryPopHalfTakesFrontHalfInOrder) {
  MpmcQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  std::vector<int> loot;
  EXPECT_EQ(q.try_pop_half(loot), 3u);  // ceil(5/2)
  EXPECT_EQ(loot, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop_half(loot), 1u);  // ceil(2/2), appends
  EXPECT_EQ(loot, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.try_pop_half(loot), 1u);
  EXPECT_EQ(q.try_pop_half(loot), 0u);  // empty: nothing to steal
  EXPECT_EQ(loot.size(), 5u);
}

TEST(MpmcQueue, CloseDrainsThenNullopt) {
  MpmcQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.pop(), std::optional<int>(7));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(MpmcQueue, CloseWakesBlockedConsumer) {
  MpmcQueue<int> q;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    EXPECT_EQ(q.pop(), std::nullopt);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(woke);
}

TEST(MpmcQueue, ManyProducersManyConsumers) {
  MpmcQueue<int> q;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&q] {
      for (int i = 0; i < 250; ++i) q.push(1);
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum += *v;
    });
  }
  for (int p = 0; p < 4; ++p) threads[p].join();
  q.close();
  for (std::size_t c = 4; c < threads.size(); ++c) threads[c].join();
  EXPECT_EQ(sum.load(), 1000);
}

TEST(TokenBucket, UnlimitedNeverBlocks) {
  TokenBucket bucket(0.0);
  const auto start = std::chrono::steady_clock::now();
  bucket.acquire(1ull << 40);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
            0.05);
}

TEST(TokenBucket, ThrottlesToConfiguredRate) {
  TokenBucket bucket(10e6, /*burst=*/1e6);  // 10 MB/s
  bucket.acquire(1'000'000);                // drain the initial burst
  const auto start = std::chrono::steady_clock::now();
  bucket.acquire(2'000'000);  // 2 MB at 10 MB/s ~ 0.2 s
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(took, 0.1);
  EXPECT_LT(took, 0.6);
}

TEST(TokenBucket, NegativeRateThrows) { EXPECT_THROW(TokenBucket(-1.0), FriedaError); }

TEST(TokenBucket, SustainedRateIsAccurate) {
  // Regression for the over-waiting acquire: chunked acquires must sustain
  // the configured rate, not a capped fraction of it.  Move 4 MB in 64 KiB
  // chunks (the runtime's copy granularity) at 20 MB/s: the 1 MB initial
  // burst is free, the remaining 3 MB cost 0.15 s at rate.
  const double rate = 20e6;
  TokenBucket bucket(rate, /*burst=*/1e6);
  const std::uint64_t chunk = 64 * 1024;
  const std::uint64_t total = 4'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t moved = 0; moved < total; moved += chunk) {
    bucket.acquire(std::min(chunk, total - moved));
  }
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double expected = (total - 1e6) / rate;  // 0.15 s
  EXPECT_GT(took, expected * 0.7);
  EXPECT_LT(took, expected * 2.0 + 0.05);  // generous: CI schedulers jitter
}

TEST(TokenBucket, AccumulatedCreditEliminatesTheWait) {
  // Tokens already in the bucket must shorten the wait: after an idle period
  // refills the burst, an acquire within the burst returns immediately.
  TokenBucket bucket(10e6, /*burst=*/1e6);
  bucket.acquire(1'000'000);  // drain the initial burst (no wait)
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // refill >= 1 MB
  const auto start = std::chrono::steady_clock::now();
  bucket.acquire(900'000);  // fully covered by the refilled credit
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(took, 0.05);
}

// ---- RtEngine end-to-end ----

class RtEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) / ("frieda_rt_" + std::to_string(::getpid()));
    source_ = (root_ / "source").string();
    staging_ = (root_ / "staging").string();
    fs::remove_all(root_);
    catalog_ = make_dataset(source_, 12, 64 * KiB, 99);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  std::string source_;
  std::string staging_;
  storage::FileCatalog catalog_;
};

TEST_F(RtEngineTest, DatasetGeneratorMakesRealFiles) {
  EXPECT_EQ(catalog_.count(), 12u);
  for (const auto& f : catalog_.files()) {
    const auto p = fs::path(source_) / f.name;
    ASSERT_TRUE(fs::exists(p));
    EXPECT_EQ(fs::file_size(p), 64 * KiB);
  }
}

TEST_F(RtEngineTest, ScansCatalogSorted) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kPrePartitionLocal;
  opt.worker_count = 2;
  RtEngine engine(source_, opt);
  ASSERT_EQ(engine.catalog().count(), 12u);
  EXPECT_EQ(engine.catalog().info(0).name, "input_00000.dat");
  EXPECT_EQ(engine.catalog().info(11).name, "input_00011.dat");
}

TEST_F(RtEngineTest, RealTimeRunStagesAndExecutes) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 3;
  opt.staging_root = staging_;
  opt.keep_staged_files = false;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  std::atomic<int> executed{0};
  // The first worker_count executions wait for one another.  A worker runs
  // one unit at a time, so once they have all arrived every worker holds
  // one: participation is guaranteed instead of depending on scheduling.
  std::mutex barrier_mutex;
  std::condition_variable barrier;
  int arrived = 0;
  bool barrier_timed_out = false;
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("analyze $inp1"),
      [&](const core::WorkUnit&, const std::vector<std::string>& paths,
          const std::string& command) {
        EXPECT_EQ(paths.size(), 1u);
        EXPECT_TRUE(fs::exists(paths[0]));                    // bytes really arrived
        EXPECT_EQ(fs::file_size(paths[0]), 64 * KiB);
        EXPECT_NE(command.find("analyze "), std::string::npos);
        {
          std::unique_lock lock(barrier_mutex);
          if (arrived < static_cast<int>(opt.worker_count)) {
            ++arrived;
            barrier.notify_all();
            if (!barrier.wait_for(lock, std::chrono::seconds(10), [&] {
                  return arrived == static_cast<int>(opt.worker_count);
                })) {
              barrier_timed_out = true;
            }
          }
        }
        ++executed;
        return true;
      });
  EXPECT_FALSE(barrier_timed_out) << "the workers never ran concurrently";
  EXPECT_EQ(executed.load(), 12);
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.units_completed, 12u);
  EXPECT_EQ(report.bytes_staged, 12u * 64 * KiB);
  EXPECT_FALSE(fs::exists(fs::path(staging_) / "worker0"));  // cleaned up
  // Every worker participated.
  for (const auto c : report.per_worker_completed) EXPECT_GT(c, 0u);
}

TEST_F(RtEngineTest, PrePartitionRemoteStagesUpFront) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kPrePartitionRemote;
  opt.worker_count = 2;
  opt.staging_root = staging_;
  opt.keep_staged_files = true;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const auto report = engine.run(std::move(units), core::CommandTemplate("app $inp1"),
                                 [](const core::WorkUnit&, const std::vector<std::string>&,
                                    const std::string&) { return true; });
  EXPECT_TRUE(report.all_completed());
  EXPECT_GT(report.staging_seconds, 0.0);
  // Round-robin: worker0 got even units, worker1 odd ones; staged copies stay.
  EXPECT_TRUE(fs::exists(fs::path(staging_) / "worker0" / "input_00000.dat"));
  EXPECT_TRUE(fs::exists(fs::path(staging_) / "worker1" / "input_00001.dat"));
}

TEST_F(RtEngineTest, PrePartitionLocalUsesSourceInPlace) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kPrePartitionLocal;
  opt.worker_count = 2;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kPairwiseAdjacent,
                                                  engine.catalog());
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("compare $inp1 $inp2"),
      [&](const core::WorkUnit&, const std::vector<std::string>& paths, const std::string&) {
        EXPECT_EQ(paths.size(), 2u);
        // Paths point into the source directory: no copies were made.
        EXPECT_NE(paths[0].find(source_), std::string::npos);
        return true;
      });
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.units_completed, 6u);
  EXPECT_EQ(report.bytes_staged, 0u);
}

TEST_F(RtEngineTest, FailingTasksAreRecorded) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 2;
  opt.staging_root = staging_;
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("app $inp1"),
      [](const core::WorkUnit& unit, const std::vector<std::string>&, const std::string&) {
        return unit.id % 3 != 0;  // every third unit fails
      });
  EXPECT_EQ(report.units_failed, 4u);
  EXPECT_EQ(report.units_completed, 8u);
  EXPECT_FALSE(report.all_completed());
  for (const auto& rec : report.units) {
    EXPECT_EQ(rec.ok, rec.unit % 3 != 0);
  }
}

TEST_F(RtEngineTest, ThrottledStagingTakesRealTime) {
  RtOptions opt;
  opt.strategy = core::PlacementStrategy::kRealTime;
  opt.worker_count = 2;
  opt.staging_root = staging_;
  opt.bandwidth = 2e6;  // 2 MB/s for 12 x 64 KiB = 768 KiB => ~0.4 s minimum
  RtEngine engine(source_, opt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const auto start = std::chrono::steady_clock::now();
  const auto report = engine.run(std::move(units), core::CommandTemplate("app $inp1"),
                                 [](const core::WorkUnit&, const std::vector<std::string>&,
                                    const std::string&) { return true; });
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_TRUE(report.all_completed());
  EXPECT_GT(took, 0.2);  // the bucket really throttled
}

TEST_F(RtEngineTest, InvalidConfigurationsThrow) {
  RtOptions opt;
  opt.worker_count = 0;
  EXPECT_THROW(RtEngine(source_, opt), FriedaError);

  RtOptions no_staging;
  no_staging.strategy = core::PlacementStrategy::kRealTime;
  no_staging.staging_root.clear();
  EXPECT_THROW(RtEngine(source_, no_staging), FriedaError);

  RtOptions bad_strategy;
  bad_strategy.strategy = core::PlacementStrategy::kNoPartitionCommon;
  bad_strategy.staging_root = staging_;
  EXPECT_THROW(RtEngine(source_, bad_strategy), FriedaError);

  RtOptions ok;
  ok.staging_root = staging_;
  EXPECT_THROW(RtEngine("/nonexistent/dir", ok), FriedaError);
}

}  // namespace
}  // namespace frieda::rt
