#include <gtest/gtest.h>

#include <unordered_set>

#include "common/error.hpp"
#include "common/units.hpp"
#include "storage/device.hpp"
#include "storage/file.hpp"

namespace frieda::storage {
namespace {

TEST(FileCatalog, AddAndLookup) {
  FileCatalog cat;
  const auto a = cat.add_file("img_000.tif", 7 * MB);
  const auto b = cat.add_file("img_001.tif", 8 * MB);
  EXPECT_EQ(cat.count(), 2u);
  EXPECT_EQ(cat.info(a).name, "img_000.tif");
  EXPECT_EQ(cat.info(b).size, 8 * MB);
  EXPECT_EQ(cat.total_bytes(), 15 * MB);
  EXPECT_EQ(cat.all_ids(), (std::vector<FileId>{0, 1}));
  EXPECT_THROW(cat.info(7), FriedaError);
}

TEST(ReplicaMap, AddRemoveQuery) {
  ReplicaMap rm;
  rm.add(0, 1);
  rm.add(0, 2);
  rm.add(1, 1);
  EXPECT_TRUE(rm.has(0, 1));
  EXPECT_FALSE(rm.has(1, 2));
  EXPECT_EQ(rm.replica_count(0), 2u);
  EXPECT_EQ(rm.nodes_with(0), (std::unordered_set<net::NodeId>{1, 2}));
  EXPECT_TRUE(rm.nodes_with(5).empty());  // never added
  EXPECT_EQ(rm.files_on(1), (std::vector<FileId>{0, 1}));
  const auto& holders = rm.nodes_with(0);  // a view, not a copy
  rm.remove(0, 1);
  EXPECT_FALSE(rm.has(0, 1));
  EXPECT_EQ(rm.replica_count(0), 1u);
  EXPECT_EQ(holders, (std::unordered_set<net::NodeId>{2}));
  rm.remove(0, 99);  // no-op
}

TEST(ReplicaMap, AddIsIdempotent) {
  ReplicaMap rm;
  rm.add(3, 7);
  rm.add(3, 7);
  EXPECT_EQ(rm.replica_count(3), 1u);
}

TEST(ReplicaMap, DropNodeForgetsTransientData) {
  ReplicaMap rm;
  rm.add(0, 1);
  rm.add(1, 1);
  rm.add(0, 2);
  rm.drop_node(1);
  EXPECT_FALSE(rm.has(0, 1));
  EXPECT_FALSE(rm.has(1, 1));
  EXPECT_TRUE(rm.has(0, 2));
  EXPECT_TRUE(rm.files_on(1).empty());
}

TEST(ReplicaMap, BytesOnNode) {
  FileCatalog cat;
  cat.add_file("a", 5 * MB);
  cat.add_file("b", 3 * MB);
  ReplicaMap rm;
  rm.add(0, 4);
  rm.add(1, 4);
  EXPECT_EQ(rm.bytes_on(4, cat), 8 * MB);
  EXPECT_EQ(rm.bytes_on(9, cat), 0u);
}

TEST(LocalDisk, CapacityAccounting) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(100), mBps(100), 10 * MB);
  EXPECT_EQ(disk.capacity(), 10 * MB);
  EXPECT_TRUE(disk.allocate(6 * MB));
  EXPECT_EQ(disk.used(), 6 * MB);
  EXPECT_EQ(disk.available(), 4 * MB);
  EXPECT_FALSE(disk.allocate(5 * MB));  // over budget
  disk.release(2 * MB);
  EXPECT_TRUE(disk.allocate(5 * MB));
  EXPECT_THROW(disk.release(100 * MB), FriedaError);
}

TEST(LocalDisk, ReadTakesBytesOverBandwidth) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(100), mBps(50), GiB);
  IoResult r_read, r_write;
  sim.spawn([](LocalDisk& d, IoResult& rr, IoResult& rw) -> sim::Task<> {
    rr = co_await d.read(200 * MB);   // 2 s
    rw = co_await d.write(200 * MB);  // 4 s
  }(disk, r_read, r_write));
  sim.run();
  EXPECT_TRUE(r_read.ok);
  EXPECT_NEAR(r_read.duration, 2.0, 1e-9);
  EXPECT_TRUE(r_write.ok);
  EXPECT_NEAR(r_write.duration, 4.0, 1e-9);
}

TEST(LocalDisk, ConcurrentReadsShareBandwidth) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(100), mBps(100), GiB);
  std::vector<IoResult> results(2);
  for (auto& r : results) {
    sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
      out = co_await d.read(100 * MB);
    }(disk, r));
  }
  sim.run();
  EXPECT_NEAR(results[0].duration, 2.0, 1e-9);  // half rate each
  EXPECT_NEAR(results[1].duration, 2.0, 1e-9);
}

TEST(LocalDisk, FailAbortsInFlightIo) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(10), mBps(10), GiB);
  IoResult result;
  sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
    out = co_await d.read(GB);  // 100 s alone
  }(disk, result));
  sim.schedule_at(5.0, [&] { disk.fail(); });
  sim.run();
  EXPECT_FALSE(result.ok);
  EXPECT_NEAR(result.duration, 5.0, 1e-9);

  // After failure, new I/O fails instantly until restore().
  IoResult after;
  sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
    out = co_await d.read(MB);
  }(disk, after));
  sim.run();
  EXPECT_FALSE(after.ok);
  disk.restore();
  sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
    out = co_await d.read(MB);
  }(disk, after));
  sim.run();
  EXPECT_TRUE(after.ok);
}

TEST(SharedService, ZeroBytesImmediate) {
  sim::Simulation sim;
  SharedService svc(sim, mBps(1));
  IoResult result{false, 99.0};
  sim.spawn([](SharedService& s, IoResult& out) -> sim::Task<> {
    out = co_await s.submit(0);
  }(svc, result));
  sim.run();
  EXPECT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.duration, 0.0);
  EXPECT_EQ(svc.active(), 0u);
}

}  // namespace
}  // namespace frieda::storage
