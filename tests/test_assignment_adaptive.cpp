#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "common/error.hpp"
#include "frieda/adaptive.hpp"
#include "frieda/assignment.hpp"
#include "frieda/partition.hpp"

namespace frieda::core {
namespace {

std::vector<WorkUnit> make_units(const storage::FileCatalog& cat) {
  return PartitionGenerator::generate(PartitionScheme::kSingleFile, cat);
}

storage::FileCatalog uniform_catalog(std::size_t n, Bytes size = MB) {
  storage::FileCatalog cat;
  for (std::size_t i = 0; i < n; ++i) cat.add_file("f" + std::to_string(i), size);
  return cat;
}

TEST(Assignment, RoundRobin) {
  const auto cat = uniform_catalog(7);
  const auto units = make_units(cat);
  const auto a = assign_units(AssignmentPolicy::kRoundRobin, units, cat, 3);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0], (std::vector<WorkUnitId>{0, 3, 6}));
  EXPECT_EQ(a[1], (std::vector<WorkUnitId>{1, 4}));
  EXPECT_EQ(a[2], (std::vector<WorkUnitId>{2, 5}));
}

TEST(Assignment, Block) {
  const auto cat = uniform_catalog(7);
  const auto units = make_units(cat);
  const auto a = assign_units(AssignmentPolicy::kBlock, units, cat, 3);
  EXPECT_EQ(a[0], (std::vector<WorkUnitId>{0, 1, 2}));
  EXPECT_EQ(a[1], (std::vector<WorkUnitId>{3, 4, 5}));
  EXPECT_EQ(a[2], (std::vector<WorkUnitId>{6}));
}

TEST(Assignment, SizeBalancedBeatsRoundRobinOnSkew) {
  storage::FileCatalog cat;
  // Sizes engineered so round-robin is lopsided.
  for (const Bytes s : {100 * MB, MB, MB, 90 * MB, MB, MB}) {
    cat.add_file("f" + std::to_string(cat.count()), s);
  }
  const auto units = make_units(cat);
  const auto balanced = assign_units(AssignmentPolicy::kSizeBalanced, units, cat, 2);
  const auto naive = assign_units(AssignmentPolicy::kRoundRobin, units, cat, 2);
  const auto load = [&](const std::vector<WorkUnitId>& list) {
    Bytes total = 0;
    for (const auto u : list) total += units[u].input_bytes(cat);
    return total;
  };
  const auto spread = [&](const std::vector<std::vector<WorkUnitId>>& a) {
    const Bytes l0 = load(a[0]), l1 = load(a[1]);
    return l0 > l1 ? l0 - l1 : l1 - l0;
  };
  EXPECT_LT(spread(balanced), spread(naive));
}

TEST(Assignment, EveryUnitAssignedExactlyOnce) {
  const auto cat = uniform_catalog(23);
  const auto units = make_units(cat);
  for (const auto policy : {AssignmentPolicy::kRoundRobin, AssignmentPolicy::kBlock,
                            AssignmentPolicy::kSizeBalanced}) {
    for (const std::size_t workers : {1u, 2u, 5u, 23u, 40u}) {
      const auto a = assign_units(policy, units, cat, workers);
      ASSERT_EQ(a.size(), workers);
      std::set<WorkUnitId> seen;
      for (const auto& list : a) {
        for (const auto u : list) EXPECT_TRUE(seen.insert(u).second);
      }
      EXPECT_EQ(seen.size(), units.size()) << to_string(policy) << " workers=" << workers;
    }
  }
}

TEST(Assignment, ZeroWorkersThrows) {
  const auto cat = uniform_catalog(3);
  EXPECT_THROW(assign_units(AssignmentPolicy::kRoundRobin, make_units(cat), cat, 0),
               FriedaError);
}

TEST(History, RecordAndQuery) {
  ExecutionHistory h;
  EXPECT_EQ(h.observations("blast", PlacementStrategy::kRealTime), 0u);
  EXPECT_FALSE(h.mean_makespan("blast", PlacementStrategy::kRealTime).has_value());
  h.record("blast", PlacementStrategy::kRealTime, 3800.0);
  h.record("blast", PlacementStrategy::kRealTime, 3900.0);
  h.record("blast", PlacementStrategy::kPrePartitionRemote, 4100.0);
  EXPECT_EQ(h.observations("blast", PlacementStrategy::kRealTime), 2u);
  EXPECT_NEAR(*h.mean_makespan("blast", PlacementStrategy::kRealTime), 3850.0, 1e-9);
  EXPECT_EQ(h.known_apps(), (std::vector<std::string>{"blast"}));
}

TEST(History, SerializeRoundTrip) {
  ExecutionHistory h;
  h.record("als", PlacementStrategy::kRealTime, 700.0);
  h.record("als", PlacementStrategy::kPrePartitionRemote, 790.0);
  h.record("als", PlacementStrategy::kPrePartitionRemote, 800.0);
  const auto text = h.serialize();
  const auto back = ExecutionHistory::deserialize(text);
  EXPECT_EQ(back.observations("als", PlacementStrategy::kPrePartitionRemote), 2u);
  EXPECT_NEAR(*back.mean_makespan("als", PlacementStrategy::kPrePartitionRemote), 795.0, 1e-9);
  EXPECT_THROW(ExecutionHistory::deserialize("bad line no pipes"), FriedaError);
}

TEST(History, HugeCountRestoresInConstantTime) {
  // Deserialize used to replay `count` observations one by one, so a
  // persisted count of 10^15 effectively never returned.
  const auto t0 = std::chrono::steady_clock::now();
  const auto h = ExecutionHistory::deserialize("blast|real-time|1000000000000000|42.5\n");
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, 0.5);
  EXPECT_EQ(h.observations("blast", PlacementStrategy::kRealTime), 1000000000000000u);
  EXPECT_EQ(*h.mean_makespan("blast", PlacementStrategy::kRealTime), 42.5);
  // The restored summary round-trips, and keeps accumulating.
  const auto back = ExecutionHistory::deserialize(h.serialize());
  EXPECT_EQ(back.serialize(), h.serialize());
  EXPECT_EQ(back.observations("blast", PlacementStrategy::kRealTime), 1000000000000000u);
  // A repeated line merges as a count-weighted mean.
  const auto merged =
      ExecutionHistory::deserialize("a|real-time|1|10.0\na|real-time|3|30.0\n");
  EXPECT_EQ(merged.observations("a", PlacementStrategy::kRealTime), 4u);
  EXPECT_DOUBLE_EQ(*merged.mean_makespan("a", PlacementStrategy::kRealTime), 25.0);
}

TEST(History, SerializeEscapesDelimiterInAppName) {
  // Regression: an app name containing '|' (or '\') used to shift the fields
  // on deserialize, corrupting the round-trip.
  ExecutionHistory h;
  h.record("blast|nr|v5", PlacementStrategy::kRealTime, 120.0);
  h.record("back\\slash", PlacementStrategy::kRemoteRead, 60.0);
  const auto text = h.serialize();
  const auto back = ExecutionHistory::deserialize(text);
  EXPECT_EQ(back.observations("blast|nr|v5", PlacementStrategy::kRealTime), 1u);
  EXPECT_NEAR(*back.mean_makespan("blast|nr|v5", PlacementStrategy::kRealTime), 120.0, 1e-9);
  EXPECT_EQ(back.observations("back\\slash", PlacementStrategy::kRemoteRead), 1u);
  // Serializing the decoded history again is a fixed point.
  EXPECT_EQ(back.serialize(), text);
}

TEST(History, DeserializeRejectsMalformedLines) {
  // Truncated line (missing fields).
  EXPECT_THROW(ExecutionHistory::deserialize("app|real-time|3"), FriedaError);
  // Extra field.
  EXPECT_THROW(ExecutionHistory::deserialize("app|real-time|3|1.0|extra"), FriedaError);
  // Unknown strategy.
  EXPECT_THROW(ExecutionHistory::deserialize("app|warp-drive|3|1.0"), FriedaError);
  // Garbage count / trailing junk on numbers.
  EXPECT_THROW(ExecutionHistory::deserialize("app|real-time|three|1.0"), FriedaError);
  EXPECT_THROW(ExecutionHistory::deserialize("app|real-time|-2|1.0"), FriedaError);
  EXPECT_THROW(ExecutionHistory::deserialize("app|real-time|3|1.0junk"), FriedaError);
  // Non-finite or negative mean.
  EXPECT_THROW(ExecutionHistory::deserialize("app|real-time|3|nan"), FriedaError);
  EXPECT_THROW(ExecutionHistory::deserialize("app|real-time|3|-5.0"), FriedaError);
  // Dangling escape at end of line, and unknown escape sequence.
  EXPECT_THROW(ExecutionHistory::deserialize("app\\|real-time|3|1.0\\"), FriedaError);
  EXPECT_THROW(ExecutionHistory::deserialize("app\\q|real-time|3|1.0"), FriedaError);
  // Blank lines are still tolerated.
  const auto h = ExecutionHistory::deserialize("\n  \napp|real-time|1|2.0\n\n");
  EXPECT_EQ(h.observations("app", PlacementStrategy::kRealTime), 1u);
}

TEST(Adaptive, HeuristicTransferBoundPicksRealTime) {
  WorkloadShape shape;
  shape.bytes_per_unit = 14 * MB;       // ALS-like
  shape.seconds_per_unit = 2.0;
  shape.cost_cv = 0.0;
  shape.staging_bandwidth = mbps(100);
  shape.total_cores = 16;
  EXPECT_EQ(AdaptiveSelector::heuristic(shape), PlacementStrategy::kRealTime);
}

TEST(Adaptive, HeuristicSkewedComputePicksRealTime) {
  WorkloadShape shape;
  shape.bytes_per_unit = 2 * KB;  // BLAST-like
  shape.seconds_per_unit = 8.16;
  shape.cost_cv = 0.5;
  shape.staging_bandwidth = mbps(100);
  shape.total_cores = 16;
  EXPECT_EQ(AdaptiveSelector::heuristic(shape), PlacementStrategy::kRealTime);
}

TEST(Adaptive, HeuristicHomogeneousComputePicksPrePartition) {
  WorkloadShape shape;
  shape.bytes_per_unit = KB;
  shape.seconds_per_unit = 10.0;
  shape.cost_cv = 0.0;
  shape.staging_bandwidth = mbps(100);
  shape.total_cores = 4;
  EXPECT_EQ(AdaptiveSelector::heuristic(shape), PlacementStrategy::kPrePartitionRemote);
}

TEST(Adaptive, HeuristicLocalDataPicksLocal) {
  WorkloadShape shape;
  shape.data_already_local = true;
  EXPECT_EQ(AdaptiveSelector::heuristic(shape), PlacementStrategy::kPrePartitionLocal);
}

TEST(Adaptive, HeuristicStorageSelection) {
  // Section III.A storage awareness: a unit that cannot even fit on the
  // local disk must be streamed; a share that does not fit needs real-time
  // eviction; plentiful disk falls through to the normal rules.
  WorkloadShape shape;
  shape.bytes_per_unit = 12 * GiB;
  shape.bytes_per_node_share = 100 * GiB;
  shape.local_disk_capacity = 10 * GiB;
  shape.seconds_per_unit = 10.0;
  shape.staging_bandwidth = gbps(10);
  shape.total_cores = 4;
  EXPECT_EQ(AdaptiveSelector::heuristic(shape), PlacementStrategy::kRemoteRead);

  shape.bytes_per_unit = 1 * GiB;
  EXPECT_EQ(AdaptiveSelector::heuristic(shape), PlacementStrategy::kRealTime);

  shape.local_disk_capacity = 200 * GiB;  // plenty: falls through
  shape.bytes_per_unit = KB;
  shape.bytes_per_node_share = MB;
  EXPECT_EQ(AdaptiveSelector::heuristic(shape), PlacementStrategy::kPrePartitionRemote);
}

TEST(Adaptive, HistoryOverridesHeuristic) {
  ExecutionHistory h;
  // History says pre-partition wins for this app even though the shape is
  // skewed (say the skew estimate was wrong).
  h.record("app", PlacementStrategy::kRealTime, 1000.0);
  h.record("app", PlacementStrategy::kPrePartitionRemote, 600.0);
  AdaptiveSelector sel(h);
  WorkloadShape shape;
  shape.cost_cv = 0.9;
  shape.staging_bandwidth = mbps(100);
  shape.seconds_per_unit = 100.0;
  shape.total_cores = 1;
  EXPECT_EQ(sel.choose("app", shape), PlacementStrategy::kPrePartitionRemote);
  // Unknown app falls back to the heuristic.
  EXPECT_EQ(sel.choose("other", shape), PlacementStrategy::kRealTime);
}

TEST(Adaptive, MinObservationsGate) {
  ExecutionHistory h;
  h.record("app", PlacementStrategy::kRealTime, 500.0);
  h.record("app", PlacementStrategy::kPrePartitionRemote, 400.0);
  AdaptiveSelector sel(h);
  WorkloadShape shape;  // heuristic would say pre-partition (no skew, no bytes)
  shape.seconds_per_unit = 1.0;
  // With min_observations=2 the single samples are not trusted.
  EXPECT_EQ(sel.choose("app", shape, 2), PlacementStrategy::kPrePartitionRemote);
  h.record("app", PlacementStrategy::kRealTime, 300.0);
  h.record("app", PlacementStrategy::kPrePartitionRemote, 450.0);
  AdaptiveSelector sel2(h);
  EXPECT_EQ(sel2.choose("app", shape, 2), PlacementStrategy::kRealTime);
}

}  // namespace
}  // namespace frieda::core
