// Wire-codec tests for frieda/report_io.hpp: exact double round-trips via
// bit patterns, escape-aware field splitting, RunReport serialize ->
// deserialize field-by-field identity across every placement strategy
// (including an open-loop service run with latency samples), and strict
// rejection of truncated or malformed text — the property the process sweep
// backend's crash isolation rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "frieda/report.hpp"
#include "frieda/report_io.hpp"
#include "workload/scenarios.hpp"

namespace frieda::core {
namespace {

using workload::PaperScenarioOptions;

// ---------------------------------------------------------------------------
// f64 bit-pattern encoding.
// ---------------------------------------------------------------------------

TEST(F64Bits, RoundTripsExactValuesIncludingEdgeCases) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.1,  // not representable exactly — the bit pattern is
                          1e300,
                          -1e-300,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  for (const double v : cases) {
    const std::string hex = f64_bits(v);
    ASSERT_EQ(hex.size(), 16u) << v;
    const auto back = parse_f64_bits(hex);
    ASSERT_TRUE(back.has_value()) << hex;
    // Bit-level identity, not ==: distinguishes -0.0 from 0.0.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &v, sizeof(a));
    std::memcpy(&b, &*back, sizeof(b));
    EXPECT_EQ(a, b) << hex;
  }
}

TEST(F64Bits, NanSurvivesTheTrip) {
  const auto back = parse_f64_bits(f64_bits(std::numeric_limits<double>::quiet_NaN()));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::isnan(*back));
}

TEST(F64Bits, ParseRejectsWrongLengthAndNonHex) {
  EXPECT_FALSE(parse_f64_bits("").has_value());
  EXPECT_FALSE(parse_f64_bits("0").has_value());
  EXPECT_FALSE(parse_f64_bits("00000000000000000").has_value());  // 17 digits
  EXPECT_FALSE(parse_f64_bits("000000000000000g").has_value());
  EXPECT_FALSE(parse_f64_bits("3.14159265358979").has_value());
}

// ---------------------------------------------------------------------------
// Escape-aware field splitting (shared with ExecutionHistory).
// ---------------------------------------------------------------------------

TEST(EscapedFields, RoundTripsDelimitersBackslashesAndNewlines) {
  const std::vector<std::string> fields = {"plain", "with|pipe", "back\\slash",
                                           "multi\nline", ""};
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) line += '|';
    line += escape_field(fields[i]);
  }
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto split = split_escaped(line);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(*split, fields);
}

TEST(EscapedFields, RejectsTruncatedEscape) {
  EXPECT_FALSE(split_escaped("oops\\").has_value());
  EXPECT_FALSE(split_escaped("bad\\q").has_value());
}

// ---------------------------------------------------------------------------
// RunReport round-trip: field-by-field identity on real scenario output.
// ---------------------------------------------------------------------------

void expect_round_trip_identical(const RunReport& r) {
  const std::string wire = serialize_run_report(r);
  const RunReport back = deserialize_run_report(wire);

  EXPECT_EQ(back.app, r.app);
  EXPECT_EQ(back.strategy, r.strategy);
  EXPECT_EQ(back.scheme, r.scheme);
  EXPECT_EQ(back.ready_time, r.ready_time);
  EXPECT_EQ(back.start_time, r.start_time);
  EXPECT_EQ(back.staging_end, r.staging_end);
  EXPECT_EQ(back.end_time, r.end_time);
  EXPECT_EQ(back.units_total, r.units_total);
  EXPECT_EQ(back.units_completed, r.units_completed);
  EXPECT_EQ(back.units_failed, r.units_failed);
  EXPECT_EQ(back.units_unprocessed, r.units_unprocessed);
  EXPECT_EQ(back.bytes_moved, r.bytes_moved);
  EXPECT_EQ(back.transfers, r.transfers);
  EXPECT_EQ(back.workers_isolated, r.workers_isolated);
  EXPECT_EQ(back.open_loop, r.open_loop);
  EXPECT_EQ(back.serve_start, r.serve_start);
  EXPECT_EQ(back.scale_outs, r.scale_outs);
  EXPECT_EQ(back.scale_ins, r.scale_ins);

  ASSERT_EQ(back.latency.count(), r.latency.count());
  if (r.latency.count() > 0) {
    EXPECT_EQ(back.latency.percentile(50.0), r.latency.percentile(50.0));
    EXPECT_EQ(back.latency.percentile(99.0), r.latency.percentile(99.0));
  }

  ASSERT_EQ(back.units.size(), r.units.size());
  for (std::size_t i = 0; i < r.units.size(); ++i) {
    EXPECT_EQ(back.units[i].unit, r.units[i].unit);
    EXPECT_EQ(back.units[i].status, r.units[i].status);
    EXPECT_EQ(back.units[i].worker, r.units[i].worker);
    EXPECT_EQ(back.units[i].attempts, r.units[i].attempts);
    EXPECT_EQ(back.units[i].arrival, r.units[i].arrival);
    EXPECT_EQ(back.units[i].dispatched, r.units[i].dispatched);
    EXPECT_EQ(back.units[i].finished, r.units[i].finished);
    EXPECT_EQ(back.units[i].transfer_seconds, r.units[i].transfer_seconds);
    EXPECT_EQ(back.units[i].exec_seconds, r.units[i].exec_seconds);
  }
  ASSERT_EQ(back.workers.size(), r.workers.size());
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    EXPECT_EQ(back.workers[i].worker, r.workers[i].worker);
    EXPECT_EQ(back.workers[i].vm, r.workers[i].vm);
    EXPECT_EQ(back.workers[i].slot, r.workers[i].slot);
    EXPECT_EQ(back.workers[i].units_completed, r.workers[i].units_completed);
    EXPECT_EQ(back.workers[i].busy_seconds, r.workers[i].busy_seconds);
    EXPECT_EQ(back.workers[i].isolated, r.workers[i].isolated);
    EXPECT_EQ(back.workers[i].drained, r.workers[i].drained);
  }

  // Derived quantities depend on the timeline intervals; equality here means
  // every interval survived bit-exactly.
  EXPECT_EQ(back.transfer_busy(), r.transfer_busy());
  EXPECT_EQ(back.compute_busy(), r.compute_busy());
  EXPECT_EQ(back.overlap(), r.overlap());

  // The CSV renderings the committed artifacts are built from.
  EXPECT_EQ(back.units_csv(), r.units_csv());
  EXPECT_EQ(back.workers_csv(), r.workers_csv());
  EXPECT_EQ(back.summary(), r.summary());

  // Serializing the deserialized report reproduces the wire text itself.
  EXPECT_EQ(serialize_run_report(back), wire);
}

TEST(RunReportIo, RoundTripsEveryStrategyFieldIdentically) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  const PlacementStrategy strategies[] = {
      PlacementStrategy::kNoPartitionCommon, PlacementStrategy::kPrePartitionLocal,
      PlacementStrategy::kPrePartitionRemote, PlacementStrategy::kRealTime,
      PlacementStrategy::kRemoteRead,         PlacementStrategy::kSharedVolume};
  for (const auto strategy : strategies) {
    SCOPED_TRACE(to_string(strategy));
    expect_round_trip_identical(workload::run_als(strategy, opt));
    expect_round_trip_identical(workload::run_blast(strategy, opt));
  }
}

TEST(RunReportIo, RoundTripsOpenLoopServiceRunWithLatencySamples) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.service.open_loop = true;
  opt.service.arrivals.kind = workload::ArrivalKind::kPoisson;
  opt.service.arrivals.rate = 2.0;
  opt.service.arrivals.seed = 42;
  opt.service.elastic.enabled = true;
  opt.service.elastic.scale_out_depth = 8;
  opt.service.elastic.scale_in_depth = 2;
  opt.service.elastic.check_interval = 2.0;
  opt.service.elastic.hysteresis = 1;
  const RunReport r = workload::run_blast(PlacementStrategy::kRealTime, opt);
  ASSERT_TRUE(r.open_loop);
  ASSERT_GT(r.latency.count(), 0u);
  expect_round_trip_identical(r);
}

TEST(RunReportIo, DeserializeRejectsMalformedText) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  const std::string wire =
      serialize_run_report(workload::run_als(PlacementStrategy::kRealTime, opt));

  EXPECT_THROW(deserialize_run_report(""), FriedaError);
  EXPECT_THROW(deserialize_run_report("not-a-report v1\n"), FriedaError);
  // Wrong version in an otherwise plausible header.
  EXPECT_THROW(deserialize_run_report("frieda-run-report v9\nend\n"), FriedaError);
  // Truncations at a few depths: drop the end marker, half the body, almost
  // everything.  Every cut must throw, never return a partial report.
  EXPECT_THROW(deserialize_run_report(wire.substr(0, wire.size() - 4)), FriedaError);
  EXPECT_THROW(deserialize_run_report(wire.substr(0, wire.size() / 2)), FriedaError);
  EXPECT_THROW(deserialize_run_report(wire.substr(0, 40)), FriedaError);
  // A corrupted numeric field.
  std::string corrupt = wire;
  const auto pos = corrupt.find("units|");
  ASSERT_NE(pos, std::string::npos);
  corrupt.replace(pos, 6, "units|x");
  EXPECT_THROW(deserialize_run_report(corrupt), FriedaError);
}

// A minimal frame: the given size record and counted records around zeroed
// fixed records.
std::string frame(const std::string& size, const std::string& records = "") {
  const std::string z = "|0000000000000000";
  return "frieda-run-report v1\n" + size + "\nhead|a|s|m\ntime" + z + z + z + z +
         "\nunits|0|0|0|0\nnet|0|0|0\nsvc|0" + z + "|0|0\n" + records + "end\n";
}

// Header counts and narrow fields come from the pipe, not from the code that
// wrote them: an impossible count must fail as a FriedaError before it sizes
// an allocation, and a value beyond its field's type must not wrap.
TEST(RunReportIo, DeserializeRejectsImpossibleCounts) {
  ASSERT_NO_THROW(deserialize_run_report(frame("size|0|0|0|0")));
  for (const char* size : {"size|4000000000000000000|0|0|0", "size|2000000000|0|0|0",
                           "size|0|2000000000|0|0", "size|0|0|0|2000000000",
                           "size|0|0|18446744073709551615|0"}) {
    SCOPED_TRACE(size);
    EXPECT_THROW(deserialize_run_report(frame(size)), FriedaError);
  }

  const std::string z = "|0000000000000000";
  const auto unit = [&](const std::string& attempts) {
    return "u|0|0|0|" + attempts + z + z + z + z + z + "\n";
  };
  EXPECT_EQ(deserialize_run_report(frame("size|1|0|0|0", unit("1"))).units.at(0).attempts, 1);
  // 2^32 + 1 would read back as 1 through a plain cast.
  try {
    deserialize_run_report(frame("size|1|0|0|0", unit("4294967297")));
    FAIL() << "attempts 2^32+1 was accepted";
  } catch (const FriedaError& e) {
    EXPECT_NE(std::string(e.what()).find("attempts"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace frieda::core
