// obs::RunTap in isolation: a detached tap (no tracer, no probe) must cost
// nothing beyond its pointer tests — it formats no value, builds no event
// and allocates nothing — and an attached one formats each value the way
// the trace vocabulary fixes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/run_tap.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Count every allocation of this test binary.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined, GCC 12 takes the free() for a mismatched
// deallocation of memory from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace frieda::obs {
namespace {

const std::string kFile = "a-long-input-file-name-that-would-not-fit-sso.dat";

/// Drive every call of the tap once.
void exercise(RunTap& tap) {
  const std::string& file = kFile;
  tap.units_born(4, 0.0);
  tap.born(1, 0.5);
  tap.pending(2, 0.75);
  tap.dispatched(2, 1.0, 1, 3, 7);
  tap.stage_input(3, 2, file, 1.0, 2.0, 1234, true);
  tap.remote_read(3, 2, file, 1.0, 2.0, 1234, false);
  tap.stage_node(7, file, 0.0, 1.0, 99, true);
  tap.stage_common(7, 0.0, 1.0, 99);
  tap.stage_unit(3, 2, 1.0, 2.0);
  tap.exec(3, 2, 2.0, 3.0, 7, true);
  tap.exec(3, 2, 2.0, 3.0, false);
  tap.protocol(3.0, event::kMasterCrash, key::kRecoveryS, 15.0);
  tap.control(3.0, event::kEvict, key::kFile, file, key::kVm, 7);
  tap.service(3.0, event::kArrival, key::kUnit, 2, key::kDepth, 5);
  tap.terminal(2, 4.0, "completed", 1, 3, 7);
  tap.terminal(0, 4.0, "unprocessed", 0, 0, 0);
  tap.terminal(1, 4.0, 3, true);
  tap.latency(1, 4.0);
}

TEST(RunTap, DetachedTapAllocatesNothingAndRunsNoCallback) {
  RunTap tap(nullptr, nullptr);
  const std::size_t before = g_allocations.load();
  exercise(tap);
  tap.begin(0.0);
  tap.start_sampler([](double) { ADD_FAILURE() << "sampler started without a probe"; });
  const auto gauges = [] {
    ADD_FAILURE() << "gauges read without a probe";
    return TelemetryTick{};
  };
  tap.tick(1.0, gauges);
  tap.finish(4.0, gauges);
  tap.run(0.0, 4.0, [](RunTap::Args&) { ADD_FAILURE() << "anchor args built"; });
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(RunTap, AttachedTapFormatsValuesByTheVocabulary) {
  Tracer tracer;
  TelemetryOptions topt;
  topt.slo.push_back({"queue_depth", 1.0});
  TelemetryProbe probe(topt);
  RunTap tap(&tracer, &probe);
  tap.begin(0.0);
  double sampled_every = 0.0;
  tap.start_sampler([&](double interval) { sampled_every = interval; });
  EXPECT_EQ(sampled_every, topt.interval);
  exercise(tap);
  tap.finish(4.0, [] { return TelemetryTick{}; });
  tap.run(0.0, 4.0, [](RunTap::Args& a) { a.add(key::kWorkers, std::size_t{16}); });

  // Counts with std::to_string (also recovery_s), flags as "1"/"0", the SLO
  // totals with format_sample; the run track, span names "<name> <subject>".
  const std::string csv = tracer.csv();
  for (const char* row :
       {"span,pending unit 2,pending,3,2,0.750000,1.000000,0.250000,attempt=1;worker=3;vm=7\n",
        "span,stage a-long-input-file-name-that-would-not-fit-sso.dat,staging,2,3,1.000000,"
        "2.000000,1.000000,unit=2;file=a-long-input-file-name-that-would-not-fit-sso.dat;"
        "bytes=1234;ok=1\n",
        "span,stage-common,staging,1,7,0.000000,1.000000,1.000000,vm=7;bytes=99\n",
        "span,exec unit 2,exec,2,3,2.000000,3.000000,1.000000,unit=2;vm=7;completed=1\n",
        "span,exec unit 2,exec,2,3,2.000000,3.000000,1.000000,unit=2;ok=0\n",
        "instant,master-crash,protocol,1,0,3.000000,3.000000,0.000000,recovery_s=15.000000\n",
        "instant,arrival,service,1,0,3.000000,3.000000,0.000000,unit=2;depth=5\n",
        "span,unit 0,unit,3,0,0.000000,4.000000,4.000000,status=unprocessed;attempts=0\n",
        "span,unit 1,unit,3,1,0.500000,4.000000,3.500000,worker=3;ok=1\n",
        "span,run,run,1,0,0.000000,4.000000,4.000000,workers=16;slo_breaches=0;"
        "slo_violation_s=0\n"}) {
    EXPECT_NE(csv.find(row), std::string::npos) << row << "\nnot in\n" << csv;
  }
}

}  // namespace
}  // namespace frieda::obs
