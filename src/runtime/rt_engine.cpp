#include "runtime/rt_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stop_token>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "frieda/assignment.hpp"
#include "frieda/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/run_tap.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/token_bucket.hpp"

namespace frieda::rt {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Copy `src` to `dst` in chunks, paying the token bucket per chunk.
/// Returns bytes copied.
std::uint64_t throttled_copy(const fs::path& src, const fs::path& dst, TokenBucket& bucket) {
  std::ifstream in(src, std::ios::binary);
  FRIEDA_CHECK(in.good(), "cannot open source file '" << src.string() << "'");
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  FRIEDA_CHECK(out.good(), "cannot open staging file '" << dst.string() << "'");
  constexpr std::size_t kChunk = 256 * 1024;
  std::vector<char> buffer(kChunk);
  std::uint64_t total = 0;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    bucket.acquire(static_cast<std::uint64_t>(got));
    out.write(buffer.data(), got);
    FRIEDA_CHECK(out.good(), "write to '" << dst.string() << "' failed");
    total += static_cast<std::uint64_t>(got);
  }
  return total;
}

}  // namespace

storage::FileCatalog make_dataset(const std::string& dir, std::size_t count, Bytes bytes_each,
                                  std::uint64_t seed) {
  fs::create_directories(dir);
  storage::FileCatalog catalog;
  Rng rng(seed);
  std::vector<char> block(64 * 1024);
  for (std::size_t i = 0; i < count; ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "input_%05zu.dat", i);
    const fs::path path = fs::path(dir) / name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    FRIEDA_CHECK(out.good(), "cannot create dataset file '" << path.string() << "'");
    Bytes remaining = bytes_each;
    while (remaining > 0) {
      const std::size_t n = std::min<Bytes>(remaining, block.size());
      for (std::size_t b = 0; b < n; b += 8) {
        const std::uint64_t word = rng.next_u64();
        std::memcpy(block.data() + b, &word, std::min<std::size_t>(8, n - b));
      }
      out.write(block.data(), static_cast<std::streamsize>(n));
      remaining -= n;
    }
    catalog.add_file(name, bytes_each);
  }
  return catalog;
}

RtEngine::RtEngine(std::string source_dir, RtOptions options)
    : source_dir_(std::move(source_dir)), options_(std::move(options)) {
  FRIEDA_CHECK(options_.worker_count > 0, "need at least one worker");
  FRIEDA_CHECK(fs::is_directory(source_dir_),
               "source directory '" << source_dir_ << "' does not exist");
  if (options_.strategy != core::PlacementStrategy::kPrePartitionLocal) {
    FRIEDA_CHECK(!options_.staging_root.empty(),
                 "staging_root is required unless the data is already local");
  }
  FRIEDA_CHECK(options_.strategy == core::PlacementStrategy::kPrePartitionLocal ||
                   options_.strategy == core::PlacementStrategy::kPrePartitionRemote ||
                   options_.strategy == core::PlacementStrategy::kRealTime,
               "threaded runtime supports pre-partition-local/remote and real-time");

  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(source_dir_)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  FRIEDA_CHECK(!paths.empty(), "source directory '" << source_dir_ << "' is empty");
  for (const auto& p : paths) {
    catalog_.add_file(p.filename().string(), static_cast<Bytes>(fs::file_size(p)));
  }
}

RtReport RtEngine::run(std::vector<core::WorkUnit> units, const core::CommandTemplate& command,
                       TaskExecutor executor) {
  // A zero-unit run is legal: the farm spins up, finds nothing to do, and
  // reports vacuous success (all_completed() == true).
  FRIEDA_CHECK(static_cast<bool>(executor), "executor must be callable");
  for (const auto& u : units) {
    FRIEDA_CHECK(command.accepts(u), "command arity does not match unit " << u.id);
  }

  const auto t0 = Clock::now();
  const std::size_t n_workers = options_.worker_count;
  const bool local = options_.strategy == core::PlacementStrategy::kPrePartitionLocal;
  const bool realtime = options_.strategy == core::PlacementStrategy::kRealTime;

  // Burst of 100 ms of rate: enough to amortize chunking, small enough that
  // the configured bandwidth is actually visible on short runs.
  TokenBucket bucket(options_.bandwidth, options_.bandwidth / 10.0);
  MpmcQueue<core::WorkerMessage> master_inbox;
  std::vector<std::unique_ptr<MpmcQueue<core::MasterMessage>>> worker_inboxes;
  for (std::size_t w = 0; w < n_workers; ++w) {
    worker_inboxes.push_back(std::make_unique<MpmcQueue<core::MasterMessage>>());
  }

  RtReport report;
  report.units.resize(units.size());
  report.per_worker_completed.assign(n_workers, 0);
  std::atomic<std::uint64_t> bytes_staged{0};

  // ---- observers (wall clock) ----
  // A unit is born when it is dispatched: "latency" here is a unit's
  // dispatch -> terminal wall time (the threaded runtime has no arrival
  // process yet).  The probe runs on a dedicated sampling thread; the master
  // loop feeds its gauges through relaxed atomics.
  obs::RunTap tap(options_.tracer, options_.telemetry);
  tap.units_born(units.size(), 0.0);
  std::atomic<std::size_t> tl_dispatched{0};
  std::atomic<std::size_t> tl_done{0};
  std::atomic<std::size_t> tl_completed{0};
  std::atomic<std::size_t> tl_released{0};
  const auto telemetry_snapshot = [&] {
    obs::TelemetryTick t;
    const auto disp = tl_dispatched.load(std::memory_order_relaxed);
    const auto done = tl_done.load(std::memory_order_relaxed);
    t.queue_depth = static_cast<double>(units.size() - std::min(disp, units.size()));
    t.in_flight = disp > done ? static_cast<double>(disp - done) : 0.0;
    const auto rel = std::min(n_workers, tl_released.load(std::memory_order_relaxed));
    t.active_workers = static_cast<double>(n_workers - rel);
    t.active_vms = 1.0;  // one host machine
    t.completed = static_cast<double>(tl_completed.load(std::memory_order_relaxed));
    return t;
  };
  std::jthread sampler;
  tap.begin(0.0);
  tap.start_sampler([&](double interval) {
    sampler = std::jthread([&, interval](std::stop_token stop) {
      const std::chrono::duration<double> period(interval);
      std::mutex mutex;
      std::condition_variable_any wake;
      std::unique_lock<std::mutex> lock(mutex);
      while (!wake.wait_for(lock, stop, period, [&] { return stop.stop_requested(); })) {
        tap.tick(seconds_since(t0), telemetry_snapshot);
      }
    });
  });

  // Worker staging directories.
  std::vector<fs::path> worker_dirs(n_workers);
  if (!local) {
    for (std::size_t w = 0; w < n_workers; ++w) {
      worker_dirs[w] = fs::path(options_.staging_root) / ("worker" + std::to_string(w));
      fs::create_directories(worker_dirs[w]);
    }
  }

  const auto source_path = [&](storage::FileId f) {
    return fs::path(source_dir_) / catalog_.info(f).name;
  };

  // Stage one unit's inputs into a worker's directory; returns local paths.
  const auto stage_unit = [&](const core::WorkUnit& unit, std::size_t w,
                              double& transfer_seconds) {
    std::vector<std::string> paths;
    const auto start = Clock::now();
    for (const auto f : unit.inputs) {
      const fs::path dst = worker_dirs[w] / catalog_.info(f).name;
      if (!fs::exists(dst) || fs::file_size(dst) != catalog_.info(f).size) {
        bytes_staged += throttled_copy(source_path(f), dst, bucket);
      }
      paths.push_back(dst.string());
    }
    transfer_seconds = seconds_since(start);
    return paths;
  };

  // ---- workers (execution plane) ----
  std::vector<std::thread> workers;
  workers.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers.emplace_back([&, w] {
      auto& inbox = *worker_inboxes[w];
      master_inbox.push(core::RegisterWorker{static_cast<core::WorkerId>(w)});
      master_inbox.push(core::RequestWork{static_cast<core::WorkerId>(w)});
      while (auto msg = inbox.pop()) {
        if (std::holds_alternative<core::NoMoreWork>(*msg)) break;
        const auto& work = std::get<core::AssignWork>(*msg);

        const double unit_start = seconds_since(t0);
        double transfer_seconds = 0.0;
        double exec_seconds = 0.0;
        bool ok = false;
        try {
          std::vector<std::string> paths;
          if (work.inputs_staged) {
            // Pre modes: data already where the worker expects it.
            for (const auto f : work.unit.inputs) {
              paths.push_back(local ? source_path(f).string()
                                    : (worker_dirs[w] / catalog_.info(f).name).string());
            }
          } else {
            // Real-time: the lazy transfer happens now, against the shared
            // bandwidth budget, overlapping other workers' execution.
            paths = stage_unit(work.unit, w, transfer_seconds);
          }
          const auto exec_start = Clock::now();
          ok = executor(work.unit, paths, work.command);
          exec_seconds = seconds_since(exec_start);
        } catch (const std::exception& e) {
          FLOG(kWarn, "rt-worker", "unit " << work.unit.id << " failed: " << e.what());
          ok = false;
        }
        if (transfer_seconds > 0.0) {
          tap.stage_unit(w, work.unit.id, unit_start, unit_start + transfer_seconds);
        }
        const double end_s = seconds_since(t0);
        tap.exec(w, work.unit.id, end_s - exec_seconds, end_s, ok);
        master_inbox.push(core::ExecStatus{static_cast<core::WorkerId>(w), work.unit.id, ok,
                                           transfer_seconds, exec_seconds});
      }
    });
  }

  // ---- controller + master (control and data management) ----
  std::vector<std::deque<core::WorkUnitId>> preassigned(n_workers);
  std::deque<core::WorkUnitId> queue;
  if (realtime) {
    for (const auto& u : units) queue.push_back(u.id);
  } else {
    const auto assignment =
        core::assign_units(options_.assignment, units, catalog_, n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      preassigned[w].assign(assignment[w].begin(), assignment[w].end());
    }
    if (!local) {
      // Sequential phases: stage every worker's share before execution.
      for (std::size_t w = 0; w < n_workers; ++w) {
        for (const auto u : preassigned[w]) {
          double ignored = 0.0;
          stage_unit(units[u], w, ignored);
        }
      }
      report.staging_seconds = seconds_since(t0);
    }
  }

  const auto dispatch = [&](std::size_t w) {
    core::WorkUnitId unit;
    if (realtime) {
      if (queue.empty()) return false;
      unit = queue.front();
      queue.pop_front();
    } else {
      if (preassigned[w].empty()) return false;
      unit = preassigned[w].front();
      preassigned[w].pop_front();
    }
    tap.born(unit, seconds_since(t0));
    tl_dispatched.fetch_add(1, std::memory_order_relaxed);
    core::AssignWork work;
    work.unit = units[unit];
    work.command = command.bind_unit(units[unit], catalog_,
                                     local ? source_dir_ : worker_dirs[w].string());
    work.inputs_staged = !realtime;
    worker_inboxes[w]->push(std::move(work));
    return true;
  };

  std::size_t terminal = 0;
  std::vector<bool> released(n_workers, false);
  const auto release = [&](std::size_t w) {
    if (!released[w]) {
      worker_inboxes[w]->push(core::NoMoreWork{});
      released[w] = true;
      tl_released.fetch_add(1, std::memory_order_relaxed);
      tap.protocol(seconds_since(t0), obs::event::kReleaseWorker, obs::key::kWorker, w);
    }
  };

  // Every worker registers first thing, so the loop also waits for the
  // registrations that arrive after the last unit ended: each one reaches
  // the trace, however late its thread started.
  std::size_t registered = 0;
  while (terminal < units.size() || registered < n_workers) {
    const auto msg = master_inbox.pop();
    FRIEDA_CHECK(msg.has_value(), "master inbox closed unexpectedly");
    if (const auto* reg = std::get_if<core::RegisterWorker>(&*msg)) {
      tap.protocol(seconds_since(t0), obs::event::kRegisterWorker, obs::key::kWorker,
                   reg->worker);
      ++registered;
      continue;
    }
    if (const auto* req = std::get_if<core::RequestWork>(&*msg)) {
      if (!dispatch(req->worker)) release(req->worker);
      continue;
    }
    const auto& status = std::get<core::ExecStatus>(*msg);
    auto& rec = report.units[status.unit];
    rec.unit = status.unit;
    rec.worker = status.worker;
    rec.ok = status.ok;
    rec.transfer_seconds = status.transfer_seconds;
    rec.exec_seconds = status.exec_seconds;
    ++terminal;
    if (status.ok) {
      ++report.units_completed;
      ++report.per_worker_completed[status.worker];
    } else {
      ++report.units_failed;
    }
    tl_done.fetch_add(1, std::memory_order_relaxed);
    if (status.ok) tl_completed.fetch_add(1, std::memory_order_relaxed);
    const double now = seconds_since(t0);
    tap.latency(status.unit, now);
    tap.terminal(status.unit, now, status.worker, status.ok);
    if (!dispatch(status.worker)) release(status.worker);
  }
  for (std::size_t w = 0; w < n_workers; ++w) release(w);
  for (auto& t : workers) t.join();

  report.makespan = seconds_since(t0);
  report.bytes_staged = bytes_staged.load();

  sampler = std::jthread();  // stops and joins the sampler, if any
  // Final sample at the makespan, the SLO targets, then the run anchor on
  // the same wall clock as every other span of this engine.
  tap.finish(report.makespan, telemetry_snapshot);
  tap.run(0.0, report.makespan,
          [&](obs::RunTap::Args& a) { a.add(obs::key::kWorkers, n_workers); });

  if (!local && !options_.keep_staged_files) {
    std::error_code ec;
    for (const auto& dir : worker_dirs) fs::remove_all(dir, ec);
  }
  return report;
}

void RtReport::fill_metrics(obs::MetricsRegistry& registry) const {
  registry.gauge("rt.makespan_s").set(makespan);
  registry.gauge("rt.staging_s").set(staging_seconds);
  registry.gauge("rt.units_total").set(static_cast<double>(units.size()));
  registry.gauge("rt.units_completed").set(static_cast<double>(units_completed));
  registry.gauge("rt.units_failed").set(static_cast<double>(units_failed));
  registry.gauge("rt.bytes_staged").set(static_cast<double>(bytes_staged));
  auto& transfer = registry.stats("rt.unit_transfer_s");
  auto& exec = registry.stats("rt.unit_exec_s");
  for (const auto& rec : units) {
    transfer.add(rec.transfer_seconds);
    exec.add(rec.exec_seconds);
  }
}

}  // namespace frieda::rt
