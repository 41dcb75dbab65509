// Fork-based job execution for the sweep engine.
//
// The thread backend runs every job in the driver's address space: one
// crashed job (SIGSEGV, abort, a runaway FRIEDA_CHECK in third-party code)
// takes the whole 10k-cell sweep down with it, and all jobs share one heap.
// The process backend removes both couplings: each job executes in a
// *forked child*, ships its outcome back over a pipe as a versioned
// serialized report (frieda/report_io.hpp), and any way the child can die —
// fatal signal, abort, nonzero exit, truncated frame — is converted into
// that one job's error outcome while every other job completes.  Crash
// isolation is free, and there is no shared mutable state for tsan to see.
//
// Wire protocol (parent <- child, one frame per job):
//
//   [8-byte little-endian payload length][1 status byte 'R'|'E'][payload]
//
// 'R' payloads are a serialized report; 'E' payloads are the what() of an
// exception the job threw (the thread backend's error path, shipped across
// the process boundary).  The parent reads the exact frame, then reaps the
// child: a signaled or nonzero exit always wins over whatever bytes
// arrived, and a short read is reported as truncation.
//
// Fork hygiene: pipe creation and fork() are serialized behind one mutex,
// and every child closes the other in-flight children's write ends before
// running its job — otherwise a concurrently forked sibling would hold a
// duplicate of our pipe's write end open and delay crash detection until
// *it* exits.  Children terminate through _exit(), never exit(): static
// destructors and stdio flushes belong to the parent.
#pragma once

#include <functional>
#include <string>

#include "frieda/report_io.hpp"

namespace frieda::exp {

/// How one forked job ended, as observed by the parent.
struct ForkOutcome {
  /// The child delivered a complete frame (result or error) and exited
  /// cleanly.  When false, `crash` describes what happened instead.
  bool delivered = false;

  /// Frame status: true = 'R' (serialized report in `payload`), false =
  /// 'E' (`payload` is the thrown exception's message).  Meaningless unless
  /// `delivered`.
  bool ok = false;

  /// Serialized report ('R') or error message ('E').
  std::string payload;

  /// Non-empty when !delivered: human-readable crash description
  /// ("child killed by signal 11 (SIGSEGV)", "child exited with status 3",
  /// "truncated result frame ...").
  std::string crash;
};

/// Fork a child, run `work` in it, and ship the returned bytes back as an
/// 'R' frame ('E' with the message when `work` throws).  Blocks until the
/// frame is read and the child is reaped.  Never throws for child-side
/// failures — they land in the returned outcome.
ForkOutcome run_in_child(const std::function<std::string()>& work);

namespace detail {

/// Write one length-prefixed frame (status byte + payload) to `fd`;
/// async-usable from a forked child.  Returns false on any short write.
bool write_frame(int fd, char status, const std::string& payload);

/// Read one frame from `fd`.  Returns false on EOF/short read/oversized
/// declared length (truncation or a garbage stream).
bool read_frame(int fd, char& status, std::string& payload);

/// Render a wait() status as a human-readable crash description, or an
/// empty string for a clean zero exit.
std::string describe_wait_status(int wait_status);

}  // namespace detail

/// Serialization bridge between the sweep engine's result type and the
/// pipe.  The process backend is available only for result types with a
/// specialization (core::RunReport today); for anything else the runner
/// falls back to the thread backend with a warning.
template <typename R>
struct ReportCodec {
  static constexpr bool kAvailable = false;
};

template <>
struct ReportCodec<core::RunReport> {
  static constexpr bool kAvailable = true;
  static std::string serialize(const core::RunReport& r) {
    return core::serialize_run_report(r);
  }
  static core::RunReport deserialize(const std::string& text) {
    return core::deserialize_run_report(text);
  }
};

}  // namespace frieda::exp
