// Versioned wire serialization for run reports.
//
// The multi-process sweep backend (src/exp/process_pool.hpp) executes each
// job in a forked child and ships the outcome back to the parent over a
// pipe.  What crosses that pipe is the text produced here: a versioned,
// line-based, escape-aware rendering of a `core::RunReport` that
// round-trips *exactly* — every double is encoded as its IEEE-754 bit
// pattern, so a report deserialized in the parent is field-identical (and
// therefore CSV-byte-identical) to the one the child measured.  This pipe
// frame is the only serialized form a report has: the result cache keeps
// reports in memory and never writes them out.
//
// Format (one record per line, '|'-delimited, string fields escaped with
// the same backslash scheme `ExecutionHistory` uses — see escape_field):
//
//   frieda-run-report v1
//   size|<units>|<workers>|<intervals>|<latency samples>
//   head|<app>|<strategy>|<scheme>
//   time|<ready>|<start>|<staging_end>|<end>          (f64 bit-pattern hex)
//   units|<total>|<completed>|<failed>|<unprocessed>
//   net|<bytes_moved>|<transfers>|<workers_isolated>
//   svc|<open_loop>|<serve_start>|<scale_outs>|<scale_ins>
//   l|<sample>                                        (one per latency sample)
//   u|<unit>|<status>|<worker>|<attempts>|<arrival>|<dispatched>|<finished>|<transfer>|<exec>
//   w|<worker>|<vm>|<slot>|<units_completed>|<busy>|<isolated>|<drained>
//   i|<kind>|<start>|<end>|<label>
//   end
//
// Deserialization is strict: a missing header, wrong version, count
// mismatch, malformed field, or missing `end` marker throws FriedaError —
// which is exactly how a child crash that truncates the stream surfaces as
// an isolated error outcome instead of a silently corrupted report.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "frieda/report.hpp"

namespace frieda::core {

/// Escape '|', '\' and newlines so a free-form string can live in one
/// '|'-delimited field (shared with ExecutionHistory's history lines).
std::string escape_field(const std::string& s);

/// Split on unescaped '|' and decode escapes.  nullopt when the line ends
/// mid-escape (truncated) or uses an unknown escape sequence.
std::optional<std::vector<std::string>> split_escaped(const std::string& line);

/// Exact 16-hex-digit IEEE-754 bit pattern of `v` (round-trips NaNs,
/// signed zeros, everything — unlike any decimal rendering).
std::string f64_bits(double v);

/// Inverse of f64_bits; nullopt unless `s` is exactly 16 hex digits.
std::optional<double> parse_f64_bits(const std::string& s);

/// Render `report` in the versioned wire format above.
std::string serialize_run_report(const RunReport& report);

/// Parse a serialized RunReport; throws FriedaError on any malformation
/// (wrong header, truncation, count mismatch, bad field).
RunReport deserialize_run_report(const std::string& text);

}  // namespace frieda::core
