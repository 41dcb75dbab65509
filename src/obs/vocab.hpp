// The trace vocabulary: the categories, event names and arg keys a run's
// trace is written in (by RunTap, TelemetryProbe and Tracer) and read back
// in (by TraceAnalyzer).  Track groups are TrackGroup in trace.hpp; the
// network's "flow" spans are spelled in net::Network.
#pragma once

namespace frieda::obs {

/// Event categories ("cat" in the trace-event format).
namespace cat {
inline constexpr const char *kUnit = "unit", *kPending = "pending", *kStaging = "staging",
                            *kExec = "exec", *kRun = "run", *kProtocol = "protocol",
                            *kControl = "control", *kService = "service",
                            *kTelemetry = "telemetry", *kSlo = "slo";
}  // namespace cat

/// Event names: spans (one of a unit or a file is named "<name> <id or
/// file>"), then protocol, control and service instants.
namespace event {
inline constexpr const char *kUnit = "unit", *kPendingUnit = "pending unit",
                            *kExecUnit = "exec unit", *kRun = "run", *kSloBreach = "slo-breach";
inline constexpr const char *kStage = "stage", *kStageUnit = "stage unit",
                            *kStageNode = "stage-node", *kStageCommon = "stage-common",
                            *kRemoteRead = "remote-read";
inline constexpr const char *kStartMaster = "start-master", *kForkWorkers = "fork-workers",
                            *kAddWorkers = "add-workers", *kRegisterWorker = "register-worker",
                            *kReleaseWorker = "release-worker",
                            *kIsolateWorker = "isolate-worker",
                            *kDrainWorker = "drain-worker", *kMasterCrash = "master-crash",
                            *kMasterRecover = "master-recover";
inline constexpr const char *kRequeue = "requeue", *kEvict = "evict",
                            *kTraceTruncated = "trace-truncated", *kArrival = "arrival",
                            *kScaleOut = "scale-out", *kScaleIn = "scale-in";
}  // namespace event

/// Arg keys: of the lifecycle, staging and instant events, of the run
/// anchor's summary, and of the SLO breach spans.
namespace key {
inline constexpr const char *kUnit = "unit", *kWorker = "worker", *kWorkers = "workers",
                            *kVm = "vm", *kFile = "file", *kBytes = "bytes", *kOk = "ok",
                            *kCompleted = "completed", *kStatus = "status",
                            *kAttempt = "attempt", *kAttempts = "attempts",
                            *kDepth = "depth", *kRecoveryS = "recovery_s",
                            *kDroppedEvents = "dropped_events";
inline constexpr const char *kApp = "app", *kStrategy = "strategy",
                            *kNetSolves = "net_solves", *kNetFullSolves = "net_full_solves",
                            *kNetDirtyClasses = "net_dirty_classes",
                            *kCpInstantiations = "cp_instantiations",
                            *kCpTemplated = "cp_templated", *kCpPatches = "cp_patches",
                            *kLatencyP50 = "latency_p50", *kLatencyP95 = "latency_p95",
                            *kLatencyP99 = "latency_p99", *kSustainedTput = "sustained_tput",
                            *kSloBreaches = "slo_breaches", *kSloViolationS = "slo_violation_s";
inline constexpr const char *kChannel = "channel", *kLimit = "limit", *kPeak = "peak";
}  // namespace key

}  // namespace frieda::obs
