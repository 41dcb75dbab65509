// Execution templates: cached, validated control-plane decisions.
//
// Every FriedaRun recomputes the same control-plane work — partition
// generation, the pre-partition assignment table, and one command binding
// per unit — even when a sweep re-runs an identical scenario with only the
// seed or the worker count changed.  Execution Templates (Mashayekhi et
// al., PAPERS.md) remove that bottleneck: the first run of a scenario
// *captures* an immutable template of its control-plane decisions, and
// subsequent runs *instantiate* from it, patching only what changed.
//
// What a template holds, and what invalidates it:
//
//   captured decision          reused when            patched / rebuilt when
//   -------------------------  ---------------------  -------------------------
//   partition list (units)     same app+scale+scheme  key change -> new template
//   per-unit AssignWork        same staging dir and   strategy change -> new key
//     prototypes (bound        staged/streamed side   (command text embeds the
//     command + metadata)      of the strategy        staging decision)
//   assignment table           same policy and        worker-count/VM-set change
//                              worker count           -> table recomputed (patch)
//   arrival schedule           same arrival config    arrival config change ->
//     (open-loop protocol      and unit count         schedule regenerated
//     schedule)                                       (patch)
//
// The template *key* (see workload::template_fingerprint) therefore hashes
// only the structural fields — app, placement strategy, dataset scale,
// NIC/topology class — and deliberately excludes the patchable ones (seed,
// VM count, cores, arrival config).  Seed-only and shape-only reruns hit
// the same template; a strategy or topology change misses and rebuilds.
//
// TemplateStore is the process-global, mutex-guarded, LRU-bounded home of
// captured templates — the control-plane analogue of exp::ResultCache, and
// built on the same common/lru_cache.hpp store.  A run opts out with
// `PaperScenarioOptions::use_execution_templates = false`;
// `FRIEDA_TEMPLATE_AUDIT=1` turns on the differential-check mode (the same
// validation pattern the incremental network solver uses): every templated
// decision is recomputed from scratch and asserted structurally equal
// before use.
//
// Determinism: instantiating from a template is value-identical to a
// from-scratch rebuild by construction (and asserted under audit), so runs,
// reports, tables, and committed CSVs are byte-identical either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/lru_cache.hpp"
#include "frieda/command.hpp"
#include "frieda/protocol.hpp"
#include "frieda/types.hpp"
#include "storage/file.hpp"

namespace frieda::core {

/// One scenario's captured control-plane decisions.  Immutable after
/// capture(); safe to share by shared_ptr across concurrently executing
/// runs (exp::SweepRunner jobs).
class ExecutionTemplate {
 public:
  /// Capture and validate a template.  `units` is the generated partition
  /// list; one AssignWork prototype is bound per unit against `command` /
  /// `catalog` / `staging_dir`; the assignment table is computed for
  /// (`policy`, `worker_count`).  `arrival_key` identifies the open-loop
  /// arrival schedule `arrivals` was generated from (0 = closed batch,
  /// empty schedule).  Throws FriedaError when validation fails (arity
  /// mismatch, non-dense unit ids, assignment not covering every unit
  /// exactly once).
  static std::shared_ptr<const ExecutionTemplate> capture(
      std::vector<WorkUnit> units, const CommandTemplate& command,
      const storage::FileCatalog& catalog, std::string staging_dir, bool inputs_staged,
      AssignmentPolicy policy, std::size_t worker_count, std::uint64_t arrival_key,
      std::vector<SimTime> arrivals);

  /// The partition list (dense, ordered unit ids).
  const std::vector<WorkUnit>& units() const { return units_; }

  /// Per-unit protocol prototypes: the exact AssignWork the master would
  /// build for unit i (bound command line included).  prototypes()[i]
  /// corresponds to units()[i].
  const std::vector<AssignWork>& prototypes() const { return prototypes_; }

  /// Assignment table captured for (assignment_policy, assignment_workers).
  AssignmentPolicy assignment_policy() const { return policy_; }
  std::size_t assignment_workers() const { return worker_count_; }
  const std::vector<std::vector<WorkUnitId>>& assignment() const { return assignment_; }

  /// Staging prefix the prototype command lines were bound against.
  const std::string& staging_dir() const { return staging_dir_; }

  /// Whether the prototypes carry inputs_staged (pre-staged strategies) or
  /// not (remote-read / shared-volume streaming).
  bool inputs_staged() const { return inputs_staged_; }

  /// Identity of the captured arrival schedule (see
  /// workload::arrival_schedule_key); 0 means closed batch, no schedule.
  std::uint64_t arrival_key() const { return arrival_key_; }
  const std::vector<SimTime>& arrivals() const { return arrivals_; }

  /// Structural identity of the partition list (see partition_signature in
  /// partition.hpp) — a cheap equality proxy for audits and tests.
  const Fingerprint& partition_sig() const { return partition_sig_; }

 private:
  ExecutionTemplate() = default;

  std::vector<WorkUnit> units_;
  std::vector<AssignWork> prototypes_;
  std::vector<std::vector<WorkUnitId>> assignment_;
  AssignmentPolicy policy_ = AssignmentPolicy::kRoundRobin;
  std::size_t worker_count_ = 0;
  std::string staging_dir_;
  bool inputs_staged_ = true;
  std::uint64_t arrival_key_ = 0;
  std::vector<SimTime> arrivals_;
  Fingerprint partition_sig_;
};

/// Process-global home of captured templates, keyed by the structural
/// scenario fingerprint.  The store itself is the shared LruCache (the one
/// exp::ResultCache uses): mutex-guarded, bounded by an LRU cap,
/// first-insert-wins, lookup() returns nullopt on miss.  Templates are held
/// by shared_ptr, so an evicted template stays valid for runs still
/// holding it.  TemplateStore adds only the build/patch counters and the
/// audit flag.
class TemplateStore
    : public LruCache<Fingerprint, std::shared_ptr<const ExecutionTemplate>> {
 public:
  /// Default entry cap.  A template for a 100k-unit scenario is a few tens
  /// of MB, so the cap is far tighter than ResultCache's — today's drivers
  /// use a handful of (app, strategy, scale) combinations.
  static constexpr std::size_t kDefaultMaxEntries = 64;

  explicit TemplateStore(std::size_t max_entries = kDefaultMaxEntries)
      : LruCache(max_entries) {}

  // Lifetime statistics beyond the LRU's hits/misses/evictions (mirrored
  // into obs::MetricsRegistry by the scenario drivers as
  // frieda.template_hits / _builds / _patches).  clear() keeps them.
  std::uint64_t builds() const { return builds_.load(); }    ///< templates captured
  std::uint64_t patches() const { return patches_.load(); }  ///< patched instantiations

  /// Record that a template was captured / that an instantiation had to
  /// patch a decision (worker-count delta, arrival-config delta).
  void note_build() { builds_.fetch_add(1); }
  void note_patch(std::uint64_t n = 1) { patches_.fetch_add(n); }

  /// Differential-check audit mode: every templated decision is also
  /// recomputed from scratch and asserted structurally equal before use
  /// (the Network::set_differential_check pattern).  Seeded from
  /// FRIEDA_TEMPLATE_AUDIT for the global store; off by default.
  bool differential_check() const { return audit_.load(); }
  void set_differential_check(bool on) { audit_.store(on); }

  /// The process-wide store every scenario driver consults, which is what
  /// makes templates pay off *across* the runs of one sweep.  First use
  /// applies FRIEDA_TEMPLATE_AUDIT (an invalid value logs kWarn and keeps
  /// audit off).
  static TemplateStore& global();

 private:
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> patches_{0};
  std::atomic<bool> audit_{false};
};

namespace detail {
/// Parse a boolean-ish env value: "0"/"false"/"off"/"no" -> 0,
/// "1"/"true"/"on"/"yes" -> 1 (ASCII case-insensitive), anything else -> -1
/// (invalid; the caller logs and keeps its default).
int parse_bool_env(const char* text);
}  // namespace detail

}  // namespace frieda::core
