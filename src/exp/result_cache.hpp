// In-process memoization of sweep results, keyed by config fingerprint.
//
// Every paper scenario is a deterministic function of its configuration
// (app kind, placement strategy, every PaperScenarioOptions field — the
// seed included), so two jobs with the same `Fingerprint` produce
// field-identical `RunReport`s.  A `ResultCache` exploits that: the sweep
// runner consults it before dispatching a job and serves repeated cells —
// within one grid or across grids of the same process — from the cache
// instead of re-simulating them.  Ablation drivers that re-run a shared
// baseline (e.g. the scale-0.2 real-time run) pay for it once.
//
// The cache is a bounded LruCache (common/lru_cache.hpp — the same store
// core::TemplateStore uses): at most `max_entries()` results are retained,
// with least-recently-used eviction (a lookup hit or re-insert refreshes
// the entry).  The default cap is generous — today's full ablation suite
// is a few dozen cells — but it means a long-lived service sweeping
// millions of configurations cannot grow the cache without bound.
// `evictions()` counts the entries discarded, and the sweep runner mirrors
// the delta into its `sweep.cache_evictions` metric.
//
// Thread safety: all members are mutex-synchronized; values are returned
// *by copy* so a cached report can never be mutated or invalidated under a
// concurrent reader (or by eviction).  Jobs whose configuration cannot be
// fingerprinted (ad-hoc callables, options with `arrange`/tracer/metrics
// hooks) never reach the cache — see exp::scenario_fingerprint.
//
// Results live only as long as the process: the cache has no on-disk form,
// so a served entry is always one this process computed itself.
#pragma once

#include <cstddef>

#include "common/hash.hpp"
#include "common/lru_cache.hpp"

namespace frieda::exp {

template <typename R>
class ResultCache : public LruCache<Fingerprint, R> {
 public:
  /// Default entry cap — far above today's grid sizes (the full ablation
  /// suite is < 100 cells) while bounding a runaway sweep's footprint.
  static constexpr std::size_t kDefaultMaxEntries = 4096;

  explicit ResultCache(std::size_t max_entries = kDefaultMaxEntries)
      : LruCache<Fingerprint, R>(max_entries) {}

  /// The process-wide cache for result type R — the default every
  /// SweepRunner<R> consults, which is what makes memoization work *across*
  /// the independent grids of one driver.  Use `SweepRunner::set_cache`
  /// with a local instance (or nullptr) to isolate or disable.
  static ResultCache& global() {
    static ResultCache cache;
    return cache;
  }
};

}  // namespace frieda::exp
