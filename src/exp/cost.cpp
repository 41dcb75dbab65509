#include "exp/cost.hpp"

#include <algorithm>

namespace frieda::exp {

std::optional<Fingerprint> scenario_fingerprint(const char* app, const char* mode,
                                                const workload::PaperScenarioOptions& opt) {
  if (!workload::fingerprintable(opt)) return std::nullopt;
  StableHasher h;
  // Versioned prefix: bump the salt when the encoding below changes shape so
  // stale keys can never alias new ones.
  h.mix_str("frieda-scenario-v1").mix_str(app).mix_str(mode);
  workload::hash_options(h, opt);
  return h.digest();
}

double scenario_cost(const char* app, bool sequential,
                     const workload::PaperScenarioOptions& opt) {
  const double units = workload::estimate_units(app, opt);
  // Sequential baselines run one program instance on one VM regardless of
  // the VM-shape fields; parallel runs spread units over every slot.
  const double slots =
      sequential ? 1.0
                 : static_cast<double>(std::max<std::size_t>(1, opt.worker_vms)) *
                       (opt.multicore ? std::max(1u, opt.cores_per_vm) : 1u);
  return units / slots;
}

}  // namespace frieda::exp
