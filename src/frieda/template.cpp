#include "frieda/template.hpp"

#include <cctype>
#include <cstdlib>
#include <mutex>

#include "common/error.hpp"
#include "common/log.hpp"
#include "frieda/assignment.hpp"
#include "frieda/partition.hpp"

namespace frieda::core {

std::shared_ptr<const ExecutionTemplate> ExecutionTemplate::capture(
    std::vector<WorkUnit> units, const CommandTemplate& command,
    const storage::FileCatalog& catalog, std::string staging_dir, bool inputs_staged,
    AssignmentPolicy policy, std::size_t worker_count, std::uint64_t arrival_key,
    std::vector<SimTime> arrivals) {
  FRIEDA_CHECK(!units.empty(), "execution template needs at least one work unit");
  FRIEDA_CHECK(worker_count > 0, "execution template needs at least one worker slot");
  for (std::size_t i = 0; i < units.size(); ++i) {
    FRIEDA_CHECK(units[i].id == i, "execution template: unit ids must be dense and ordered");
    FRIEDA_CHECK(command.accepts(units[i]),
                 "execution template: command arity " << command.input_arity()
                                                      << " does not match unit " << i);
  }
  if (arrival_key != 0) {
    FRIEDA_CHECK(arrivals.size() == units.size(),
                 "execution template: arrival schedule must cover every unit ("
                     << arrivals.size() << " offsets for " << units.size() << " units)");
  } else {
    FRIEDA_CHECK(arrivals.empty(), "closed-batch template must carry no arrival schedule");
  }

  auto tmpl = std::shared_ptr<ExecutionTemplate>(new ExecutionTemplate());
  tmpl->prototypes_ = bind_units(command, units, catalog, staging_dir, inputs_staged);
  tmpl->assignment_ = assign_units(policy, units, catalog, worker_count);
  FRIEDA_CHECK(valid_assignment(tmpl->assignment_, units.size(), worker_count),
               "execution template: assignment table does not cover every unit "
               "exactly once");
  tmpl->partition_sig_ = partition_signature(units);
  tmpl->units_ = std::move(units);
  tmpl->policy_ = policy;
  tmpl->worker_count_ = worker_count;
  tmpl->staging_dir_ = std::move(staging_dir);
  tmpl->inputs_staged_ = inputs_staged;
  tmpl->arrival_key_ = arrival_key;
  tmpl->arrivals_ = std::move(arrivals);
  return tmpl;
}

namespace detail {

int parse_bool_env(const char* text) {
  if (text == nullptr || *text == '\0') return -1;
  std::string v(text);
  for (auto& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (v == "0" || v == "false" || v == "off" || v == "no") return 0;
  if (v == "1" || v == "true" || v == "on" || v == "yes") return 1;
  return -1;
}

}  // namespace detail

TemplateStore& TemplateStore::global() {
  static TemplateStore store;
  static std::once_flag env_once;
  std::call_once(env_once, [] {
    if (const char* env = std::getenv("FRIEDA_TEMPLATE_AUDIT")) {
      const int v = detail::parse_bool_env(env);
      if (v < 0) {
        FLOG(kWarn, "template",
             "ignoring FRIEDA_TEMPLATE_AUDIT='" << env
                                                << "' (expected 0/1/true/false); audit stays "
                                                   "off");
      } else {
        store.set_differential_check(v == 1);
      }
    }
  });
  return store;
}

}  // namespace frieda::core
