#include "frieda/command.hpp"

#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace frieda::core {

namespace {
/// Returns N for "$inpN" tokens, 0 otherwise.
std::size_t placeholder_index(const std::string& token) {
  if (!strutil::starts_with(token, "$inp")) return 0;
  const auto n = strutil::to_int(token.substr(4));
  if (!n || *n <= 0) return 0;
  return static_cast<std::size_t>(*n);
}
}  // namespace

CommandTemplate::CommandTemplate(const std::string& spec) : spec_(strutil::trim(spec)) {
  std::istringstream in(spec_);
  std::string token;
  while (in >> token) tokens_.push_back(token);
  FRIEDA_CHECK(!tokens_.empty(), "empty command template");

  std::set<std::size_t> seen;
  slots_.reserve(tokens_.size());
  for (const auto& t : tokens_) {
    const std::size_t idx = placeholder_index(t);
    slots_.push_back(idx);
    if (idx == 0) {
      FRIEDA_CHECK(!strutil::starts_with(t, "$inp"),
                   "malformed input placeholder '" << t << "' (use $inp1, $inp2, ...)");
      continue;
    }
    FRIEDA_CHECK(seen.insert(idx).second, "duplicate placeholder $inp" << idx);
  }
  arity_ = seen.size();
  // Dense check: placeholders must be exactly {1..K}.
  for (std::size_t i = 1; i <= arity_; ++i) {
    FRIEDA_CHECK(seen.count(i), "placeholders must be dense: missing $inp" << i);
  }
}

template <typename Placeholder>
std::string CommandTemplate::render(std::size_t placeholder_bytes,
                                    const Placeholder& append_input) const {
  std::size_t size = tokens_.size() - 1 + placeholder_bytes;  // the separators
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (slots_[i] == 0) size += tokens_[i].size();
  }
  std::string out;
  out.reserve(size);
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (i) out += ' ';
    if (slots_[i] > 0) {
      append_input(out, slots_[i] - 1);
    } else {
      out += tokens_[i];
    }
  }
  return out;
}

std::string CommandTemplate::bind(const std::vector<std::string>& paths) const {
  FRIEDA_CHECK(paths.size() == arity_, "template expects " << arity_ << " inputs, got "
                                                           << paths.size());
  std::size_t bytes = 0;
  for (const auto& p : paths) bytes += p.size();
  return render(bytes, [&](std::string& out, std::size_t k) { out += paths[k]; });
}

std::string CommandTemplate::bind_unit(const WorkUnit& unit,
                                       const storage::FileCatalog& catalog,
                                       const std::string& staging_dir) const {
  FRIEDA_CHECK(unit.inputs.size() == arity_, "template expects "
                                                 << arity_ << " inputs, got "
                                                 << unit.inputs.size());
  // Each input binds to "<staging_dir>/<catalog name>".
  std::size_t bytes = 0;
  for (const auto f : unit.inputs) bytes += staging_dir.size() + 1 + catalog.info(f).name.size();
  return render(bytes, [&](std::string& out, std::size_t k) {
    out += staging_dir;
    out += '/';
    out += catalog.info(unit.inputs[k]).name;
  });
}

std::vector<std::string> CommandTemplate::bind_all(const std::vector<WorkUnit>& units,
                                                   const storage::FileCatalog& catalog,
                                                   const std::string& staging_dir) const {
  std::vector<std::string> out;
  out.reserve(units.size());
  for (const auto& u : units) out.push_back(bind_unit(u, catalog, staging_dir));
  return out;
}

}  // namespace frieda::core
