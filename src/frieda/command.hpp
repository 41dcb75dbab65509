// Execution-syntax templates (paper Section II.D).
//
// "If 'app' is the program that needs to be executed and takes arg1 and arg2
//  as params and inp1 as input, then the execution command is sent to the
//  workers as `app arg1 arg2 $inp1`, where $inp1 is replaced by the location
//  of the file at runtime."
//
// CommandTemplate parses that syntax, validates that the $inpN placeholders
// are dense (inp1..inpK), and binds concrete file paths when the worker
// receives a work unit.  FRIEDA never modifies the program itself.
//
// Each token is classified once, at construction, as a literal or a
// placeholder index.  Binding appends the literals and the bound paths into
// one std::string sized up front: no stream and no intermediate path list,
// so a binding costs one allocation (none when it fits the small-string
// buffer).
#pragma once

#include <string>
#include <vector>

#include "frieda/types.hpp"
#include "storage/file.hpp"

namespace frieda::core {

/// A parsed program invocation template with $inpN input placeholders.
class CommandTemplate {
 public:
  /// Parse from the paper's syntax.  Throws FriedaError on malformed or
  /// non-dense placeholders ($inp1..$inpK each exactly once).
  explicit CommandTemplate(const std::string& spec);

  /// Number of input placeholders K (files each program instance consumes).
  std::size_t input_arity() const { return arity_; }

  /// The program token (first word).
  const std::string& program() const { return tokens_.front(); }

  /// Raw template text.
  const std::string& spec() const { return spec_; }

  /// Substitute file locations for the placeholders; requires
  /// paths.size() == input_arity().
  std::string bind(const std::vector<std::string>& paths) const;

  /// Bind using the catalog names of a work unit's files, prefixed with a
  /// staging directory ("/data/<name>").
  std::string bind_unit(const WorkUnit& unit, const storage::FileCatalog& catalog,
                        const std::string& staging_dir = "/data") const;

  /// Batch form of bind_unit over a whole partition list (execution-template
  /// capture): out[i] is bind_unit(units[i], ...).
  std::vector<std::string> bind_all(const std::vector<WorkUnit>& units,
                                    const storage::FileCatalog& catalog,
                                    const std::string& staging_dir = "/data") const;

  /// True when a unit's group size matches the template's arity.
  bool accepts(const WorkUnit& unit) const { return unit.inputs.size() == arity_; }

 private:
  /// Join the tokens with single spaces, calling append_input(out, k) for
  /// the token bound to input k; placeholder_bytes is the bound inputs'
  /// total length.
  template <typename Placeholder>
  std::string render(std::size_t placeholder_bytes, const Placeholder& append_input) const;

  std::string spec_;
  std::vector<std::string> tokens_;  // split on whitespace
  std::vector<std::size_t> slots_;   // per token: 0 = literal, N = $inpN
  std::size_t arity_ = 0;
};

}  // namespace frieda::core
