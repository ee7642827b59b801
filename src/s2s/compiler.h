// Source-to-source automatic parallelization compilers.
//
// Three personalities model the members of the ComPar ensemble evaluated by
// the paper (Cetus, AutoPar/ROSE, Par4All). Each is a *real* compiler over
// our frontend + dependence analysis — their differing behaviour comes from
// capability knobs (what they bail on, which reductions they recognize,
// whether they privatize the iterator explicitly), not from canned outputs.
// The documented pitfalls of §1.1 and §5 emerge from these knobs:
//   * explicit `private(i)` although OpenMP privatizes the iterator anyway
//     (hurts ComPar's private-clause precision, §5.3);
//   * canonical-form-only reduction recognition (high precision / low
//     recall on reduction, Table 10);
//   * refusal to parallelize loops with unknown call side effects
//     (low recall on directives, Table 7);
//   * outright compile failure on hostile constructs (526/3547 in §5.2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/depend.h"
#include "frontend/parser.h"
#include "frontend/pragma.h"

namespace clpp::s2s {

/// Outcome of running one S2S compiler on a snippet.
struct S2SResult {
  enum class Status {
    kParallelized,  // directive produced
    kNoDirective,   // compiled fine; judged not parallelizable / not worth it
    kFailed,        // could not process the input at all
  };
  Status status = Status::kFailed;
  std::optional<frontend::OmpDirective> directive;
  std::vector<std::string> notes;

  bool parallelized() const { return status == Status::kParallelized; }
  bool failed() const { return status == Status::kFailed; }
};

/// Capability envelope of one S2S compiler.
struct CompilerProfile {
  std::string name;
  analysis::AnalyzerOptions analyzer;
  /// Emit private(<iterator>) explicitly (Cetus does; see §5.3).
  bool explicit_iterator_private = false;
  /// Always spell out schedule(static) even when default.
  bool emit_schedule = false;
  /// Refuse snippets containing locally defined helper functions
  /// (no interprocedural analysis).
  bool fail_on_local_functions = false;
  /// Refuse snippets containing struct definitions or struct access.
  bool fail_on_structs = false;
  /// Refuse snippets containing goto/labels.
  bool fail_on_goto = true;
  /// Maximum statement count the compiler will analyze (0 = unlimited);
  /// models the cost blow-up of dependence testing on long bodies (§1.1).
  std::size_t max_statements = 0;
};

/// Built-in personalities.
CompilerProfile cetus_profile();
CompilerProfile autopar_profile();
CompilerProfile par4all_profile();

/// One S2S compiler instance.
class S2SCompiler {
 public:
  explicit S2SCompiler(CompilerProfile profile);

  const CompilerProfile& profile() const { return profile_; }

  /// Processes a parsed snippet: finds the first top-level loop and decides.
  S2SResult process(const frontend::Node& unit) const;

  /// Processes a specific loop within the snippet.
  S2SResult process_loop(const frontend::Node& unit,
                         const frontend::Node& loop) const;

  /// End-to-end S2S transformation: parse `source`, insert the directive
  /// above the target loop if one is produced, and return the new source.
  /// Returns the input unchanged (plus notes) when nothing is inserted.
  std::string annotate(const std::string& source) const;

 private:
  /// Pre-analysis robustness gate; fills `result` and returns false on
  /// refusal.
  bool compile_gate(const frontend::Node& unit, S2SResult& result) const;

  CompilerProfile profile_;
};

/// Finds the first top-level For loop of a snippet (the corpus target
/// convention); nullptr when there is none.
const frontend::Node* find_target_loop(const frontend::Node& unit);

/// Synthesizes the `parallel for` directive a verdict implies: an explicit
/// schedule(static) when asked, private list (optionally with the iterator
/// spelled explicitly, the Cetus §5.3 habit), and reduction clauses.
frontend::OmpDirective directive_from_verdict(const analysis::LoopVerdict& verdict,
                                              bool explicit_iterator_private = false,
                                              bool emit_schedule = false);

}  // namespace clpp::s2s
