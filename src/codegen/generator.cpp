#include "codegen/generator.h"

#include <algorithm>

#include "analysis/loopinfo.h"
#include "codegen/families.h"
#include "frontend/parser.h"
#include "lint/diagnostics.h"

namespace clpp::codegen {

namespace {

/// Families whose loop body carries a dependence the dependence test
/// provably detects: attaching a bare `parallel for` to them is a
/// guaranteed loop-carried-dependence finding.
bool provably_racy_family(const std::string& family) {
  return family == "recurrence" || family == "scalar_carried" ||
         family == "outer_dependent" || family == "indirect_write";
}

/// Canonical induction variable of the snippet's first loop ("" when the
/// loop cannot be canonicalized — nothing to corrupt then).
std::string induction_of(const std::string& code) {
  try {
    const frontend::NodePtr unit = frontend::parse_snippet(code);
    const frontend::Node* loop = nullptr;
    frontend::walk(*unit, [&](const frontend::Node& node, int) {
      if (loop == nullptr && node.kind == frontend::NodeKind::kFor) loop = &node;
    });
    if (loop != nullptr)
      if (const auto canonical = analysis::canonicalize(*loop))
        return std::string(canonical->induction);
  } catch (const ParseError&) {
  }
  return {};
}

/// Corrupts `record`'s label into one lint-detectable defect and tags
/// `record.bug` with the rule id the linter must report. No-op when the
/// record offers nothing corruptible. `rng` is only drawn from on simd
/// records, keeping the sequence of every pre-simd corpus untouched.
void seed_directive_bug(corpus::Record& record, Rng& rng) {
  if (!record.has_directive) {
    if (!provably_racy_family(record.family)) return;
    frontend::OmpDirective bare;
    bare.parallel = true;
    bare.for_loop = true;
    record.has_directive = true;
    record.directive_text = bare.to_string();
    record.bug = lint::rule::kLoopCarried;
    return;
  }

  frontend::OmpDirective directive = frontend::parse_omp_pragma(record.directive_text);
  if (directive.simd && !directive.for_loop) {
    // Bare `omp simd`: corrupt into the simd legality family.
    if (directive.safelen > 0) {
      if (rng.chance(0.5)) {
        directive.safelen = 0;  // distance still carried, nothing licenses it
        record.bug = lint::rule::kSimdMissesSafelen;
      } else {
        directive.safelen *= 2;  // now exceeds the carried distance
        record.bug = lint::rule::kSimdUnsafeDep;
      }
    } else if (!directive.reductions.empty()) {
      directive.reductions.clear();
      record.bug = lint::rule::kSimdReductionMismatch;
    } else {
      return;  // dependence-free bare simd offers nothing corruptible
    }
    record.directive_text = directive.to_string();
    return;
  }
  if (record.family == "simd_nest") {
    directive.simd = true;
    record.bug = lint::rule::kSimdNonInnermost;
    record.directive_text = directive.to_string();
    return;
  }
  const std::string induction = induction_of(record.code);
  if (!directive.reductions.empty()) {
    directive.reductions.clear();
    record.bug = lint::rule::kMissingReduction;
  } else {
    // The implicitly private iterator doesn't count: dropping it changes
    // nothing the linter can see.
    const auto dropped = std::remove_if(
        directive.private_vars.begin(), directive.private_vars.end(),
        [&](const std::string& name) { return name != induction; });
    const bool any_dropped = dropped != directive.private_vars.end();
    directive.private_vars.erase(dropped, directive.private_vars.end());
    if (any_dropped) {
      record.bug = lint::rule::kMissingPrivate;
    } else if (!induction.empty()) {
      directive.shared_vars.push_back(induction);
      record.bug = lint::rule::kSharedInduction;
    } else {
      return;
    }
  }
  record.directive_text = directive.to_string();
}

}  // namespace

corpus::Corpus generate_corpus(const GeneratorConfig& config) {
  CLPP_CHECK_MSG(config.size > 0, "corpus size must be positive");
  CLPP_CHECK_MSG(config.label_noise >= 0.0 && config.label_noise < 0.5,
                 "label noise must be in [0, 0.5)");
  CLPP_CHECK_MSG(config.buggy_directive_rate >= 0.0 && config.buggy_directive_rate < 1.0,
                 "buggy directive rate must be in [0, 1)");
  Rng rng(config.seed);

  std::vector<Family> families = all_families();
  if (config.simd_families) {
    const auto& simd = simd_families();
    families.insert(families.end(), simd.begin(), simd.end());
  }
  std::vector<double> weights;
  weights.reserve(families.size());
  for (const Family& f : families) weights.push_back(f.weight);

  corpus::Corpus corpus;
  for (std::size_t index = 0; index < config.size; ++index) {
    const Family& family = families[rng.weighted(weights)];
    GeneratedSnippet snippet = family.make(rng);

    corpus::Record record;
    record.id = "omp-" + std::to_string(index);
    record.family = snippet.family;
    record.code = std::move(snippet.code);
    record.has_directive = snippet.has_directive;
    if (snippet.has_directive) record.directive_text = snippet.directive.to_string();

    // The `> 0` guard on the bug draw keeps the rng sequence — and thus
    // every existing seeded corpus — bit-identical when the knob is off.
    if (rng.chance(config.label_noise)) {
      if (record.has_directive) {
        record.has_directive = false;
        record.directive_text.clear();
      } else {
        record.has_directive = true;
        frontend::OmpDirective bare;
        bare.parallel = true;
        bare.for_loop = true;
        record.directive_text = bare.to_string();
      }
    } else if (config.buggy_directive_rate > 0 &&
               rng.chance(config.buggy_directive_rate)) {
      seed_directive_bug(record, rng);
    }
    record.refresh_labels();
    corpus.add(std::move(record));
  }
  return corpus;
}

}  // namespace clpp::codegen
