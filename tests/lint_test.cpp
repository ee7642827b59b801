// clpp::lint — rule-by-rule linter tests, rendering, audit, and the
// race-detector property guards over the codegen families.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/families.h"
#include "codegen/generator.h"
#include "frontend/parser.h"
#include "lint/audit.h"
#include "lint/explain.h"
#include "lint/linter.h"
#include "support/parallel.h"

namespace clpp::lint {
namespace {

using frontend::Node;
using frontend::NodeKind;
using frontend::NodePtr;
using frontend::OmpDirective;

/// Lints `directive` + "\n" + `code` (pragma immediately above the loop).
LintReport lint(const std::string& directive, const std::string& code,
                LintOptions options = {}) {
  return Linter(options).lint_source(directive + "\n" + code);
}

const Diagnostic* find_rule(const LintReport& report, const std::string& rule_id) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == rule_id) return &d;
  return nullptr;
}

/// Corpus-convention lint: the directive governs the snippet's first loop.
LintReport lint_first_loop(const std::string& code, const OmpDirective& directive) {
  const NodePtr unit = frontend::parse_snippet(code);
  const Node* loop = nullptr;
  frontend::walk(*unit, [&](const Node& node, int) {
    if (loop == nullptr && node.kind == NodeKind::kFor) loop = &node;
  });
  return Linter{}.lint_loop(*unit, directive, loop);
}

OmpDirective bare_parallel_for() {
  OmpDirective d;
  d.parallel = true;
  d.for_loop = true;
  return d;
}

// --- missing-private ---------------------------------------------------------------

TEST(Lint, MissingPrivateFiresWithFixit) {
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++) {\n"
                           "  t = a[i] * 2.0;\n"
                           "  b[i] = t + t;\n"
                           "}\n");
  const Diagnostic* d = find_rule(report, rule::kMissingPrivate);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->fix.find("private(t)"), std::string::npos) << d->fix;
  EXPECT_EQ(d->range.line, 3) << "anchored at the first write of t";
  EXPECT_EQ(d->range.column, 3);
}

TEST(Lint, MissingPrivateSilentWhenPrivatized) {
  for (const char* pragma :
       {"#pragma omp parallel for private(t)",
        "#pragma omp parallel for lastprivate(t)"}) {
    const auto report = lint(pragma,
                             "for (i = 0; i < n; i++) {\n"
                             "  t = a[i] * 2.0;\n"
                             "  b[i] = t + t;\n"
                             "}\n");
    EXPECT_FALSE(report.has_rule(rule::kMissingPrivate)) << pragma;
    EXPECT_EQ(report.errors(), 0u) << pragma;
  }
}

// --- missing-reduction -------------------------------------------------------------

TEST(Lint, MissingReductionFiresWithFixit) {
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++)\n"
                           "  s = s + a[i];\n");
  const Diagnostic* d = find_rule(report, rule::kMissingReduction);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->fix.find("reduction(+: s)"), std::string::npos) << d->fix;
}

TEST(Lint, MissingReductionRecognizesMinMax) {
  const auto firing = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++)\n"
                           "  if (a[i] > m) m = a[i];\n");
  const Diagnostic* d = find_rule(firing, rule::kMissingReduction);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("max"), std::string::npos) << d->message;

  const auto silent = lint("#pragma omp parallel for reduction(max: m)",
                           "for (i = 0; i < n; i++)\n"
                           "  if (a[i] > m) m = a[i];\n");
  EXPECT_FALSE(silent.has_rule(rule::kMissingReduction));
  EXPECT_EQ(silent.errors(), 0u);
}

TEST(Lint, ReductionOperatorMismatchCountsAsMissing) {
  const auto report = lint("#pragma omp parallel for reduction(*: s)",
                           "for (i = 0; i < n; i++)\n"
                           "  s += a[i];\n");
  const Diagnostic* d = find_rule(report, rule::kMissingReduction);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("mismatch"), std::string::npos) << d->message;
  EXPECT_NE(d->fix.find("reduction(+: s)"), std::string::npos) << d->fix;
}

TEST(Lint, PrivatizedAccumulatorStillNeedsReduction) {
  const auto report = lint("#pragma omp parallel for private(s)",
                           "for (i = 0; i < n; i++)\n"
                           "  s = s + a[i];\n");
  EXPECT_TRUE(report.has_rule(rule::kMissingReduction));
  // The broken privatization is reported once, not echoed by the
  // uninitialized-private rule too.
  EXPECT_FALSE(report.has_rule(rule::kUninitializedPrivate));
}

// --- shared-induction --------------------------------------------------------------

TEST(Lint, SharedInductionFiresAndFixDropsIt) {
  const auto report = lint("#pragma omp parallel for shared(i, n)",
                           "for (i = 0; i < n; i++)\n"
                           "  a[i] = b[i];\n");
  const Diagnostic* d = find_rule(report, rule::kSharedInduction);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->fix.find("shared(i"), std::string::npos) << d->fix;
  EXPECT_NE(d->fix.find("shared(n)"), std::string::npos)
      << "other shared vars survive the fix: " << d->fix;
}

TEST(Lint, SharedNonInductionIsFine) {
  const auto report = lint("#pragma omp parallel for shared(a, b, n)",
                           "for (i = 0; i < n; i++)\n"
                           "  a[i] = b[i];\n");
  EXPECT_FALSE(report.has_rule(rule::kSharedInduction));
  EXPECT_EQ(report.errors(), 0u);
}

// --- uninitialized-private ---------------------------------------------------------

TEST(Lint, UninitializedPrivateWarnsAndSuggestsFirstprivate) {
  const auto report = lint("#pragma omp parallel for private(scale)",
                           "for (i = 0; i < n; i++)\n"
                           "  a[i] = b[i] * scale;\n");
  const Diagnostic* d = find_rule(report, rule::kUninitializedPrivate);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->fix.find("firstprivate(scale)"), std::string::npos) << d->fix;
}

TEST(Lint, FirstprivateAndDefBeforeUseAreFine) {
  const auto fp = lint("#pragma omp parallel for firstprivate(scale)",
                       "for (i = 0; i < n; i++)\n"
                       "  a[i] = b[i] * scale;\n");
  EXPECT_FALSE(fp.has_rule(rule::kUninitializedPrivate));

  const auto def_first = lint("#pragma omp parallel for private(t)",
                              "for (i = 0; i < n; i++) {\n"
                              "  t = b[i] * 2.0;\n"
                              "  a[i] = t;\n"
                              "}\n");
  EXPECT_FALSE(def_first.has_rule(rule::kUninitializedPrivate));
}

// --- loop-carried-dependence -------------------------------------------------------

TEST(Lint, ArrayRecurrenceIsAnError) {
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 1; i < n; i++)\n"
                           "  a[i] = a[i - 1] + b[i];\n");
  const Diagnostic* d = find_rule(report, rule::kLoopCarried);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("'a'"), std::string::npos) << d->message;
}

TEST(Lint, HexOffsetRecurrenceIsAnError) {
  // a[i + 0x1] is written one iteration ahead of the read of a[i].
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++)\n"
                           "  a[i + 0x1] = a[i] + 1;\n");
  const Diagnostic* d = find_rule(report, rule::kLoopCarried);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->provenance.find("distance 1"), std::string::npos) << d->provenance;
}

TEST(Lint, HexBoundIsNotASmallTripCount) {
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 0; i < 0x100; i++)\n"
                           "  a[i] = b[i];\n");
  EXPECT_TRUE(report.clean()) << report.to_text();
}

TEST(Lint, IndependentElementwiseIsClean) {
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++)\n"
                           "  a[i] = b[i] + c[i];\n");
  EXPECT_TRUE(report.clean()) << report.to_text();
  EXPECT_EQ(report.loops_checked, 1u);
}

TEST(Lint, ScalarCarriedCoveredByPrivateClauseIsNotADependence) {
  const char* code =
      "for (i = 0; i < n; i++) {\n"
      "  t = c[i] + t * 0.5;\n"
      "  b[i] = t;\n"
      "}\n";
  const auto bare = lint("#pragma omp parallel for", code);
  EXPECT_TRUE(bare.has_rule(rule::kLoopCarried));
  const auto covered = lint("#pragma omp parallel for private(t)", code);
  EXPECT_FALSE(covered.has_rule(rule::kLoopCarried))
      << "privatization cuts the cross-iteration edge";
}

// --- non-canonical-loop ------------------------------------------------------------

TEST(Lint, NonCanonicalLoopForms) {
  const auto not_a_for = lint("#pragma omp parallel for",
                              "while (n > 0)\n  n = n - 1;\n");
  EXPECT_TRUE(not_a_for.has_rule(rule::kNonCanonicalLoop));

  const auto geometric = lint("#pragma omp parallel for",
                              "for (i = 1; i < n; i *= 2)\n  a[i] = 0;\n");
  EXPECT_TRUE(geometric.has_rule(rule::kNonCanonicalLoop));

  const auto breaks = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++) {\n"
                           "  if (a[i] == key) break;\n"
                           "}\n");
  EXPECT_TRUE(breaks.has_rule(rule::kNonCanonicalLoop));
}

// --- small-trip-count --------------------------------------------------------------

TEST(Lint, SmallTripCountThresholdIsTunable) {
  const char* code = "for (i = 0; i < 4; i++)\n  a[i] = b[i];\n";
  const auto firing = lint("#pragma omp parallel for", code);
  const Diagnostic* d = find_rule(firing, rule::kSmallTripCount);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);

  LintOptions lax;
  lax.small_trip_threshold = 2;
  EXPECT_FALSE(lint("#pragma omp parallel for", code, lax)
                   .has_rule(rule::kSmallTripCount));

  const auto big = lint("#pragma omp parallel for",
                        "for (i = 0; i < 4096; i++)\n  a[i] = b[i];\n");
  EXPECT_FALSE(big.has_rule(rule::kSmallTripCount));
}

// --- unknown-call-effect -----------------------------------------------------------

TEST(Lint, UnknownCallEffectWarnsOncePerCallee) {
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++) {\n"
                           "  a[i] = mystery(b[i]);\n"
                           "  c[i] = mystery(a[i]);\n"
                           "}\n");
  std::size_t firings = 0;
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == rule::kUnknownCallEffect) ++firings;
  EXPECT_EQ(firings, 1u);
  EXPECT_EQ(report.errors(), 0u) << "conservative finding stays a warning";
}

TEST(Lint, PureCalleesDoNotWarn) {
  const auto libm = lint("#pragma omp parallel for",
                         "for (i = 0; i < n; i++)\n  a[i] = sqrt(b[i]);\n");
  EXPECT_FALSE(libm.has_rule(rule::kUnknownCallEffect));

  const auto local = lint("#pragma omp parallel for",
                          "double square(double x) { return x * x; }\n"
                          "for (i = 0; i < n; i++)\n  a[i] = square(b[i]);\n");
  EXPECT_FALSE(local.has_rule(rule::kUnknownCallEffect))
      << "locally defined pure helper is provably safe";
}

// --- parse-error + rendering -------------------------------------------------------

TEST(Lint, ParseFailureIsADiagnosticNotAThrow) {
  const auto report = Linter{}.lint_source("#pragma omp parallel for\nfor (i = 0 ;;");
  EXPECT_TRUE(report.has_rule(rule::kParseError));
  EXPECT_GE(report.errors(), 1u);
}

TEST(Lint, TextRenderingCarriesPositionRuleAndFix) {
  const auto report = Linter{}.lint_source(
      "#pragma omp parallel for\nfor (i = 0; i < n; i++)\n  s = s + a[i];\n",
      "kernel.c");
  const std::string text = report.to_text();
  EXPECT_NE(text.find("kernel.c:3:3: error:"), std::string::npos) << text;
  EXPECT_NE(text.find("[missing-reduction]"), std::string::npos) << text;
  EXPECT_NE(text.find("suggested fix: #pragma omp parallel for reduction(+: s)"),
            std::string::npos)
      << text;
}

TEST(Lint, JsonRenderingIsSarifLite) {
  const auto report = Linter{}.lint_source(
      "#pragma omp parallel for\nfor (i = 0; i < n; i++)\n  s = s + a[i];\n",
      "kernel.c");
  const Json doc = report.to_json();
  EXPECT_EQ(doc.at("file").as_string(), "kernel.c");
  EXPECT_EQ(doc.at("loops_checked").as_int(), 1);
  EXPECT_GE(doc.at("errors").as_int(), 1);
  ASSERT_GE(doc.at("diagnostics").size(), 1u);
  const Json& first = doc.at("diagnostics").at(std::size_t{0});
  EXPECT_EQ(first.at("rule").as_string(), "missing-reduction");
  EXPECT_EQ(first.at("level").as_string(), "error");
  EXPECT_EQ(first.at("line").as_int(), 3);
  EXPECT_EQ(first.at("column").as_int(), 3);
  EXPECT_GE(first.at("end_column").as_int(), first.at("column").as_int());
  EXPECT_NE(first.at("fix").as_string().find("reduction(+: s)"), std::string::npos);
}

TEST(Lint, FixitsCanBeSuppressed) {
  LintOptions options;
  options.emit_fixits = false;
  const auto report = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++)\n  s = s + a[i];\n", options);
  const Diagnostic* d = find_rule(report, rule::kMissingReduction);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->fix.empty());
}

TEST(Lint, CorrectDirectiveOnRealisticKernelIsErrorFree) {
  const auto report =
      lint("#pragma omp parallel for private(t) reduction(+: norm)",
           "for (i = 0; i < n; i++) {\n"
           "  t = x[i] - y[i];\n"
           "  norm = norm + t * t;\n"
           "}\n");
  EXPECT_EQ(report.errors(), 0u) << report.to_text();
}

// --- race-detector property guards over the generator families --------------------

/// Families whose bodies carry a real loop-carried dependence: slapping a
/// bare `parallel for` on them must NEVER get a clean bill of health.
TEST(LintProperty, KnownRacyFamiliesNeverLintClean) {
  Rng rng(99);
  for (const char* name :
       {"recurrence", "scalar_carried", "outer_dependent", "indirect_write"}) {
    const codegen::Family& family = codegen::family_by_name(name);
    for (int trial = 0; trial < 40; ++trial) {
      const codegen::GeneratedSnippet snippet = family.make(rng);
      const auto report = lint_first_loop(snippet.code, bare_parallel_for());
      EXPECT_GE(report.errors(), 1u)
          << name << " snippet lints clean:\n"
          << snippet.code << report.to_text();
    }
  }
}

/// Families that are safe under their own ground-truth directive must never
/// draw an error-severity race finding (warnings — e.g. unknown extern
/// kernels — are allowed).
TEST(LintProperty, KnownSafeFamiliesNeverDrawRaceErrors) {
  Rng rng(7);
  for (const char* name :
       {"init_1d", "init_2d", "elementwise", "offset_read", "stencil",
        "private_temp", "triangular", "sum_reduction", "minmax_reduction",
        "prod_reduction"}) {
    const codegen::Family& family = codegen::family_by_name(name);
    for (int trial = 0; trial < 40; ++trial) {
      const codegen::GeneratedSnippet snippet = family.make(rng);
      ASSERT_TRUE(snippet.has_directive) << name;
      const auto report = lint_first_loop(snippet.code, snippet.directive);
      EXPECT_EQ(report.errors(), 0u)
          << name << " drew an error under its ground-truth directive:\n"
          << snippet.directive.to_string() << "\n"
          << snippet.code << report.to_text();
    }
  }
}

// --- lint_audit --------------------------------------------------------------------

TEST(LintAudit, CatchesEverySeededBug) {
  codegen::GeneratorConfig config;
  config.size = 250;
  config.seed = 41;
  config.label_noise = 0.0;
  config.buggy_directive_rate = 0.3;
  const corpus::Corpus corpus = codegen::generate_corpus(config);

  const AuditReport report = audit_labels(corpus);
  EXPECT_EQ(report.records, corpus.size());
  EXPECT_GT(report.seeded_bugs, 0u);
  EXPECT_EQ(report.bugs_missed, 0u) << report.to_text();
  EXPECT_DOUBLE_EQ(report.catch_rate(), 1.0);
  // Every seeded rule id shows up in the confusion counts.
  for (const corpus::Record& record : corpus.records()) {
    if (record.bug.empty()) continue;
    EXPECT_GT(report.rule_counts.count(record.bug), 0u) << record.bug;
  }
}

TEST(LintAudit, FaithfulLabelsAreMostlyClean) {
  codegen::GeneratorConfig config;
  config.size = 250;
  config.seed = 41;
  config.label_noise = 0.0;
  config.buggy_directive_rate = 0.0;
  const corpus::Corpus corpus = codegen::generate_corpus(config);

  const AuditReport report = audit_labels(corpus);
  EXPECT_EQ(report.seeded_bugs, 0u);
  EXPECT_GT(report.linted, 0u);
  // Conservative disagreement (e.g. linearized matmul subscripts) is
  // allowed but must stay a small minority of the faithful labels.
  EXPECT_LT(report.clean_flagged, report.linted / 10) << report.to_text();
}

TEST(LintAudit, PredictionAuditDisagreesWithWrongPredictions) {
  codegen::GeneratorConfig config;
  config.size = 60;
  config.seed = 5;
  config.label_noise = 0.0;
  const corpus::Corpus corpus = codegen::generate_corpus(config);

  // A "model" that blankets every snippet with a bare pragma: the linter
  // must flag at least the provably-racy negatives.
  std::vector<std::string> predictions(corpus.size(),
                                       bare_parallel_for().to_string());
  const AuditReport report = audit_predictions(corpus, predictions);
  EXPECT_EQ(report.subject, "predictions");
  EXPECT_EQ(report.linted, corpus.size());
  EXPECT_GT(report.with_errors, 0u);

  EXPECT_THROW(audit_predictions(corpus, std::vector<std::string>{}), Error);
}

TEST(LintAudit, JsonReportRoundTrips) {
  codegen::GeneratorConfig config;
  config.size = 80;
  config.seed = 11;
  config.buggy_directive_rate = 0.25;
  const corpus::Corpus corpus = codegen::generate_corpus(config);
  const AuditReport report = audit_labels(corpus);

  const Json doc = Json::parse(report.to_json().dump());
  EXPECT_EQ(doc.at("subject").as_string(), "labels");
  EXPECT_EQ(static_cast<std::size_t>(doc.at("records").as_int()), report.records);
  EXPECT_EQ(static_cast<std::size_t>(doc.at("bugs_caught").as_int()),
            report.bugs_caught);
  EXPECT_EQ(doc.at("rows").size(), report.linted);
}

// --- omp simd rule family ----------------------------------------------------------

TEST(LintSimd, UnitDistanceDependenceIsAnError) {
  const auto report = lint("#pragma omp simd",
                           "for (i = 1; i < n; i++)\n"
                           "  a[i] = a[i - 1] + x[i];\n");
  const Diagnostic* d = find_rule(report, rule::kSimdUnsafeDep);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  // Distance 1: no safelen can license it, so no fix-it is offered.
  EXPECT_TRUE(d->fix.empty());
  // The worksharing race rules must not double-report under pure simd.
  EXPECT_EQ(find_rule(report, rule::kLoopCarried), nullptr);
}

TEST(LintSimd, WideDistanceSuggestsSafelen) {
  const auto report = lint("#pragma omp simd",
                           "for (i = 4; i < n; i++)\n"
                           "  a[i] = a[i - 4] + 1.0;\n");
  const Diagnostic* d = find_rule(report, rule::kSimdMissesSafelen);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->fix.find("safelen(4)"), std::string::npos) << d->fix;
}

TEST(LintSimd, OctalDistanceSuggestsItsRealSafelen) {
  // 010 is eight: the fix-it must license vectors of eight, not ten.
  const auto report = lint("#pragma omp simd",
                           "for (i = 0; i < n; i++)\n"
                           "  a[i + 010] = a[i] + 1;\n");
  const Diagnostic* d = find_rule(report, rule::kSimdMissesSafelen);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_NE(d->message.find("distance 8"), std::string::npos) << d->message;
  EXPECT_NE(d->fix.find("safelen(8)"), std::string::npos) << d->fix;
}

TEST(LintSimd, HexSafelenLicensesItsDistance) {
  // safelen(0x8) declares eight, which is too wide for distance 4.
  const auto report = lint("#pragma omp simd safelen(0x8)",
                           "for (i = 4; i < n; i++)\n"
                           "  a[i] = a[i - 4] + 1.0;\n");
  EXPECT_EQ(find_rule(report, rule::kSimdMissesSafelen), nullptr) << report.to_text();
  const Diagnostic* d = find_rule(report, rule::kSimdUnsafeDep);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_NE(d->message.find("safelen(8)"), std::string::npos) << d->message;
}

TEST(LintSimd, OversizedSafelenIsAnErrorWithTightenedFix) {
  const auto report = lint("#pragma omp simd safelen(8)",
                           "for (i = 4; i < n; i++)\n"
                           "  a[i] = a[i - 4] + 1.0;\n");
  const Diagnostic* d = find_rule(report, rule::kSimdUnsafeDep);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->fix.find("safelen(4)"), std::string::npos) << d->fix;
}

TEST(LintSimd, LegalSafelenLintsClean) {
  const auto report = lint("#pragma omp simd safelen(4)",
                           "for (i = 4; i < n; i++)\n"
                           "  a[i] = a[i - 4] + 1.0;\n");
  EXPECT_EQ(report.errors(), 0u) << report.to_text();
  EXPECT_EQ(find_rule(report, rule::kSimdMissesSafelen), nullptr);
  EXPECT_EQ(find_rule(report, rule::kSimdUnsafeDep), nullptr);
}

TEST(LintSimd, ReductionMismatchOnBareSimd) {
  const auto report = lint("#pragma omp simd",
                           "for (i = 0; i < n; i++)\n"
                           "  s += a[i] * b[i];\n");
  const Diagnostic* d = find_rule(report, rule::kSimdReductionMismatch);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->fix.find("reduction(+: s)"), std::string::npos) << d->fix;
  EXPECT_EQ(find_rule(report, rule::kMissingReduction), nullptr);
}

TEST(LintSimd, DeclaredReductionLintsClean) {
  const auto report = lint("#pragma omp simd reduction(+: s)",
                           "for (i = 0; i < n; i++)\n"
                           "  s += a[i] * b[i];\n");
  EXPECT_EQ(report.errors(), 0u) << report.to_text();
}

TEST(LintSimd, NonInnermostSimdWarnsAndFixDropsSimd) {
  const auto report = lint("#pragma omp parallel for simd private(j)",
                           "for (i = 0; i < n; i++)\n"
                           "  for (j = 0; j < m; j++)\n"
                           "    out[i][j] = in[i][j] * 2.0;\n");
  const Diagnostic* d = find_rule(report, rule::kSimdNonInnermost);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(d->fix.empty());
  EXPECT_EQ(d->fix.find("simd"), std::string::npos) << d->fix;
  EXPECT_NE(d->fix.find("parallel for"), std::string::npos) << d->fix;
}

TEST(LintSimd, InnermostSimdOnCleanLoopIsQuiet) {
  const auto report = lint("#pragma omp simd",
                           "for (i = 0; i < n; i++)\n"
                           "  y[i] = y[i] + a * x[i];\n");
  EXPECT_EQ(report.errors(), 0u) << report.to_text();
  EXPECT_EQ(find_rule(report, rule::kSimdNonInnermost), nullptr);
}

TEST(LintSimd, CombinedConstructKeepsWorksharingRules) {
  // parallel-for-simd still runs the worksharing race rules: a missing
  // private must fire as missing-private, not get rerouted to simd-*.
  const auto report = lint("#pragma omp parallel for simd",
                           "for (i = 0; i < n; i++) {\n"
                           "  t = a[i] * 2.0;\n"
                           "  b[i] = t + t;\n"
                           "}\n");
  EXPECT_NE(find_rule(report, rule::kMissingPrivate), nullptr);
}

// --- SARIF rendering ---------------------------------------------------------------

TEST(LintSarif, DocumentShapeAndResults) {
  LintReport report = lint("#pragma omp simd",
                           "for (i = 1; i < n; i++)\n"
                           "  a[i] = a[i - 1] + x[i];\n");
  report.file = "snippet.c";
  const Json doc = Json::parse(sarif_document({report}).dump());
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  EXPECT_NE(doc.at("$schema").as_string().find("sarif-schema-2.1.0"),
            std::string::npos);
  const Json& run = doc.at("runs").at(0);
  EXPECT_EQ(run.at("tool").at("driver").at("name").as_string(), "clpp-lint");
  const Json& rules = run.at("tool").at("driver").at("rules");
  EXPECT_EQ(rules.size(), all_rules().size());
  const Json& results = run.at("results");
  ASSERT_GE(results.size(), 1u);
  bool found = false;
  for (std::size_t r = 0; r < results.size(); ++r) {
    const Json& result = results.at(r);
    if (result.at("ruleId").as_string() != rule::kSimdUnsafeDep) continue;
    found = true;
    EXPECT_EQ(result.at("level").as_string(), "error");
    const Json& location = result.at("locations").at(0);
    EXPECT_EQ(location.at("physicalLocation")
                  .at("artifactLocation")
                  .at("uri")
                  .as_string(),
              "snippet.c");
    // ruleIndex must point back into the rules array.
    const auto index = static_cast<std::size_t>(result.at("ruleIndex").as_int());
    ASSERT_LT(index, rules.size());
    EXPECT_EQ(rules.at(index).at("id").as_string(), rule::kSimdUnsafeDep);
  }
  EXPECT_TRUE(found);
}

TEST(LintSarif, FixitsBecomeSarifFixes) {
  LintReport report = lint("#pragma omp parallel for",
                           "for (i = 0; i < n; i++) {\n"
                           "  t = a[i] * 2.0;\n"
                           "  b[i] = t + t;\n"
                           "}\n");
  report.file = "fixme.c";
  const Json doc = Json::parse(sarif_document({report}).dump());
  const Json& results = doc.at("runs").at(0).at("results");
  bool saw_fix = false;
  for (std::size_t r = 0; r < results.size(); ++r) {
    if (!results.at(r).contains("fixes")) continue;
    saw_fix = true;
    const Json& change = results.at(r).at("fixes").at(0).at("artifactChanges").at(0);
    EXPECT_EQ(change.at("artifactLocation").at("uri").as_string(), "fixme.c");
    const Json& replacement = change.at("replacements").at(0);
    EXPECT_NE(replacement.at("insertedContent").at("text").as_string().find("private"),
              std::string::npos);
  }
  EXPECT_TRUE(saw_fix);
}

TEST(LintSarif, JsonReportIsSchemaVersioned) {
  const LintReport report = lint("#pragma omp parallel for",
                                 "for (i = 0; i < n; i++) a[i] = b[i];\n");
  const Json doc = Json::parse(report.to_json().dump());
  EXPECT_EQ(doc.at("schema").as_string(), "clpp.lint.v1");
}

// --- simd families in the audit ----------------------------------------------------

TEST(LintAuditSimd, SeededSimdBugsAllCaughtCleanRecordsUnflagged) {
  codegen::GeneratorConfig config;
  config.size = 300;
  config.seed = 23;
  config.label_noise = 0.0;
  config.buggy_directive_rate = 0.3;
  config.simd_families = true;
  const corpus::Corpus corpus = codegen::generate_corpus(config);

  // The mix must actually contain seeded simd defects.
  std::set<std::string> seeded_rules;
  for (const corpus::Record& record : corpus.records())
    if (!record.bug.empty()) seeded_rules.insert(record.bug);
  bool has_simd_seed = false;
  for (const std::string& rule_id : seeded_rules)
    if (rule_id.rfind("simd-", 0) == 0) has_simd_seed = true;
  EXPECT_TRUE(has_simd_seed);

  const AuditReport report = audit_labels(corpus);
  EXPECT_GT(report.seeded_bugs, 0u);
  EXPECT_EQ(report.bugs_missed, 0u) << report.to_text();
  EXPECT_DOUBLE_EQ(report.catch_rate(), 1.0);
  // The ISSUE acceptance bar: zero clean records flagged with errors.
  EXPECT_EQ(report.clean_flagged, 0u) << report.to_text();
}

// --- realworld fixtures ------------------------------------------------------------

TEST(LintRealworld, AnnotatedKernelsLintClean) {
  for (const char* name : {"gemm.c", "mvt.c", "gemver.c"}) {
    const std::string path = std::string(CLPP_REALWORLD_DIR) + "/" + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    const LintReport report = Linter{}.lint_source(text.str());
    EXPECT_EQ(report.errors(), 0u) << name << "\n" << report.to_text();
    EXPECT_GE(report.loops_checked, 1u) << name;
  }
}

TEST(LintRealworld, ReportsOnATeamMatchSerialReports) {
  // clpp-lint lints its input files on one team that shares one Linter.
  std::vector<std::string> sources;
  for (const char* name :
       {"atax.c", "gemm.c", "gemver.c", "jacobi-1d.c", "mvt.c", "non_parallel.c"}) {
    std::ifstream in(std::string(CLPP_REALWORLD_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back(text.str());
  }
  const Linter linter;
  std::vector<std::string> serial;
  for (const std::string& source : sources)
    serial.push_back(linter.lint_source(source).to_json().dump());

  std::vector<std::string> team(sources.size() * 8);
  parallel_for_dynamic(team.size(), [&](std::size_t i) {
    team[i] = linter.lint_source(sources[i % sources.size()]).to_json().dump();
  });
  for (std::size_t i = 0; i < team.size(); ++i)
    EXPECT_EQ(team[i], serial[i % sources.size()]) << "unit " << i;
}

TEST(LintExplain, RealworldLoopsAllNameTheirDecidingTests) {
  // Acceptance bar for `clpp-lint --explain`: across all 15 loops of the
  // realworld corpus, every tested pair names a deciding dependence test.
  const std::map<std::string, std::size_t> expected_loops = {
      {"atax.c", 3u},   {"gemm.c", 4u},        {"gemver.c", 2u},
      {"jacobi-1d.c", 3u}, {"mvt.c", 2u},      {"non_parallel.c", 1u}};
  std::size_t total_loops = 0;
  for (const auto& [name, loop_count] : expected_loops) {
    std::ifstream in(std::string(CLPP_REALWORLD_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::ostringstream text;
    text << in.rdbuf();
    const frontend::NodePtr unit = frontend::parse_snippet(text.str());
    const std::vector<LoopExplanation> loops =
        explain_unit(*unit, Linter{}.options().analyzer);
    EXPECT_EQ(loops.size(), loop_count) << name;
    total_loops += loops.size();
    for (const LoopExplanation& loop : loops) {
      EXPECT_TRUE(loop.verdict.canonical) << name;
      EXPECT_TRUE(loop.verdict.exact()) << name << " line " << loop.line;
      for (const analysis::PairProvenance& pair : loop.verdict.pair_provenance)
        EXPECT_FALSE(pair.test.empty()) << name << " line " << loop.line;
    }
    // Renderings carry the same trace: the text names at least one test
    // and the JSON document is schema-versioned with one entry per loop.
    const std::string rendered = render_explanations(name, loops);
    EXPECT_NE(rendered.find("loop at line"), std::string::npos) << name;
    const Json doc = explanations_json(name, loops);
    EXPECT_EQ(doc.at("schema").as_string(), "clpp.explain.v1");
    EXPECT_EQ(doc.at("loops").size(), loops.size()) << name;
  }
  EXPECT_EQ(total_loops, 15u);
}

TEST(LintExplain, NestedLoopsGetDepthAndDocumentOrder) {
  const frontend::NodePtr unit = frontend::parse_snippet(
      "for (i = 0; i < n; i++) { for (j = 1; j < m; j++) a[j] = a[j - 1]; }");
  const std::vector<LoopExplanation> loops =
      explain_unit(*unit, Linter{}.options().analyzer);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].depth, 0);
  EXPECT_EQ(loops[0].verdict.induction, "i");
  EXPECT_EQ(loops[1].depth, 1);
  EXPECT_EQ(loops[1].verdict.induction, "j");
  // The inner recurrence is proved carried with a pinned distance.
  EXPECT_FALSE(loops[1].verdict.parallelizable);
  bool carried = false;
  for (const analysis::PairProvenance& pair : loops[1].verdict.pair_provenance)
    if (pair.carried && pair.distance.has_value() && *pair.distance == 1)
      carried = true;
  EXPECT_TRUE(carried);
}

TEST(LintExplain, MayWriteCallIsConservativeNotAProof) {
  // fill() writes through its argument, so the loop is judged serial before
  // any pair is tested: a conservative default, not an exact proof.
  const frontend::NodePtr unit = frontend::parse_snippet(
      "void fill(int *p, int n) { for (int k = 0; k < n; k++) p[k] = 0; }\n"
      "for (i = 0; i < n; i++) { fill(rows[i], m); }");
  const std::vector<LoopExplanation> loops =
      explain_unit(*unit, Linter{}.options().analyzer);
  ASSERT_EQ(loops.size(), 2u);
  const std::string rendered = render_explanations("fill.c", loops);
  EXPECT_NE(rendered.find("loop at line 2 (induction i): serial, conservative\n"),
            std::string::npos)
      << rendered;
  const Json doc = explanations_json("fill.c", loops);
  EXPECT_FALSE(doc.at("loops").at(1).at("exact").as_bool());
  EXPECT_FALSE(doc.at("loops").at(1).at("bailed").as_bool());
}

TEST(Lint, DiagnosticsCarryDependenceProvenance) {
  // A loop-carried array recurrence under `parallel for`: the dependence
  // diagnostic must carry the deciding-test provenance into both renderings.
  const LintReport report = lint("#pragma omp parallel for",
                                 "for (i = 1; i < n; i++) a[i] = a[i - 1];");
  const Diagnostic* d = find_rule(report, rule::kLoopCarried);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_FALSE(d->provenance.empty());
  EXPECT_NE(d->provenance.find("strong-siv"), std::string::npos)
      << d->provenance;
  EXPECT_NE(report.to_text().find("dependence proof:"), std::string::npos);
  const Json doc = report.to_json();
  bool found = false;
  const Json& diagnostics = doc.at("diagnostics");
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Json& item = diagnostics.at(i);
    if (item.get_string("rule", "") != rule::kLoopCarried) continue;
    found = true;
    EXPECT_EQ(item.at("provenance").as_string(), d->provenance);
  }
  EXPECT_TRUE(found);
}

TEST(LintRealworld, SimdOnIirRecurrenceIsRejected) {
  std::ifstream in(std::string(CLPP_REALWORLD_DIR) + "/non_parallel.c");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  // Force `#pragma omp simd` onto the distance-1 recurrence loop.
  std::string code = text.str();
  const std::string anchor = "for (i = 1; i < n; i++)";
  const auto at = code.find(anchor);
  ASSERT_NE(at, std::string::npos);
  code.insert(at, "#pragma omp simd\n");
  const LintReport report = Linter{}.lint_source(code);
  const Diagnostic* d = find_rule(report, rule::kSimdUnsafeDep);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->severity, Severity::kError);
}

}  // namespace
}  // namespace clpp::lint
