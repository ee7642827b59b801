// Tests for the dependence-analysis substrate: access collection, loop
// canonicalization, affine subscripts, dependence verdicts, side effects.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/accesses.h"
#include "analysis/ddtest.h"
#include "analysis/depend.h"
#include "analysis/loopinfo.h"
#include "analysis/sideeffects.h"
#include "frontend/parser.h"

namespace clpp::analysis {
namespace {

using frontend::NodeKind;
using frontend::NodePtr;
using frontend::parse_expression;
using frontend::parse_snippet;

const frontend::Node& first_for(const frontend::Node& unit) {
  for (const auto& c : unit.children)
    if (c->kind == NodeKind::kFor) return *c;
  throw std::runtime_error("no for loop in test snippet");
}

LoopVerdict analyze_with(const char* code, AnalyzerOptions options = {}) {
  static std::vector<NodePtr> keep_alive;  // verdicts borrow nothing, but
                                           // keep units alive for safety
  keep_alive.push_back(parse_snippet(code));
  const frontend::Node& unit = *keep_alive.back();
  SideEffectOracle oracle(unit);
  DependenceAnalyzer analyzer(oracle, options);
  return analyzer.analyze(first_for(unit));
}

// --- access collection -------------------------------------------------------

TEST(Accesses, ReadsAndWrites) {
  const NodePtr unit = parse_snippet("a[i] = b[i] + c;");
  const AccessSet set = collect_accesses(*unit);
  EXPECT_TRUE(set.is_written("a"));
  EXPECT_FALSE(set.is_read("a"));
  EXPECT_TRUE(set.is_read("b"));
  EXPECT_FALSE(set.is_written("b"));
  EXPECT_TRUE(set.is_read("c"));
  EXPECT_TRUE(set.is_read("i"));
}

TEST(Accesses, CompoundAssignmentReadsBeforeWrite) {
  const NodePtr unit = parse_snippet("s += a[i];");
  const AccessSet set = collect_accesses(*unit);
  const auto& all = set.accesses;
  // First access of s must be the read (program order of s += e).
  auto it = std::find_if(all.begin(), all.end(),
                         [](const Access& a) { return a.variable == "s"; });
  ASSERT_NE(it, all.end());
  EXPECT_FALSE(it->is_write);
  EXPECT_TRUE(set.is_written("s"));
}

TEST(Accesses, IncrementIsReadModifyWrite) {
  const NodePtr unit = parse_snippet("count++;");
  const AccessSet set = collect_accesses(*unit);
  EXPECT_TRUE(set.is_read("count"));
  EXPECT_TRUE(set.is_written("count"));
}

TEST(Accesses, MultiDimSubscriptsCollected) {
  const NodePtr unit = parse_snippet("m[i][j] = 0;");
  const AccessSet set = collect_accesses(*unit);
  const auto writes = set.writes_of("m");
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0]->subscripts.size(), 2u);
  EXPECT_TRUE(writes[0]->is_array);
}

TEST(Accesses, PointerDerefWriteIsHazard) {
  const NodePtr unit = parse_snippet("*p = 1;");
  EXPECT_TRUE(collect_accesses(*unit).hazards.pointer_deref_write);
}

TEST(Accesses, StructWriteIsHazard) {
  const NodePtr unit = parse_snippet("node->value = 1;");
  const AccessSet set = collect_accesses(*unit);
  EXPECT_TRUE(set.hazards.struct_access);
  EXPECT_TRUE(set.hazards.pointer_deref_write);
}

TEST(Accesses, AddressTakenIsHazard) {
  const NodePtr unit = parse_snippet("f(&x);");
  EXPECT_TRUE(collect_accesses(*unit).hazards.address_taken);
}

TEST(Accesses, CalleesRecorded) {
  const NodePtr unit = parse_snippet("y = f(g(x));");
  const auto& called = collect_accesses(*unit).hazards.called_functions;
  ASSERT_EQ(called.size(), 2u);
  EXPECT_EQ(called[0], "f");
  EXPECT_EQ(called[1], "g");
}

// --- canonical loops ------------------------------------------------------------

TEST(Canonical, BasicUpwardLoop) {
  const NodePtr unit = parse_snippet("for (i = 0; i < n; i++) ;");
  const auto loop = canonicalize(first_for(*unit));
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->induction, "i");
  EXPECT_EQ(loop->relation, "<");
  EXPECT_EQ(loop->step, 1);
  EXPECT_EQ(loop->direction, LoopDirection::kUp);
}

TEST(Canonical, DeclaredInductionAndStride) {
  const NodePtr unit = parse_snippet("for (int i = 2; i <= 100; i += 2) ;");
  const auto loop = canonicalize(first_for(*unit));
  ASSERT_TRUE(loop.has_value());
  EXPECT_TRUE(loop->declared_in_init);
  EXPECT_EQ(loop->step, 2);
  ASSERT_TRUE(loop->static_trip_count().has_value());
  EXPECT_EQ(*loop->static_trip_count(), 50);
}

TEST(Canonical, DownwardLoop) {
  const NodePtr unit = parse_snippet("for (i = n - 1; i >= 0; i--) ;");
  const auto loop = canonicalize(first_for(*unit));
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->direction, LoopDirection::kDown);
  EXPECT_EQ(loop->step, -1);
}

TEST(Canonical, ReversedComparison) {
  const NodePtr unit = parse_snippet("for (i = 0; n > i; i = i + 1) ;");
  const auto loop = canonicalize(first_for(*unit));
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->relation, "<");
  EXPECT_EQ(loop->step, 1);
}

TEST(Canonical, RejectsNonCanonicalForms) {
  for (const char* code :
       {"for (;;) ;",                          // no pieces at all
        "for (i = 0; i != n; i++) ;",          // '!=' relation
        "for (i = 0; i < n; i *= 2) ;",        // multiplicative step
        "for (i = 0; i < n; j++) ;",           // step on another variable
        "for (i = 0; i < n; i--) ;",           // step away from bound
        "for (p = head; p; p = p->next) ;"}) { // pointer walk
    const NodePtr unit = parse_snippet(code);
    EXPECT_FALSE(canonicalize(first_for(*unit)).has_value()) << code;
  }
}

TEST(Canonical, StaticTripCountReadsHexAndOctalBounds) {
  const NodePtr hex = parse_snippet("for (i = 0; i < 0x100; i++) ;");
  EXPECT_EQ(canonicalize(first_for(*hex))->static_trip_count().value_or(-1), 256);
  const NodePtr octal = parse_snippet("for (i = 010; i < 020u; i += 0x2) ;");
  const auto loop = canonicalize(first_for(*octal));
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->step, 2);
  EXPECT_EQ(loop->static_trip_count().value_or(-1), 4);
}

TEST(Canonical, StaticTripCountZeroForEmptyRange) {
  const NodePtr unit = parse_snippet("for (i = 10; i < 10; i++) ;");
  const auto loop = canonicalize(first_for(*unit));
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->static_trip_count().value_or(-1), 0);
}

TEST(Canonical, EarlyExitDetection) {
  const NodePtr a = parse_snippet("for (i = 0; i < n; i++) { if (x) break; }");
  EXPECT_TRUE(collect_accesses(first_for(*a).child(3)).hazards.early_exit);
  const NodePtr b = parse_snippet(
      "for (i = 0; i < n; i++) { for (j = 0; j < m; j++) { if (x) break; } }");
  EXPECT_FALSE(collect_accesses(first_for(*b).child(3)).hazards.early_exit)
      << "break in a nested loop does not escape the outer body";
  const NodePtr c = parse_snippet("for (i = 0; i < n; i++) { return; }");
  EXPECT_TRUE(collect_accesses(first_for(*c).child(3)).hazards.early_exit);
}

// --- whole-loop verdicts -------------------------------------------------------------

TEST(Verdict, ReversedWriteSubscriptParallelizes) {
  // a[c - i] hits a distinct element every iteration: no carried dep.
  const auto v = analyze_with("for (i = 0; i < n; i++) a[c - i] = b[i];");
  EXPECT_TRUE(v.parallelizable) << "reverse-indexed write should be provably safe";
  EXPECT_TRUE(v.dependences.empty());
}

TEST(Verdict, IndependentElementwiseLoopParallelizes) {
  const auto v = analyze_with("for (i = 0; i < n; i++) a[i] = b[i] + c[i];");
  EXPECT_TRUE(v.canonical);
  EXPECT_TRUE(v.parallelizable);
  EXPECT_TRUE(v.dependences.empty());
}

TEST(Verdict, LoopCarriedRecurrenceRejected) {
  const auto v = analyze_with("for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;");
  EXPECT_FALSE(v.parallelizable);
  ASSERT_FALSE(v.dependences.empty());
  EXPECT_EQ(v.dependences[0].variable, "a");
}

TEST(Verdict, ReadOnlyOffsetIsFine) {
  // a[i] = b[i-1]: write and read touch different arrays.
  const auto v = analyze_with("for (i = 1; i < n; i++) a[i] = b[i - 1] + 1;");
  EXPECT_TRUE(v.parallelizable);
}

TEST(Verdict, WriteReadSameArrayDisjointOffsets) {
  // a[2*i] = a[2*i + 1]: distance 1 not divisible by 2 -> disjoint.
  const auto v = analyze_with("for (i = 0; i < n; i++) a[2 * i] = a[2 * i + 1];");
  EXPECT_TRUE(v.parallelizable);
}

TEST(Verdict, SumReductionRecognized) {
  const auto v = analyze_with("for (i = 0; i < n; i++) sum += a[i];");
  EXPECT_TRUE(v.parallelizable);
  ASSERT_EQ(v.reductions.size(), 1u);
  EXPECT_EQ(v.reductions[0].variable, "sum");
  EXPECT_EQ(v.reductions[0].op, frontend::ReductionOp::kAdd);
}

TEST(Verdict, ExplicitFormReduction) {
  const auto v = analyze_with("for (i = 0; i < n; i++) p = p * a[i];");
  ASSERT_EQ(v.reductions.size(), 1u);
  EXPECT_EQ(v.reductions[0].op, frontend::ReductionOp::kMul);
}

TEST(Verdict, MinMaxReductionNeedsKnob) {
  const char* code =
      "for (i = 0; i < n; i++) { if (a[i] > m) m = a[i]; }";
  const auto strict = analyze_with(code);
  EXPECT_FALSE(strict.parallelizable)
      << "without the knob the conditional max is a carried scalar dep";
  AnalyzerOptions opts;
  opts.recognize_minmax_reduction = true;
  const auto relaxed = analyze_with(code, opts);
  EXPECT_TRUE(relaxed.parallelizable);
  ASSERT_EQ(relaxed.reductions.size(), 1u);
  EXPECT_EQ(relaxed.reductions[0].op, frontend::ReductionOp::kMax);
}

TEST(Verdict, ReductionDisabledByKnob) {
  AnalyzerOptions opts;
  opts.recognize_reduction = false;
  const auto v = analyze_with("for (i = 0; i < n; i++) sum += a[i];", opts);
  EXPECT_FALSE(v.parallelizable);
}

TEST(Verdict, ScalarTempPrivatizable) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) { t = a[i] * 2; b[i] = t + 1; }");
  EXPECT_TRUE(v.parallelizable);
  ASSERT_EQ(v.private_candidates.size(), 1u);
  EXPECT_EQ(v.private_candidates[0], "t");
}

TEST(Verdict, UseBeforeDefScalarIsCarried) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) { b[i] = t; t = a[i]; }");
  EXPECT_FALSE(v.parallelizable);
}

TEST(Verdict, NestedLoopIndexPrivatized) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) for (j = 0; j < m; j++) c[i][j] = 0;");
  EXPECT_TRUE(v.parallelizable);
  ASSERT_EQ(v.private_candidates.size(), 1u);
  EXPECT_EQ(v.private_candidates[0], "j");
}

TEST(Verdict, InnerSharedRowWriteIsCarried) {
  // Every outer iteration writes all of row[j]: outer not parallel.
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) for (j = 0; j < m; j++) row[j] += a[i][j];");
  EXPECT_FALSE(v.parallelizable);
}

TEST(Verdict, IoCallRejected) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) fprintf(f, \"%d\\n\", arr[i]);");
  EXPECT_FALSE(v.parallelizable);
  EXPECT_FALSE(v.bailed);  // compiled, judged unprofitable/incorrect
}

TEST(Verdict, MallocRejected) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) p = malloc(16);");
  EXPECT_FALSE(v.parallelizable);
}

TEST(Verdict, UnknownCallBailsConservatively) {
  const auto v = analyze_with("for (i = 0; i < n; i++) Calc(i);");
  EXPECT_TRUE(v.bailed);
  EXPECT_FALSE(v.parallelizable);
}

TEST(Verdict, UnknownCallAllowedWhenAggressive) {
  AnalyzerOptions opts;
  opts.assume_unknown_calls_pure = true;
  const auto v = analyze_with("for (i = 0; i < n; i++) Calc(i);", opts);
  EXPECT_TRUE(v.parallelizable);
}

TEST(Verdict, PureWhitelistedCallAccepted) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) b[i] = sqrt(a[i]);");
  EXPECT_TRUE(v.parallelizable);
}

TEST(Verdict, LocalPureFunctionAnalyzed) {
  const auto v = analyze_with(
      "double square(double x) { return x * x; }\n"
      "for (i = 0; i < n; i++) b[i] = square(a[i]);");
  EXPECT_TRUE(v.parallelizable);
}

TEST(Verdict, LocalImpureFunctionRejected) {
  const auto v = analyze_with(
      "int counter;\n"
      "int bump(int x) { counter += x; return counter; }\n"
      "for (i = 0; i < n; i++) b[i] = bump(a[i]);");
  EXPECT_FALSE(v.parallelizable);
}

TEST(Verdict, TripCountThreshold) {
  AnalyzerOptions opts;
  opts.min_trip_count = 8;
  const auto small = analyze_with("for (i = 0; i < 4; i++) a[i] = 0;", opts);
  EXPECT_FALSE(small.parallelizable);
  const auto big = analyze_with("for (i = 0; i < 1000; i++) a[i] = 0;", opts);
  EXPECT_TRUE(big.parallelizable);
}

TEST(Verdict, MayWriteCallIsConservativeNotAProof) {
  // fill() writes through its argument: the loop stays serial without any
  // pair being tested, so the verdict is a conservative default. It is not
  // a bail either, which S2S would count as a compile failure.
  const auto v = analyze_with(
      "void fill(int *p, int n) { for (int k = 0; k < n; k++) p[k] = 0; }\n"
      "for (i = 0; i < n; i++) { fill(rows[i], m); }");
  EXPECT_FALSE(v.parallelizable);
  EXPECT_FALSE(v.bailed);
  EXPECT_FALSE(v.exact());
}

TEST(Verdict, StructAccessBailsByDefault) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) total += items[i].weight;");
  EXPECT_TRUE(v.bailed);
}

TEST(Verdict, EarlyExitRejected) {
  const auto v = analyze_with(
      "for (i = 0; i < n; i++) { if (a[i] == key) break; }");
  EXPECT_FALSE(v.parallelizable);
}

// --- side effects ------------------------------------------------------------------

TEST(SideEffects, Whitelists) {
  EXPECT_TRUE(SideEffectOracle::is_whitelisted_pure("sqrt"));
  EXPECT_TRUE(SideEffectOracle::is_known_io("printf"));
  EXPECT_TRUE(SideEffectOracle::is_known_alloc("malloc"));
  EXPECT_FALSE(SideEffectOracle::is_whitelisted_pure("frobnicate"));
}

TEST(SideEffects, LocalBodyClassification) {
  const NodePtr unit = parse_snippet(
      "double triple(double x) { return 3 * x; }\n"
      "void fill(double *v, int n) { for (int i = 0; i < n; i++) v[i] = 0; }\n"
      "void log_it(int x) { printf(\"%d\", x); }\n");
  SideEffectOracle oracle(*unit);
  EXPECT_EQ(oracle.effect_of("triple"), CallEffect::kPure);
  EXPECT_EQ(oracle.effect_of("fill"), CallEffect::kWritesArgs);
  EXPECT_EQ(oracle.effect_of("log_it"), CallEffect::kIo);
  EXPECT_EQ(oracle.effect_of("mystery"), CallEffect::kUnknown);
}

TEST(SideEffects, TransitiveThroughLocalCalls) {
  const NodePtr unit = parse_snippet(
      "double inner(double x) { return x * 2; }\n"
      "double outer(double x) { return inner(x) + 1; }\n"
      "double bad(double x) { printf(\"x\"); return x; }\n"
      "double worse(double x) { return bad(x); }\n");
  SideEffectOracle oracle(*unit);
  EXPECT_EQ(oracle.effect_of("outer"), CallEffect::kPure);
  EXPECT_EQ(oracle.effect_of("worse"), CallEffect::kIo);
}

TEST(SideEffects, RecursionDoesNotLoopForever) {
  const NodePtr unit = parse_snippet(
      "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }");
  SideEffectOracle oracle(*unit);
  // Self-recursive functions cannot be proven pure by our analysis.
  EXPECT_EQ(oracle.effect_of("fact"), CallEffect::kUnknown);
}

TEST(SideEffects, WorstEffectOrdering) {
  EXPECT_EQ(worse(CallEffect::kPure, CallEffect::kIo), CallEffect::kIo);
  EXPECT_EQ(worse(CallEffect::kUnknown, CallEffect::kIo), CallEffect::kUnknown);
  EXPECT_EQ(worse(CallEffect::kWritesArgs, CallEffect::kPure),
            CallEffect::kWritesArgs);
}

// --- ddtest (dependence engine v2) -------------------------------------------------

TEST(AffineFormTest, MultiVariableWithLiteralParts) {
  const NodePtr expr = parse_expression("2 * i + 3 * j - 1");
  const AffineForm form = analyze_affine(*expr, {{"i", "j"}, {}});
  ASSERT_TRUE(form.affine);
  EXPECT_EQ(form.coeffs.at("i"), 2);
  EXPECT_EQ(form.coeffs.at("j"), 3);
  EXPECT_EQ(form.offset, -1);
  EXPECT_TRUE(form.symbols.empty());
}

TEST(AffineFormTest, InvariantSymbolsFold) {
  const NodePtr expr = parse_expression("i + n - 1");
  const AffineForm form = analyze_affine(*expr, {{"i"}, {}});
  ASSERT_TRUE(form.affine);
  EXPECT_EQ(form.coeffs.at("i"), 1);
  EXPECT_EQ(form.symbols.at("n"), 1);
  EXPECT_EQ(form.offset, -1);
}

// Common subscript shapes over the single induction `i`. Every other name is
// a loop-invariant symbol with a literal coefficient, any number of them; a
// symbolic coefficient (i * NL) or an indirection is not affine.
AffineForm affine_in_i(const char* text) {
  const NodePtr expr = parse_expression(text);
  return analyze_affine(*expr, {{"i"}, {}});
}

TEST(Affine, RecognizesCommonForms) {
  EXPECT_EQ(affine_in_i("i"), (AffineForm{true, {{"i", 1}}, {}, 0}));
  EXPECT_EQ(affine_in_i("i + 1"), (AffineForm{true, {{"i", 1}}, {}, 1}));
  EXPECT_EQ(affine_in_i("i - 2"), (AffineForm{true, {{"i", 1}}, {}, -2}));
  EXPECT_EQ(affine_in_i("2 * i + 3"), (AffineForm{true, {{"i", 2}}, {}, 3}));
  EXPECT_EQ(affine_in_i("7"), (AffineForm{true, {}, {}, 7}));
}

TEST(Affine, InvariantAndComplex) {
  EXPECT_EQ(affine_in_i("j"), (AffineForm{true, {}, {{"j", 1}}, 0}));
  EXPECT_EQ(affine_in_i("n - 1"), (AffineForm{true, {}, {{"n", 1}}, -1}));
  EXPECT_FALSE(affine_in_i("i * i").affine);
  EXPECT_FALSE(affine_in_i("index[i]").affine);
}

TEST(Affine, LinearizedTwoD) {
  // G[(i * NL) + j]: coeff symbolic -> not affine (conservative).
  EXPECT_FALSE(affine_in_i("(i * NL) + j").affine);
}

TEST(Affine, UnaryMinusNegatesCoefficients) {
  EXPECT_EQ(affine_in_i("-i"), (AffineForm{true, {{"i", -1}}, {}, 0}));
  EXPECT_EQ(affine_in_i("-(i + 2)"), (AffineForm{true, {{"i", -1}}, {}, -2}));
  EXPECT_EQ(affine_in_i("+i"), (AffineForm{true, {{"i", 1}}, {}, 0}));
}

TEST(Affine, SymbolicAddendKeepsReversedSubscriptAffine) {
  // c - i: coeff -1 with symbolic addend +c (mirror/reverse idiom).
  EXPECT_EQ(affine_in_i("c - i"),
            (AffineForm{true, {{"i", -1}}, {{"c", 1}}, 0}));
  // i - c: coeff 1 with symbolic addend -c.
  EXPECT_EQ(affine_in_i("i - c"),
            (AffineForm{true, {{"i", 1}}, {{"c", -1}}, 0}));
  // c - i + 1 keeps literal offset and the addend.
  EXPECT_EQ(affine_in_i("c - i + 1"),
            (AffineForm{true, {{"i", -1}}, {{"c", 1}}, 1}));
  // Any number of symbolic addends stays affine.
  EXPECT_EQ(affine_in_i("c - i + d"),
            (AffineForm{true, {{"i", -1}}, {{"c", 1}, {"d", 1}}, 0}));
}

TEST(AffineFormTest, MutatedNameIsNotAffine) {
  const NodePtr expr = parse_expression("i + t");
  const AffineForm form = analyze_affine(*expr, {{"i"}, {"t"}});
  EXPECT_FALSE(form.affine);
}

TEST(DdtestV2, HexAndOctalOffsetsPinTheirValues) {
  const LoopVerdict hex = analyze_with("for (i = 0; i < n; i++) a[i + 0x1] = a[i] + 1;");
  EXPECT_FALSE(hex.parallelizable);
  ASSERT_EQ(hex.dependences.size(), 1u);
  EXPECT_EQ(hex.dependences[0].distance.value_or(-1), 1);
  const LoopVerdict octal = analyze_with("for (i = 0; i < n; i++) a[i + 010] = a[i] + 1;");
  ASSERT_EQ(octal.dependences.size(), 1u);
  EXPECT_EQ(octal.dependences[0].distance.value_or(-1), 8);
  // A literal the parser cannot read is an opaque symbol: conservative.
  const LoopVerdict bad = analyze_with("for (i = 0; i < n; i++) a[i + 08] = a[i] + 1;");
  EXPECT_FALSE(bad.parallelizable);
}

TEST(AffineFormTest, OverflowingLiteralArithmeticIsNotAffine) {
  EXPECT_FALSE(affine_in_i("9223372036854775807 + 1").affine);
  EXPECT_FALSE(affine_in_i("4611686018427387904 * i * 2").affine);
  EXPECT_FALSE(affine_in_i("-9223372036854775807 - 2").affine);
  EXPECT_EQ(affine_in_i("9223372036854775806 + 1"),
            (AffineForm{true, {}, {}, 9223372036854775807LL}));
}

TEST(DdtestV2, HugeCoefficientsAreConservative) {
  // Coefficients at the saturation bound cannot be tested exactly.
  const LoopVerdict v = analyze_with(
      "for (i = 0; i < n; i++)\n"
      "  a[4611686018427387904 * i] = a[4611686018427387904 * i + 1] + 1.0;");
  EXPECT_FALSE(v.parallelizable);
  EXPECT_FALSE(v.exact());
}

TEST(DdtestV2, StrongSivPinsExactDistance) {
  const LoopVerdict v = analyze_with("for (i = 2; i < n; i++) a[i] = a[i - 2] + 1.0;");
  EXPECT_FALSE(v.parallelizable);
  EXPECT_TRUE(v.exact());
  ASSERT_EQ(v.dependences.size(), 1u);
  ASSERT_TRUE(v.dependences[0].distance.has_value());
  EXPECT_EQ(*v.dependences[0].distance, 2);
  EXPECT_EQ(v.dependences[0].direction, "(<)");
}

TEST(DdtestV2, ScaledCoefficientDistanceDividesThrough) {
  // Write a[2i], read a[2(i-2)]: collision exactly two iterations apart.
  const LoopVerdict v =
      analyze_with("for (i = 2; i < n; i++) a[2 * i] = a[2 * i - 4] + 1.0;");
  EXPECT_FALSE(v.parallelizable);
  EXPECT_TRUE(v.exact());
  ASSERT_EQ(v.dependences.size(), 1u);
  ASSERT_TRUE(v.dependences[0].distance.has_value());
  EXPECT_EQ(*v.dependences[0].distance, 2);
}

TEST(DdtestV2, StridedLoopProvesDisjointOffsets) {
  // i steps by 2: writes land on even elements, reads on odd ones. The seed
  // engine refused non-unit steps; v2 lowers to iteration counts.
  const LoopVerdict v =
      analyze_with("for (i = 0; i < n; i += 2) a[i] = a[i + 1] * 2.0;");
  EXPECT_TRUE(v.parallelizable);
  EXPECT_TRUE(v.exact());
}

TEST(DdtestV2, GcdTestProvesParityDisjoint) {
  const LoopVerdict v =
      analyze_with("for (i = 0; i < n; i++) a[2 * i] = a[2 * i + 1];");
  EXPECT_TRUE(v.parallelizable);
  EXPECT_TRUE(v.exact());
}

TEST(DdtestV2, BanerjeeBoundsRefuteLinearizedCollision) {
  // 8*i + j with j in [0, 4): the offset 4 cannot be absorbed by dj alone
  // and 8*di overshoots. Needs the literal inner trip count (Banerjee),
  // GCD alone would not refute it.
  const LoopVerdict v = analyze_with(
      "for (i = 0; i < 8; i++)\n"
      "  for (j = 0; j < 4; j++)\n"
      "    a[8 * i + j] = a[8 * i + j + 4];");
  EXPECT_TRUE(v.parallelizable);
  EXPECT_TRUE(v.exact());
}

TEST(DdtestV2, BanerjeeBoundsKeepRealCollision) {
  // Same form with j in [0, 8): now (di, dj) = (0, 4) etc. collide for real.
  const LoopVerdict v = analyze_with(
      "for (i = 0; i < 8; i++)\n"
      "  for (j = 0; j < 8; j++)\n"
      "    a[8 * i + j] = a[8 * i + j + 4];");
  EXPECT_FALSE(v.parallelizable);
  EXPECT_TRUE(v.exact());
}

TEST(DdtestV2, CoupledSubscriptsIntersectToDisjoint) {
  // Diagonal write vs subdiagonal read: dim 0 demands "=", dim 1 demands
  // "<" — the per-dimension intersection is empty.
  const LoopVerdict v =
      analyze_with("for (i = 1; i < n; i++) A[i][i] = A[i][i - 1] + 1.0;");
  EXPECT_TRUE(v.parallelizable);
  EXPECT_TRUE(v.exact());
}

TEST(DdtestV2, TransposedCoupledSubscriptsStaySound) {
  // A[i][j] vs A[j][i] couples the dimensions; the fallback must keep the
  // (real) cross-iteration dependence rather than claim independence.
  const LoopVerdict v = analyze_with(
      "for (i = 0; i < n; i++)\n"
      "  for (j = 0; j < n; j++)\n"
      "    A[i][j] = A[j][i] + 1.0;");
  EXPECT_FALSE(v.parallelizable);
}

TEST(DdtestV2, TriangularLowerBoundHandled) {
  const LoopVerdict v = analyze_with(
      "for (i = 0; i < n; i++)\n"
      "  for (j = i; j < n; j++)\n"
      "    A[i][j] = A[i][j] * 2.0;");
  EXPECT_TRUE(v.parallelizable);
  EXPECT_TRUE(v.exact());
}

TEST(DdtestV2, AntiDependenceGetsGtDirection) {
  const LoopVerdict v = analyze_with("for (i = 0; i < n; i++) a[i] = a[i + 1];");
  EXPECT_FALSE(v.parallelizable);
  ASSERT_EQ(v.dependences.size(), 1u);
  ASSERT_TRUE(v.dependences[0].distance.has_value());
  EXPECT_EQ(*v.dependences[0].distance, 1);
  EXPECT_EQ(v.dependences[0].direction, "(>)");
}

TEST(DdtestV2, DirectionVectorAcrossNestLevels) {
  const LoopVerdict v = analyze_with(
      "for (i = 1; i < n; i++)\n"
      "  for (j = 0; j < m; j++)\n"
      "    A[i][j] = A[i - 1][j] + 1.0;");
  EXPECT_FALSE(v.parallelizable);
  EXPECT_TRUE(v.exact());
  ASSERT_EQ(v.dependences.size(), 1u);
  EXPECT_EQ(v.dependences[0].direction, "(<, =)");
  ASSERT_TRUE(v.dependences[0].distance.has_value());
  EXPECT_EQ(*v.dependences[0].distance, 1);
}

TEST(DdtestV2, LinearizedSubscriptIsExactParallel) {
  // c[i * m + j] has a symbolic coefficient, so it does not lower; the
  // identical-subscript rule still proves the outer loop parallel.
  const LoopVerdict v = analyze_with(
      "for (i = 0; i < n; i++)\n"
      "  for (j = 0; j < m; j++)\n"
      "    c[i * m + j] = c[i * m + j] + 1.0;");
  EXPECT_TRUE(v.parallelizable);
  EXPECT_TRUE(v.exact());
}

TEST(DdtestV2, NestContextExposesDirectionBitmasks) {
  static NodePtr unit = parse_snippet(
      "for (i = 1; i < n; i++)\n"
      "  for (j = 0; j < m; j++)\n"
      "    A[i][j] = A[i - 1][j] + 1.0;");
  const LoopScan scan(first_for(*unit));
  const AccessSet& accesses = scan.body();
  NestContext nest(scan);
  const auto writes = accesses.writes_of("A");
  const auto reads = accesses.reads_of("A");
  ASSERT_EQ(writes.size(), 1u);
  ASSERT_EQ(reads.size(), 1u);
  const PairResult pair = nest.test_pair(*writes[0], *reads[0]);
  EXPECT_TRUE(pair.possible);
  EXPECT_TRUE(pair.exact);
  EXPECT_TRUE(pair.carried());
  ASSERT_EQ(pair.levels.size(), 2u);
  EXPECT_EQ(pair.levels[0].var, "i");
  EXPECT_EQ(pair.levels[0].dirs, kDirLt);
  ASSERT_TRUE(pair.levels[0].distance.has_value());
  EXPECT_EQ(*pair.levels[0].distance, 1);
  EXPECT_EQ(pair.levels[1].var, "j");
  EXPECT_EQ(pair.levels[1].dirs, kDirEq);
  ASSERT_TRUE(pair.carried_distance().has_value());
  EXPECT_EQ(*pair.carried_distance(), 1);
}

TEST(DdtestV2, NestContextChainsOnImperfectNest) {
  // Accesses between loops, in a sibling inner loop, inside a `while` and
  // inside a non-canonical `for`: each site's chain is its own run of
  // enclosing canonical loops, and a pair is tested over the part the two
  // chains share.
  static NodePtr unit = parse_snippet(
      "for (i = 0; i < n; i++) {\n"          // 1
      "  A[i] = B[i];\n"                     // 2
      "  for (j = 0; j < m; j++) {\n"        // 3
      "    C[i][j] = A[i] + 1.0;\n"          // 4
      "    G[j] = C[i][j];\n"                // 5
      "    for (k = 0; k < p; k++)\n"        // 6
      "      D[i][j][k] = C[i][j] * 2.0;\n"  // 7
      "  }\n"                                // 8
      "  for (r = 0; r < m; r++)\n"          // 9
      "    G[r] = A[i];\n"                   // 10
      "  t = 0;\n"                           // 11
      "  while (t < m) {\n"                  // 12
      "    E[i] = E[i] + C[i][t];\n"         // 13
      "    t++;\n"                           // 14
      "  }\n"                                // 15
      "  for (q = 0; q * q < n; q++)\n"      // 16
      "    F[i][q] = A[i];\n"                // 17
      "}");
  const LoopScan scan(first_for(*unit));
  const AccessSet& accesses = scan.body();
  NestContext nest(scan);
  const auto at = [&](const char* array, bool write, int line) -> const Access& {
    for (const Access& a : accesses.accesses)
      if (a.is_array && a.variable == array && a.is_write == write && a.site->line == line)
        return a;
    throw std::runtime_error("no such access in test snippet");
  };
  const DepLevel i_eq{"i", kDirEq, 0};
  const DepLevel j_eq{"j", kDirEq, 0};
  const DepLevel k_eq{"k", kDirEq, 0};
  const DepLevel i_any{"i", kDirAll, std::nullopt};

  struct Case {
    const char* what;
    const Access& src;
    const Access& snk;
    std::vector<DepLevel> levels;
    bool exact;
  };
  const std::vector<Case> cases = {
      {"between loops vs depth 2", at("A", true, 2), at("A", false, 4), {i_eq}, true},
      {"between loops vs non-canonical for", at("A", true, 2), at("A", false, 17), {i_eq},
       true},
      {"depth 2 vs depth 3", at("C", true, 4), at("C", false, 7), {i_eq, j_eq}, true},
      {"depth 2 vs while", at("C", true, 4), at("C", false, 13), {i_eq}, false},
      {"depth 3 self", at("D", true, 7), at("D", true, 7), {i_eq, j_eq, k_eq}, true},
      {"depth 2 self", at("G", true, 5), at("G", true, 5), {i_any, j_eq}, true},
      {"sibling inner loops", at("G", true, 5), at("G", true, 10), {i_any}, true},
      {"inside while", at("E", true, 13), at("E", false, 13), {i_eq}, true},
      {"non-canonical for self", at("F", true, 17), at("F", true, 17), {i_eq}, false},
  };
  for (const Case& c : cases) {
    const PairResult pair = nest.test_pair(c.src, c.snk);
    EXPECT_TRUE(pair.possible) << c.what;
    EXPECT_EQ(pair.exact, c.exact) << c.what;
    EXPECT_EQ(pair.levels, c.levels) << c.what;
  }
}

TEST(DdtestV2, DirectionTextRendering) {
  EXPECT_EQ(direction_text(kDirLt), "<");
  EXPECT_EQ(direction_text(kDirEq), "=");
  EXPECT_EQ(direction_text(kDirGt), ">");
  EXPECT_EQ(direction_text(kDirLt | kDirEq), "<=");
  EXPECT_EQ(direction_text(kDirAll), "*");
}

// --- corpus/realworld fixtures -----------------------------------------------------

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(CLPP_REALWORLD_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing fixture: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Analyzes every for loop of a fixture, outermost-first walk order.
std::vector<LoopVerdict> analyze_fixture(const std::string& name) {
  static std::vector<NodePtr> keep_alive;
  keep_alive.push_back(parse_snippet(read_fixture(name)));
  const frontend::Node& unit = *keep_alive.back();
  std::vector<const frontend::Node*> loops;
  frontend::walk(unit, [&](const frontend::Node& node, int) {
    if (node.kind == NodeKind::kFor) loops.push_back(&node);
  });
  SideEffectOracle oracle(unit);
  DependenceAnalyzer analyzer(oracle, AnalyzerOptions{});
  std::vector<LoopVerdict> verdicts;
  for (const frontend::Node* loop : loops) verdicts.push_back(analyzer.analyze(*loop));
  return verdicts;
}

TEST(Realworld, GemmOuterLoopResolvesExactlyParallel) {
  const auto verdicts = analyze_fixture("gemm.c");
  ASSERT_EQ(verdicts.size(), 4u);
  // Outer i loop: parallelizable, and a proof — not a conservative default.
  EXPECT_TRUE(verdicts[0].parallelizable);
  EXPECT_TRUE(verdicts[0].exact());
  // The k loop re-writes C[i*nj + j] every iteration: carried, by proof.
  EXPECT_FALSE(verdicts[2].parallelizable);
  EXPECT_TRUE(verdicts[2].exact());
}

TEST(Realworld, MvtOuterParallelInnerAccumulates) {
  const auto verdicts = analyze_fixture("mvt.c");
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].parallelizable);
  EXPECT_TRUE(verdicts[0].exact());
  // The j loop accumulates into x1[i]: loop-carried there.
  EXPECT_FALSE(verdicts[1].parallelizable);
}

TEST(Realworld, GemverRankTwoUpdateIsExactParallel) {
  const auto verdicts = analyze_fixture("gemver.c");
  ASSERT_EQ(verdicts.size(), 2u);
  for (const LoopVerdict& v : verdicts) {
    EXPECT_TRUE(v.parallelizable);
    EXPECT_TRUE(v.exact());
  }
}

TEST(Realworld, AtaxOuterLoopCarriedOnY) {
  const auto verdicts = analyze_fixture("atax.c");
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_FALSE(verdicts[0].parallelizable);
  EXPECT_TRUE(verdicts[0].exact());
  bool found_y = false;
  for (const Dependence& dep : verdicts[0].dependences)
    if (dep.variable == "y") found_y = true;
  EXPECT_TRUE(found_y);
}

TEST(Realworld, JacobiTimeLoopProvedCarriedSpaceLoopsParallel) {
  const auto verdicts = analyze_fixture("jacobi-1d.c");
  ASSERT_EQ(verdicts.size(), 3u);
  // The t-loop is proved carried exactly through the imperfect nest.
  EXPECT_FALSE(verdicts[0].parallelizable);
  EXPECT_TRUE(verdicts[0].exact());
  EXPECT_TRUE(verdicts[1].parallelizable);
  EXPECT_TRUE(verdicts[2].parallelizable);
}

TEST(Realworld, NonParallelIirHasUnitDistance) {
  const auto verdicts = analyze_fixture("non_parallel.c");
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].parallelizable);
  EXPECT_TRUE(verdicts[0].exact());
  ASSERT_EQ(verdicts[0].dependences.size(), 1u);
  ASSERT_TRUE(verdicts[0].dependences[0].distance.has_value());
  EXPECT_EQ(*verdicts[0].dependences[0].distance, 1);
}

// --- decision provenance -----------------------------------------------------------

TEST(Provenance, StrongSivPinsDistanceAndDirection) {
  const LoopVerdict v =
      analyze_with("for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;");
  const PairProvenance* carried = nullptr;
  for (const PairProvenance& p : v.pair_provenance)
    if (p.carried) carried = &p;
  ASSERT_NE(carried, nullptr);
  EXPECT_EQ(carried->array, "a");
  EXPECT_EQ(carried->test, "strong-siv");
  EXPECT_TRUE(carried->exact);
  ASSERT_TRUE(carried->distance.has_value());
  EXPECT_EQ(*carried->distance, 1);
  const std::string text = provenance_text(*carried);
  EXPECT_NE(text.find("strong-siv"), std::string::npos) << text;
  EXPECT_NE(text.find("distance 1"), std::string::npos) << text;
  EXPECT_NE(text.find("carried"), std::string::npos) << text;
}

TEST(Provenance, RecordedForRefutedPairsToo) {
  // Clean elementwise loop: the a[i]-vs-a[i] pair is tested, decided, and
  // must still appear in the trace (a proof shows *all* its steps).
  const LoopVerdict v = analyze_with("for (i = 0; i < n; i++) a[i] = b[i];");
  EXPECT_TRUE(v.parallelizable);
  ASSERT_FALSE(v.pair_provenance.empty());
  for (const PairProvenance& p : v.pair_provenance) {
    EXPECT_FALSE(p.test.empty());
    EXPECT_FALSE(p.carried) << provenance_text(p);
  }
}

TEST(Provenance, GemmNamesTextPinnedAndBanerjeeDecisions) {
  const auto verdicts = analyze_fixture("gemm.c");
  ASSERT_EQ(verdicts.size(), 4u);
  // Outer i loop: the linearized C[i*nj + j] pairs have identical complex
  // subscript text, so the text-pinned rule decides them — same element,
  // same iteration only, hence still parallelizable.
  bool pinned = false;
  for (const PairProvenance& p : verdicts[0].pair_provenance) {
    if (p.array != "C" || p.test != "text-pinned") continue;
    pinned = true;
    EXPECT_FALSE(p.carried) << provenance_text(p);
    EXPECT_TRUE(p.possible);
  }
  EXPECT_TRUE(pinned);
  // The k loop re-writes the same element every iteration: Banerjee proves
  // the write-write collision carried at the k level.
  bool carried = false;
  for (const PairProvenance& p : verdicts[2].pair_provenance) {
    if (p.array != "C" || !p.carried) continue;
    carried = true;
    EXPECT_EQ(p.test, "banerjee") << provenance_text(p);
  }
  EXPECT_TRUE(carried);
}

TEST(Provenance, EveryRealworldPairNamesItsDecidingTest) {
  const char* fixtures[] = {"gemm.c",   "atax.c",      "mvt.c",
                            "gemver.c", "jacobi-1d.c", "non_parallel.c"};
  std::size_t pairs_seen = 0;
  for (const char* name : fixtures) {
    for (const LoopVerdict& v : analyze_fixture(name)) {
      EXPECT_EQ(v.pair_provenance.size(), v.dep_pairs_tested) << name;
      for (const PairProvenance& p : v.pair_provenance) {
        ++pairs_seen;
        EXPECT_FALSE(p.test.empty()) << name;
        EXPECT_FALSE(p.src_text.empty()) << name;
        EXPECT_FALSE(provenance_text(p).empty()) << name;
      }
    }
  }
  EXPECT_GT(pairs_seen, 0u);
}

TEST(Realworld, EveryLoopHasNoUnknownPairsAndNoBail) {
  const char* fixtures[] = {"gemm.c",      "atax.c", "mvt.c",
                            "gemver.c",    "jacobi-1d.c", "non_parallel.c"};
  std::size_t loops = 0;
  for (const char* name : fixtures) {
    for (const LoopVerdict& v : analyze_fixture(name)) {
      ++loops;
      EXPECT_EQ(v.dep_pairs_unknown, 0u) << name << " loop " << v.induction;
      EXPECT_FALSE(v.bailed) << name << " loop " << v.induction;
    }
  }
  EXPECT_EQ(loops, 15u);
}

}  // namespace
}  // namespace clpp::analysis
