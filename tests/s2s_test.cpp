// Tests for the S2S compiler personalities and the ComPar ensemble,
// including the paper's Table 1 pitfall scenarios.
#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "s2s/compar.h"
#include "s2s/compiler.h"

namespace clpp::s2s {
namespace {

using frontend::parse_snippet;

S2SResult run(const CompilerProfile& profile, const char* code) {
  const frontend::NodePtr unit = parse_snippet(code);
  return S2SCompiler(profile).process(*unit);
}

TEST(Cetus, ParallelizesIndependentLoop) {
  const auto r = run(cetus_profile(), "for (i = 0; i < 1000; i++) a[i] = i;");
  ASSERT_TRUE(r.parallelized());
  EXPECT_TRUE(r.directive->parallel);
  EXPECT_TRUE(r.directive->for_loop);
  // Cetus personality spells out schedule(static) and private(i).
  EXPECT_EQ(r.directive->schedule, frontend::ScheduleKind::kStatic);
  ASSERT_EQ(r.directive->private_vars.size(), 1u);
  EXPECT_EQ(r.directive->private_vars[0], "i");
}

TEST(Cetus, SkipsLowTripLoop) {
  const auto r = run(cetus_profile(), "for (i = 0; i < 4; i++) a[i] = i;");
  EXPECT_EQ(r.status, S2SResult::Status::kNoDirective);
}

TEST(Cetus, RecognizesCanonicalReductionOnly) {
  const auto sum = run(cetus_profile(),
                       "for (i = 0; i < 1000; i++) total += a[i];");
  ASSERT_TRUE(sum.parallelized());
  ASSERT_EQ(sum.directive->reductions.size(), 1u);

  const auto maxv = run(cetus_profile(),
                        "for (i = 0; i < 1000; i++) { if (a[i] > m) m = a[i]; }");
  EXPECT_FALSE(maxv.parallelized())
      << "conditional max is not a canonical reduction for Cetus";
}

TEST(Cetus, StaticScheduleDespiteUnbalancedWork) {
  // Table 1 example #2: Cetus uses schedule(static) even when the body has
  // conditional work — the documented pitfall.
  const auto r = run(cetus_profile(),
                     "int MoreCalc(int i) { return i % 3; }\n"
                     "int Calc(int i) { return i * i; }\n"
                     "for (i = 0; i <= 1000; i++) if (MoreCalc(i)) out[i] = Calc(i);");
  ASSERT_TRUE(r.parallelized());
  EXPECT_EQ(r.directive->schedule, frontend::ScheduleKind::kStatic);
}

TEST(Cetus, BailsOnUnknownCallee) {
  const auto r = run(cetus_profile(), "for (i = 0; i < 1000; i++) Work(i);");
  EXPECT_TRUE(r.failed());
}

TEST(Cetus, TwoConsecutiveLoopsGetSeparateRegions) {
  // Table 1 example #1: the S2S compiler handles one loop at a time and
  // cannot fuse the parallel regions.
  const char* code =
      "for (i = 0; i <= 1000; i++) A[i] = i;\n"
      "for (i = 0; i <= 1000; i++) B[i] = B[i] * 2;";
  const frontend::NodePtr unit = parse_snippet(code);
  const S2SCompiler cetus(cetus_profile());
  int regions = 0;
  for (const auto& item : unit->children) {
    if (item->kind != frontend::NodeKind::kFor) continue;
    const auto r = cetus.process_loop(*unit, *item);
    if (r.parallelized() && r.directive->parallel) ++regions;
  }
  EXPECT_EQ(regions, 2) << "thread team spawned twice — the documented overhead";
}

TEST(AutoPar, DoesNotRecognizeReductions) {
  const auto r = run(autopar_profile(), "for (i = 0; i < 1000; i++) s += a[i];");
  EXPECT_FALSE(r.parallelized());
}

TEST(AutoPar, FailsOnLocalFunctions) {
  const auto r = run(autopar_profile(),
                     "int f(int x) { return x; }\n"
                     "for (i = 0; i < 1000; i++) a[i] = i;");
  EXPECT_TRUE(r.failed());
}

TEST(Par4All, FailsOnLongSnippets) {
  std::string code;
  for (int s = 0; s < 50; ++s) {
    code += "x";
    code += std::to_string(s);
    code += " = 1;\n";
  }
  code += "for (i = 0; i < 1000; i++) a[i] = i;";
  const frontend::NodePtr unit = parse_snippet(code);
  const auto r = S2SCompiler(par4all_profile()).process(*unit);
  EXPECT_TRUE(r.failed());
}

TEST(Par4All, NoExplicitIteratorPrivate) {
  const auto r = run(par4all_profile(), "for (i = 0; i < 1000; i++) a[i] = i;");
  ASSERT_TRUE(r.parallelized());
  EXPECT_TRUE(r.directive->private_vars.empty());
}

TEST(AllProfiles, FailOnGoto) {
  const char* code = "for (i = 0; i < 1000; i++) a[i] = i;\nend: x = 1;";
  for (const auto& profile : {cetus_profile(), autopar_profile(), par4all_profile()})
    EXPECT_TRUE(run(profile, code).failed()) << profile.name;
}

TEST(Annotate, InsertsPragmaAboveLoop) {
  const S2SCompiler cetus(cetus_profile());
  const std::string out =
      cetus.annotate("for (i = 0; i < 1000; i++) a[i] = b[i] + c[i];");
  EXPECT_NE(out.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_LT(out.find("#pragma"), out.find("for ("));
}

TEST(Annotate, LeavesUnparallelizableCodeAlone) {
  const S2SCompiler cetus(cetus_profile());
  const std::string src = "for (i = 1; i < 1000; i++) a[i] = a[i - 1];";
  EXPECT_EQ(cetus.annotate(src), src);
}

TEST(Annotate, SurvivesUnparsableInput) {
  const S2SCompiler cetus(cetus_profile());
  const std::string garbage = "this is not C at all @@@";
  EXPECT_EQ(cetus.annotate(garbage), garbage);
}

TEST(ComPar, PicksRichestDirective) {
  // Cetus recognizes the reduction; AutoPar does not. The ensemble must
  // surface the reduction-bearing directive.
  ComPar compar;
  const frontend::NodePtr unit =
      parse_snippet("for (i = 0; i < 1000; i++) total += a[i];");
  const ComParResult r = compar.process(*unit);
  ASSERT_TRUE(r.predicts_directive());
  EXPECT_TRUE(r.predicts_reduction());
  EXPECT_EQ(r.members.size(), 3u);
}

TEST(ComPar, FailsOnlyWhenAllMembersFail) {
  ComPar compar;
  const frontend::NodePtr hostile = parse_snippet(
      "for (i = 0; i < 1000; i++) a[i] = i;\nskip: x = 1;");
  EXPECT_TRUE(compar.process(*hostile).compile_failed());

  // Local helper functions kill AutoPar/Par4All but Cetus still compiles.
  const frontend::NodePtr partial = parse_snippet(
      "int sq(int x) { return x * x; }\n"
      "for (i = 0; i < 1000; i++) a[i] = sq(i);");
  const ComParResult r = compar.process(*partial);
  EXPECT_FALSE(r.compile_failed());
  EXPECT_TRUE(r.predicts_directive());
}

TEST(ComPar, NoDirectiveOnDependentLoop) {
  ComPar compar;
  const frontend::NodePtr unit =
      parse_snippet("for (i = 1; i < 1000; i++) a[i] = a[i - 1] + 1;");
  const ComParResult r = compar.process(*unit);
  EXPECT_FALSE(r.predicts_directive());
  EXPECT_FALSE(r.compile_failed());
}

TEST(ComPar, ParseFailureIsCompileFailure) {
  ComPar compar;
  EXPECT_TRUE(compar.process_source("garbage ( (").compile_failed());
}

TEST(ComPar, PrivatePredictionIncludesIterator) {
  // The §5.3 pitfall: ComPar predicts private(i) on loops where developers
  // rely on the implicit default — a false positive against human labels.
  ComPar compar;
  const frontend::NodePtr unit =
      parse_snippet("for (i = 0; i < 1000; i++) a[i] = i;");
  const ComParResult r = compar.process(*unit);
  ASSERT_TRUE(r.predicts_directive());
  EXPECT_TRUE(r.predicts_private());
}

TEST(ComPar, CustomEnsemble) {
  ComPar solo(std::vector<CompilerProfile>{par4all_profile()});
  const frontend::NodePtr unit = parse_snippet(
      "int f(int x) { return x; }\nfor (i = 0; i < 10; i++) a[i] = f(i);");
  EXPECT_TRUE(solo.process(*unit).compile_failed());
}

TEST(FindTargetLoop, PrefersTopLevel) {
  const frontend::NodePtr unit = parse_snippet(
      "x = 1;\nfor (i = 0; i < n; i++) a[i] = i;\nfor (j = 0; j < n; j++) ;");
  const frontend::Node* loop = find_target_loop(*unit);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop, unit->children[1]);
}

TEST(FindTargetLoop, FindsNestedInsideFunction) {
  const frontend::NodePtr unit = parse_snippet(
      "void kernel(void) { for (int i = 0; i < 10; i++) a[i] = i; }");
  EXPECT_NE(find_target_loop(*unit), nullptr);
}

}  // namespace
}  // namespace clpp::s2s
