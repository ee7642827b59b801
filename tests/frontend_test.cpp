// Tests for the C frontend: lexer, parser, printer round-trips, DFS
// serialization, and the OpenMP pragma parser.
#include <gtest/gtest.h>

#include "frontend/dfs.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "frontend/pragma.h"
#include "frontend/printer.h"

namespace clpp::frontend {
namespace {

// --- lexer -------------------------------------------------------------------

TEST(Lexer, TokenizesLoopHeader) {
  const auto tokens = lex("for (i = 0; i <= N; i++)");
  ASSERT_GE(tokens.size(), 13u);
  EXPECT_TRUE(tokens[0].is_keyword("for"));
  EXPECT_TRUE(tokens[1].is_punct("("));
  EXPECT_EQ(tokens[2].text, "i");
  EXPECT_TRUE(tokens[5].is_punct(";"));
  EXPECT_TRUE(tokens[7].is_punct("<="));
  EXPECT_TRUE(tokens[11].is_punct("++"));
}

TEST(Lexer, DistinguishesNumericLiterals) {
  const auto tokens = lex("42 3.14 1e-3 0x1F 2.5f 10L");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[1].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(tokens[2].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[3].text, "0x1F");
  EXPECT_EQ(tokens[4].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(tokens[5].kind, TokenKind::kIntLiteral);
}

TEST(Lexer, SkipsComments) {
  const auto tokens = lex("a /* block\ncomment */ b // line\nc");
  ASSERT_EQ(tokens.size(), 4u);  // a b c EOF
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, CapturesPragmaLines) {
  const auto tokens = lex("#pragma omp parallel for private(i)\nfor(;;);");
  EXPECT_EQ(tokens[0].kind, TokenKind::kPragma);
  EXPECT_EQ(tokens[0].text, "pragma omp parallel for private(i)");
  EXPECT_TRUE(tokens[1].is_keyword("for"));
}

TEST(Lexer, SkipsOtherPreprocessorLines) {
  const auto tokens = lex("#include <stdio.h>\n#define N 100\nint x;");
  EXPECT_TRUE(tokens[0].is_keyword("int"));
}

TEST(Lexer, HandlesLineContinuationInPragma) {
  const auto tokens = lex("#pragma omp parallel \\\n for\nx;");
  EXPECT_EQ(tokens[0].kind, TokenKind::kPragma);
  EXPECT_NE(tokens[0].text.find("for"), std::string::npos);
}

TEST(Lexer, HandlesCrlfLineContinuationInPragma) {
  // Windows line endings: the splice is a backslash before CR LF.
  const auto crlf = lex("#pragma omp parallel for \\\r\n    private(t)\r\nfor(;;);\r\n");
  const auto lf = lex("#pragma omp parallel for \\\n    private(t)\nfor(;;);\n");
  ASSERT_EQ(crlf.size(), lf.size());
  EXPECT_EQ(crlf[0].kind, TokenKind::kPragma);
  EXPECT_EQ(crlf[0].text, lf[0].text);
  EXPECT_TRUE(crlf[1].is_keyword("for"));
  EXPECT_EQ(crlf[1].line, 3);
  EXPECT_EQ(crlf[1].column, 1);
}

TEST(Lexer, StringAndCharLiterals) {
  const auto tokens = lex(R"(printf("%d\n", 'a');)");
  EXPECT_EQ(tokens[2].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[2].text, "%d\\n");
  EXPECT_EQ(tokens[4].kind, TokenKind::kCharLiteral);
  EXPECT_EQ(tokens[4].text, "a");
}

TEST(Lexer, MaximalMunchOperators) {
  // Every multi-character operator next to its shorter prefixes: each
  // input lexes to exactly the spellings listed, longest match first.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      {"<<=", {"<<="}},      {"<<", {"<<"}},       {"<=", {"<="}},
      {"<", {"<"}},          {"<<<", {"<<", "<"}}, {">>=", {">>="}},
      {">>", {">>"}},        {">=", {">="}},       {">", {">"}},
      {"...", {"..."}},      {"..", {".", "."}},   {".", {"."}},
      {"->", {"->"}},        {"--", {"--"}},       {"-=", {"-="}},
      {"-", {"-"}},          {"-->", {"--", ">"}}, {"::", {"::"}},
      {":", {":"}},          {"&&", {"&&"}},       {"&=", {"&="}},
      {"&", {"&"}},          {"&&=", {"&&", "="}}, {"||", {"||"}},
      {"|=", {"|="}},        {"|", {"|"}},         {"^=", {"^="}},
      {"^", {"^"}},          {"%=", {"%="}},       {"%", {"%"}},
      {"++", {"++"}},        {"+=", {"+="}},       {"+++", {"++", "+"}},
      {"==", {"=="}},        {"===", {"==", "="}}, {"!=", {"!="}},
      {"*=", {"*="}},        {"/=", {"/="}},       {"a<<=b>>c->d", {"<<=", ">>", "->"}},
  };
  for (const auto& [input, expected] : cases) {
    std::vector<std::string> spelled;
    for (const Token& t : lex(input))
      if (t.kind == TokenKind::kPunct) spelled.push_back(t.text);
    EXPECT_EQ(spelled, expected) << input;
  }
  // A character no operator starts with is still a lex error, positioned
  // just past it.
  try {
    lex("x = a @ b;");
    ADD_FAILURE() << "'@' lexed";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "lex error at 1:8: unexpected character '@'");
  }
}

TEST(Lexer, RejectsUnterminatedString) {
  EXPECT_THROW(lex("\"never closed"), ParseError);
}

TEST(Lexer, RejectsUnterminatedComment) {
  EXPECT_THROW(lex("/* never closed"), ParseError);
}

TEST(Lexer, TracksLineNumbers) {
  const auto tokens = lex("a\nb\n  c");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 3);
  EXPECT_EQ(tokens[2].column, 3);
}

// --- parser -------------------------------------------------------------------

TEST(Parser, SimpleForLoopShape) {
  const NodePtr unit = parse_snippet("for (i = 0; i < n; i++) a[i] = i;");
  ASSERT_EQ(unit->children.size(), 1u);
  const Node& loop = unit->child(0);
  EXPECT_EQ(loop.kind, NodeKind::kFor);
  ASSERT_EQ(loop.children.size(), 4u);
  EXPECT_EQ(loop.child(0).kind, NodeKind::kAssignment);
  EXPECT_EQ(loop.child(1).kind, NodeKind::kBinaryOp);
  EXPECT_EQ(loop.child(1).text, "<");
  EXPECT_EQ(loop.child(2).kind, NodeKind::kUnaryOp);
  EXPECT_EQ(loop.child(2).text, "p++");
  const Node& body = loop.child(3);
  EXPECT_EQ(body.kind, NodeKind::kExprStmt);
  EXPECT_EQ(body.child(0).kind, NodeKind::kAssignment);
  EXPECT_EQ(body.child(0).child(0).kind, NodeKind::kArrayRef);
}

TEST(Parser, DeclarationInForInit) {
  const NodePtr unit = parse_snippet("for (int i = 0; i < 10; ++i) x += i;");
  const Node& init = unit->child(0).child(0);
  EXPECT_EQ(init.kind, NodeKind::kDecl);
  EXPECT_EQ(init.text, "i");
  EXPECT_EQ(init.aux, "int");
  ASSERT_EQ(init.children.size(), 1u);
  EXPECT_EQ(init.child(0).text, "0");
}

TEST(Parser, OperatorPrecedence) {
  const NodePtr e = parse_expression("a + b * c - d / e");
  // ((a + (b*c)) - (d/e))
  EXPECT_EQ(e->text, "-");
  EXPECT_EQ(e->child(0).text, "+");
  EXPECT_EQ(e->child(0).child(1).text, "*");
  EXPECT_EQ(e->child(1).text, "/");
}

TEST(Parser, AssignmentIsRightAssociative) {
  const NodePtr e = parse_expression("a = b = c");
  EXPECT_EQ(e->kind, NodeKind::kAssignment);
  EXPECT_EQ(e->child(1).kind, NodeKind::kAssignment);
  EXPECT_EQ(e->child(1).child(0).text, "b");
}

TEST(Parser, LogicalPrecedenceBelowComparison) {
  const NodePtr e = parse_expression("a < b && c > d || e == f");
  EXPECT_EQ(e->text, "||");
  EXPECT_EQ(e->child(0).text, "&&");
  EXPECT_EQ(e->child(1).text, "==");
}

TEST(Parser, TernaryExpression) {
  const NodePtr e = parse_expression("x > 0 ? x : -x");
  EXPECT_EQ(e->kind, NodeKind::kTernaryOp);
  EXPECT_EQ(e->child(2).kind, NodeKind::kUnaryOp);
}

TEST(Parser, MultiDimensionalArrayRef) {
  const NodePtr e = parse_expression("b[i][j]");
  EXPECT_EQ(e->kind, NodeKind::kArrayRef);
  EXPECT_EQ(e->child(0).kind, NodeKind::kArrayRef);
  EXPECT_EQ(e->child(0).child(0).text, "b");
  EXPECT_EQ(e->child(1).text, "j");
}

TEST(Parser, FunctionCallWithArguments) {
  const NodePtr e = parse_expression("fmax(a[i], b[i] * 2.0)");
  EXPECT_EQ(e->kind, NodeKind::kFuncCall);
  EXPECT_EQ(e->child(0).text, "fmax");
  EXPECT_EQ(e->child(1).children.size(), 2u);
}

TEST(Parser, MallocCastIdiom) {
  const NodePtr unit =
      parse_snippet("b = (long **) malloc(10 * (sizeof(long *)));");
  const Node& assign = unit->child(0).child(0);
  EXPECT_EQ(assign.child(1).kind, NodeKind::kCast);
  EXPECT_EQ(assign.child(1).text, "long**");
  EXPECT_EQ(assign.child(1).child(0).kind, NodeKind::kFuncCall);
}

TEST(Parser, SizeofExpressionAndType) {
  const NodePtr a = parse_expression("sizeof(x)");
  EXPECT_EQ(a->kind, NodeKind::kSizeof);
  ASSERT_EQ(a->children.size(), 1u);
  const NodePtr b = parse_expression("sizeof(double)");
  EXPECT_EQ(b->kind, NodeKind::kSizeof);
  EXPECT_EQ(b->text, "double");
  EXPECT_TRUE(b->children.empty());
}

TEST(Parser, StructMemberAccess) {
  const NodePtr e = parse_expression("node->next.value");
  EXPECT_EQ(e->kind, NodeKind::kStructRef);
  EXPECT_EQ(e->text, ".");
  EXPECT_EQ(e->child(0).kind, NodeKind::kStructRef);
  EXPECT_EQ(e->child(0).text, "->");
}

TEST(Parser, FunctionDefinition) {
  const NodePtr unit = parse_program(
      "double norm(double *v, int n) { double s = 0; return s; }");
  const Node& fn = unit->child(0);
  EXPECT_EQ(fn.kind, NodeKind::kFuncDef);
  EXPECT_EQ(fn.text, "norm");
  EXPECT_EQ(fn.aux, "double");
  EXPECT_EQ(fn.child(0).children.size(), 2u);
  EXPECT_EQ(fn.child(0).child(0).aux, "double*");
  EXPECT_EQ(fn.child(1).kind, NodeKind::kCompound);
}

TEST(Parser, FunctionPrototype) {
  const NodePtr unit = parse_program("void Calc(int i);");
  const Node& fn = unit->child(0);
  EXPECT_EQ(fn.kind, NodeKind::kFuncDef);
  EXPECT_EQ(fn.child(1).kind, NodeKind::kEmpty);
}

TEST(Parser, ArrayDeclarationWithDims) {
  const NodePtr unit = parse_snippet("double a[100][200];");
  const Node& decl = unit->child(0);
  EXPECT_EQ(decl.kind, NodeKind::kDecl);
  EXPECT_EQ(decl.aux, "double[][]");
  ASSERT_EQ(decl.children.size(), 2u);
  EXPECT_EQ(decl.child(0).text, "100");
}

TEST(Parser, MultiDeclaratorStatement) {
  const NodePtr unit = parse_snippet("int i = 0, j = 1, k;");
  const Node& list = unit->child(0);
  EXPECT_EQ(list.kind, NodeKind::kExprList);
  EXPECT_EQ(list.children.size(), 3u);
  EXPECT_EQ(list.child(1).text, "j");
}

TEST(Parser, PragmaAttachedBeforeLoop) {
  const NodePtr unit = parse_snippet(
      "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = i;");
  ASSERT_EQ(unit->children.size(), 2u);
  EXPECT_EQ(unit->child(0).kind, NodeKind::kPragma);
  EXPECT_EQ(unit->child(1).kind, NodeKind::kFor);
}

TEST(Parser, IfElseChains) {
  const NodePtr unit = parse_snippet(
      "if (y % 2) det += a[y]; else det -= a[y];");
  const Node& node = unit->child(0);
  EXPECT_EQ(node.kind, NodeKind::kIf);
  ASSERT_EQ(node.children.size(), 3u);
}

TEST(Parser, WhileAndDoWhile) {
  const NodePtr unit = parse_snippet("while (p) p = next(p); do x--; while (x);");
  EXPECT_EQ(unit->child(0).kind, NodeKind::kWhile);
  EXPECT_EQ(unit->child(1).kind, NodeKind::kDoWhile);
}

TEST(Parser, BreakContinueGotoLabel) {
  const NodePtr unit = parse_snippet(
      "for (;;) { if (a) break; if (b) continue; goto done; }\ndone: x = 1;");
  const Node& body = unit->child(0).child(3);
  EXPECT_EQ(body.child(0).child(1).kind, NodeKind::kBreak);
  EXPECT_EQ(body.child(1).child(1).kind, NodeKind::kContinue);
  EXPECT_EQ(body.child(2).kind, NodeKind::kGoto);
  EXPECT_EQ(unit->child(1).kind, NodeKind::kLabel);
}

TEST(Parser, CommaExpressionInForHeader) {
  const NodePtr unit = parse_snippet("for (i = 0, j = n; i < j; i++, j--) ;");
  const Node& loop = unit->child(0);
  EXPECT_EQ(loop.child(0).kind, NodeKind::kExprList);
  EXPECT_EQ(loop.child(2).kind, NodeKind::kExprList);
}

TEST(Parser, StructDefinition) {
  const NodePtr unit =
      parse_program("struct point { double x; double y; };");
  const Node& def = unit->child(0);
  EXPECT_EQ(def.kind, NodeKind::kDecl);
  EXPECT_EQ(def.aux, "struct-def");
  EXPECT_EQ(def.children.size(), 2u);
}

TEST(Parser, EmptyForHeaderPieces) {
  const NodePtr unit = parse_snippet("for (;;) ;");
  const Node& loop = unit->child(0);
  EXPECT_EQ(loop.child(0).kind, NodeKind::kEmpty);
  EXPECT_EQ(loop.child(1).kind, NodeKind::kEmpty);
  EXPECT_EQ(loop.child(2).kind, NodeKind::kEmpty);
}

TEST(Parser, RejectsGarbage) {
  EXPECT_THROW(parse_snippet("for (i = 0 i < n; i++) ;"), ParseError);
  EXPECT_THROW(parse_snippet("int 3x;"), ParseError);
  EXPECT_THROW(parse_snippet("a = ;"), ParseError);
  EXPECT_THROW(parse_snippet("{ unterminated"), ParseError);
}

TEST(Parser, Paper_Table8_Example3_Parses) {
  // The determinant example from Table 8 of the paper (abridged types).
  const char* code = R"(
    for (y = 0; y < 10; y++) {
      b = (long **) malloc(10 * (sizeof(long *)));
      for (i = 0; i < m; i++)
        b[i] = (long *) malloc((sizeof(long *)) * 10);
      for (int x = 0; x < 10; x++)
        for (int g = 0; g < 10; g++)
          b[x][g] = 0;
      getCofactor(a, b, 0, y, m);
      if (y % 2)
        det += ((-1) * a[0][y]) * detMat(b, m - 1);
      else
        det += a[0][y] * detMat(b, m - 1);
      for (i = 0; i < m; i++)
        free(b[i]);
      free(b);
    }
  )";
  const NodePtr unit = parse_snippet(code);
  EXPECT_EQ(count_kind(*unit, NodeKind::kFor), 5u);
  // getCofactor, detMat x2, free x2, malloc x2.
  EXPECT_EQ(count_kind(*unit, NodeKind::kFuncCall), 7u);
}

// --- printer round-trips --------------------------------------------------------

std::string normalized(const Node& node) { return dfs_lines(node); }

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ParsePrintParseIsStable) {
  const NodePtr first = parse_snippet(GetParam());
  const std::string printed = print_source(*first);
  const NodePtr second = parse_snippet(printed);
  EXPECT_EQ(normalized(*first), normalized(*second)) << "printed form:\n" << printed;
}

INSTANTIATE_TEST_SUITE_P(
    Snippets, RoundTrip,
    ::testing::Values(
        "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
        "for (int i = 0; i < len; ++i) { sum += v[i] * v[i]; }",
        "if (fabs(b[i][j] - a[i][j]) > maxdiff) maxdiff = fabs(b[i][j] - a[i][j]);",
        "x = y > 0 ? y : -y;",
        "b = (long **) malloc(10 * (sizeof(long *)));",
        "for (i = 0, j = n - 1; i < j; i++, j--) { t = a[i]; a[i] = a[j]; a[j] = t; }",
        "while (count < 10) { count++; }",
        "do { s += f(s); } while (s < eps);",
        "double norm(double *v, int n) { double s = 0; for (int i = 0; i < n; i++) s += v[i] * v[i]; return s; }",
        "p->next = q->prev;",
        "arr[i][j][k] = i * j + k;",
        "#pragma omp parallel for private(j) reduction(+: sum)\nfor (i = 0; i < n; i++) for (j = 0; j < m; j++) sum += m1[i][j];",
        "fprintf(f, \"%d\\n\", arr[i]);",
        "int i = 0, j = 1;",
        "for (;;) { if (done) break; }",
        "x = (double) total / (double) count;",
        "flag = !flag && (mask | bits) != 0;",
        "a[i] <<= 2;",
        "s = sizeof(double) * n;",
        "v = -x * +y;"));

// --- DFS serialization ------------------------------------------------------------

TEST(Dfs, MatchesPaperTable5Format) {
  const NodePtr unit = parse_snippet("for (i = 0; i < len; i++) a[i] = i;");
  const std::string lines = dfs_lines(*unit);
  EXPECT_NE(lines.find("For:"), std::string::npos);
  EXPECT_NE(lines.find("Assignment: ="), std::string::npos);
  EXPECT_NE(lines.find("ID: i"), std::string::npos);
  EXPECT_NE(lines.find("Constant: int, 0"), std::string::npos);
  EXPECT_NE(lines.find("BinaryOp: <"), std::string::npos);
  EXPECT_NE(lines.find("UnaryOp: p++"), std::string::npos);
  EXPECT_NE(lines.find("ArrayRef:"), std::string::npos);
}

TEST(Dfs, DeeperNodesIndentFurther) {
  const NodePtr unit = parse_snippet("for (;;) a = 1;");
  const std::string lines = dfs_lines(*unit);
  EXPECT_NE(lines.find("\n  "), std::string::npos);  // indented children exist
}

// --- pragma parsing -----------------------------------------------------------------

TEST(Pragma, ParsesParallelForWithClauses) {
  const OmpDirective d = parse_omp_pragma(
      "#pragma omp parallel for private(i, j) reduction(+: sum) schedule(dynamic, 4) nowait");
  EXPECT_TRUE(d.parallel);
  EXPECT_TRUE(d.for_loop);
  EXPECT_TRUE(d.is_loop_directive());
  EXPECT_EQ(d.private_vars, (std::vector<std::string>{"i", "j"}));
  ASSERT_EQ(d.reductions.size(), 1u);
  EXPECT_EQ(d.reductions[0], (Reduction{ReductionOp::kAdd, "sum"}));
  EXPECT_EQ(d.schedule, ScheduleKind::kDynamic);
  EXPECT_EQ(d.schedule_chunk, 4);
  EXPECT_TRUE(d.nowait);
}

TEST(Pragma, ParsesWithoutHashPrefix) {
  const OmpDirective d = parse_omp_pragma("pragma omp for schedule(static)");
  EXPECT_FALSE(d.parallel);
  EXPECT_TRUE(d.for_loop);
  EXPECT_EQ(d.schedule, ScheduleKind::kStatic);
}

TEST(Pragma, MaxReduction) {
  const OmpDirective d = parse_omp_pragma("#pragma omp parallel for reduction(max: maxdiff)");
  ASSERT_EQ(d.reductions.size(), 1u);
  EXPECT_EQ(d.reductions[0].op, ReductionOp::kMax);
  EXPECT_EQ(d.reductions[0].variable, "maxdiff");
}

TEST(Pragma, MultipleReductionVariables) {
  const OmpDirective d = parse_omp_pragma("#pragma omp parallel for reduction(*: p, q)");
  ASSERT_EQ(d.reductions.size(), 2u);
  EXPECT_EQ(d.reductions[1].variable, "q");
}

TEST(Pragma, NonLoopDirectives) {
  EXPECT_TRUE(parse_omp_pragma("#pragma omp critical").critical);
  EXPECT_TRUE(parse_omp_pragma("#pragma omp atomic").atomic);
  EXPECT_TRUE(parse_omp_pragma("#pragma omp barrier").barrier);
  EXPECT_FALSE(parse_omp_pragma("#pragma omp parallel").is_loop_directive());
}

TEST(Pragma, UnknownClausePreserved) {
  const OmpDirective d =
      parse_omp_pragma("#pragma omp parallel for ordered default(none)");
  ASSERT_EQ(d.unknown_clauses.size(), 2u);
  EXPECT_EQ(d.unknown_clauses[0], "ordered");
  EXPECT_EQ(d.unknown_clauses[1], "default(none)");
}

TEST(Pragma, RejectsNonOmpPragma) {
  EXPECT_FALSE(is_omp_pragma("pragma once"));
  EXPECT_THROW(parse_omp_pragma("pragma once"), ParseError);
  EXPECT_FALSE(is_omp_pragma("pragma ompx foo"));
}

TEST(Pragma, ToStringRoundTrips) {
  const char* text =
      "#pragma omp parallel for schedule(dynamic, 8) private(i, j) "
      "reduction(+: sum) nowait";
  const OmpDirective d = parse_omp_pragma(text);
  const OmpDirective again = parse_omp_pragma(d.to_string());
  EXPECT_EQ(d, again);
}

TEST(Pragma, CollapseAndNumThreads) {
  const OmpDirective d =
      parse_omp_pragma("#pragma omp parallel for collapse(2) num_threads(8)");
  EXPECT_EQ(d.collapse, 2);
  EXPECT_EQ(d.num_threads, "8");
}

TEST(Pragma, IntegerArgumentsReadCLiterals) {
  const OmpDirective d =
      parse_omp_pragma("#pragma omp simd safelen(0x8) simdlen(010) collapse(2u)");
  EXPECT_EQ(d.safelen, 8);
  EXPECT_EQ(d.simdlen, 8);
  EXPECT_EQ(d.collapse, 2);
  EXPECT_EQ(parse_omp_pragma("omp for schedule(dynamic, 0x10)").schedule_chunk, 16);
  // A malformed argument is kept as an unknown clause, not half-read.
  const OmpDirective bad = parse_omp_pragma("omp simd safelen(8x)");
  EXPECT_EQ(bad.safelen, 0);
  ASSERT_EQ(bad.unknown_clauses.size(), 1u);
  EXPECT_EQ(bad.unknown_clauses[0], "safelen(8x)");
}

TEST(Lexer, IntLiteralValueReadsEveryCBase) {
  EXPECT_EQ(int_literal_value("0"), 0);
  EXPECT_EQ(int_literal_value("42"), 42);
  EXPECT_EQ(int_literal_value("0x1F"), 31);
  EXPECT_EQ(int_literal_value("0X10"), 16);
  EXPECT_EQ(int_literal_value("010"), 8);
  EXPECT_EQ(int_literal_value("00"), 0);
  EXPECT_EQ(int_literal_value("16ul"), 16);
  EXPECT_EQ(int_literal_value("0x10LLU"), 16);
  EXPECT_EQ(int_literal_value("9223372036854775807"), 9223372036854775807LL);
  for (const char* bad : {"", "08", "0x", "0xg", "1e3", "-1", " 1", "1.0", "u",
                          "9223372036854775808"})
    EXPECT_FALSE(int_literal_value(bad).has_value()) << bad;
}

TEST(Pragma, ReductionOpNamesRoundTrip) {
  for (const char* symbol : {"+", "-", "*", "min", "max", "&&", "||", "&", "|", "^"}) {
    EXPECT_EQ(reduction_op_name(reduction_op_from(symbol)), symbol);
  }
  EXPECT_THROW(reduction_op_from("%%"), ParseError);
}

// --- misc AST utilities ----------------------------------------------------------------

TEST(Ast, CountKind) {
  const NodePtr unit = parse_snippet("a = b + c * d - e;");
  EXPECT_EQ(count_kind(*unit, NodeKind::kBinaryOp), 3u);
  EXPECT_EQ(count_kind(*unit, NodeKind::kID), 5u);
}

}  // namespace
}  // namespace clpp::frontend
