// Robustness fuzzing for the frontend: arbitrary input must either parse
// or raise ParseError — never crash, hang, or corrupt memory. The S2S
// robustness story (and ComPar's compile-failure accounting) depends on
// this failure mode being an exception, not UB.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "frontend/pragma.h"
#include "frontend/printer.h"
#include "support/rng.h"

namespace clpp::frontend {
namespace {

/// Random printable garbage, biased toward C-looking characters.
std::string random_garbage(Rng& rng, std::size_t length) {
  static constexpr char kChars[] =
      "abcxyz0189 ()[]{};,+-*/%=<>!&|^~?:.#\"'\\\n\t_";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    out.push_back(kChars[rng.index(sizeof(kChars) - 1)]);
  return out;
}

/// Random sequence of valid C tokens (syntactically shuffled C).
std::string random_token_soup(Rng& rng, std::size_t tokens) {
  static constexpr const char* kTokens[] = {
      "for",  "while", "if",    "else", "int",  "double", "return", "break",
      "i",    "j",     "a",     "b",    "n",    "0",      "1",      "2.5",
      "(",    ")",     "[",     "]",    "{",    "}",      ";",      ",",
      "=",    "+",     "-",     "*",    "/",    "<",      ">",      "<=",
      "++",   "--",    "+=",    "==",   "&&",   "->",     "\"s\"",  "'c'",
      "sizeof", "struct", "goto", "continue", "do"};
  std::string out;
  for (std::size_t i = 0; i < tokens; ++i) {
    out += kTokens[rng.index(std::size(kTokens))];
    out += ' ';
  }
  return out;
}

TEST(FrontendFuzz, LexerNeverCrashesOnGarbage) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string input = random_garbage(rng, rng.index(200));
    try {
      const auto tokens = lex(input);
      EXPECT_FALSE(tokens.empty());  // at least the EOF token
      EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
    } catch (const ParseError&) {
      // Acceptable outcome.
    }
  }
}

TEST(FrontendFuzz, ParserNeverCrashesOnGarbage) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string input = random_garbage(rng, rng.index(160));
    try {
      const NodePtr unit = parse_snippet(input);
      EXPECT_NE(unit, nullptr);
    } catch (const ParseError&) {
      // Acceptable outcome.
    }
  }
}

TEST(FrontendFuzz, ParserNeverCrashesOnTokenSoup) {
  Rng rng(0xF024);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string input = random_token_soup(rng, 1 + rng.index(60));
    try {
      const NodePtr unit = parse_snippet(input);
      // Whatever parsed must print back without crashing either.
      const std::string printed = print_source(*unit);
      EXPECT_FALSE(printed.empty() && !unit->children.empty());
    } catch (const ParseError&) {
      // Acceptable outcome.
    }
  }
}

TEST(FrontendFuzz, DeeplyNestedExpressionsAreBounded) {
  // Pathological nesting must not smash the stack at realistic depths.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "x";
  for (int i = 0; i < 200; ++i) deep += ")";
  deep += ";";
  EXPECT_NO_THROW(parse_snippet(deep));

  std::string unbalanced(300, '(');
  EXPECT_THROW(parse_snippet(unbalanced + "x;"), ParseError);
}

/// `text` repeated `times` times.
std::string repeated(std::string_view text, int times) {
  std::string out;
  out.reserve(text.size() * static_cast<std::size_t>(times));
  for (int i = 0; i < times; ++i) out += text;
  return out;
}

/// Parsing `input` fails with the nesting bound's ParseError.
void expect_too_deep(const std::string& input) {
  try {
    parse_snippet(input);
    ADD_FAILURE() << "a 100,000-level input parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 1000 levels"), std::string::npos)
        << e.what();
  }
}

// Hostile nesting gets ParseError, not a smashed stack: in the parser,
// which recurses per level, and in every recursive walk over the tree it
// would return. Each shape is 100,000 levels deep.
TEST(FrontendFuzz, DeepParenthesesAreAParseError) {
  expect_too_deep("x = " + repeated("(", 100000) + "y" + repeated(")", 100000) + ";");
}

TEST(FrontendFuzz, DeepBlocksAreAParseError) {
  expect_too_deep(repeated("{", 100000) + repeated("}", 100000));
}

TEST(FrontendFuzz, LongOperatorChainsAreAParseError) {
  // The chain is a loop in the parser, but a 100,000-deep tree.
  expect_too_deep("#pragma omp parallel for\nfor (i = 0; i < n; i++)\n  a[i] = b[i]" +
                  repeated(" + b[i]", 99999) + ";\n");
}

TEST(FrontendFuzz, NestingUpToTheBoundParses) {
  // The bound counts tree levels: a chain whose tree is kMaxNesting deep
  // (the statement, the assignment, then the chain) parses, one more
  // level does not.
  const auto chain = [](int links) { return "s = b" + repeated(" + b", links) + ";"; };
  const NodePtr unit = parse_snippet(chain(kMaxNesting - 4));
  EXPECT_EQ(unit->height, static_cast<std::uint32_t>(kMaxNesting));
  EXPECT_THROW(parse_snippet(chain(kMaxNesting - 3)), ParseError);
}

TEST(FrontendFuzz, LongFlatProgramsParse) {
  std::string program;
  for (int i = 0; i < 2000; ++i) program += "x = x + 1;\n";
  const NodePtr unit = parse_snippet(program);
  EXPECT_EQ(unit->children.size(), 2000u);
}

TEST(FrontendFuzz, PragmaParserNeverCrashesOnGarbage) {
  Rng rng(0xF025);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string clause_soup = "pragma omp " + random_garbage(rng, rng.index(80));
    try {
      const OmpDirective d = parse_omp_pragma(clause_soup);
      (void)d.to_string();  // rendering must be safe too
    } catch (const ParseError&) {
      // Acceptable outcome.
    }
  }
}

}  // namespace
}  // namespace clpp::frontend
