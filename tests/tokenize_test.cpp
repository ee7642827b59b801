// Tests for code representations (§4.2, Table 5) and the vocabulary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "codegen/generator.h"
#include "support/error.h"
#include "tokenize/representation.h"
#include "tokenize/vocabulary.h"

namespace clpp::tokenize {
namespace {

TEST(Representation, NamesRoundTrip) {
  for (Representation rep : all_representations())
    EXPECT_EQ(representation_from(representation_name(rep)), rep);
  EXPECT_THROW(representation_from("bogus"), InvalidArgument);
}

TEST(Text, TokenizesPaperTable5Example) {
  const auto tokens = tokenize("for (i = 0; i < len; i++) a[i] = i;",
                               Representation::kText);
  const std::vector<std::string> expected = {"for", "(", "i", "=", "0", ";",
                                             "i",   "<", "len", ";", "i", "++",
                                             ")",   "a", "[", "i", "]", "=",
                                             "i",   ";"};
  EXPECT_EQ(tokens, expected);
}

TEST(RText, MatchesPaperTable5Replacement) {
  const auto tokens = tokenize("for (i = 0; i < len; i++) a[i] = i;",
                               Representation::kRText);
  // i -> var0, len -> var1, a -> arr0 (array classified via ArrayRef).
  const std::vector<std::string> expected = {
      "for", "(", "var0", "=", "0", ";", "var0", "<",    "var1", ";",
      "var0", "++", ")",  "arr0", "[", "var0", "]", "=", "var0", ";"};
  EXPECT_EQ(tokens, expected);
}

TEST(RText, KeepsBuiltinsAndKeywords) {
  const auto tokens = tokenize("printf(\"%d\", sqrt(x));", Representation::kRText);
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "printf"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "sqrt"), tokens.end());
  EXPECT_EQ(std::find(tokens.begin(), tokens.end(), "x"), tokens.end());
}

TEST(RText, FunctionNamesGetFnPrefix) {
  const auto map = replacement_map("y = Calc(x) + Calc(z);");
  EXPECT_EQ(map.at("Calc"), "fn0");
  EXPECT_EQ(map.at("y"), "var0");
}

TEST(Text, LiteralBucketing) {
  const auto tokens =
      tokenize("a[i] = 100 + 101 + 2.5 + 123456.789; s = \"hello\"; c = 'x';",
               Representation::kText);
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "100"), tokens.end());
  EXPECT_EQ(std::find(tokens.begin(), tokens.end(), "101"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "<num>"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "2.5"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "<str>"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "<chr>"), tokens.end());
}

TEST(Text, PragmaLinesNeverLeak) {
  const auto tokens = tokenize(
      "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = i;",
      Representation::kText);
  EXPECT_EQ(std::find(tokens.begin(), tokens.end(), "pragma"), tokens.end());
  EXPECT_EQ(std::find(tokens.begin(), tokens.end(), "omp"), tokens.end());
}

TEST(Ast, PragmaNodesNeverLeak) {
  const auto tokens = tokenize(
      "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = i;",
      Representation::kAst);
  for (const std::string& token : tokens) EXPECT_NE(token, "Pragma:");
}

TEST(Ast, ContainsStructureLabels) {
  const auto tokens =
      tokenize("for (i = 0; i < len; i++) a[i] = i;", Representation::kAst);
  auto has = [&](const char* t) {
    return std::find(tokens.begin(), tokens.end(), t) != tokens.end();
  };
  EXPECT_TRUE(has("For:"));
  EXPECT_TRUE(has("Assignment:"));
  EXPECT_TRUE(has("BinaryOp:"));
  EXPECT_TRUE(has("ArrayRef:"));
  EXPECT_TRUE(has("ID:"));
  EXPECT_TRUE(has("Constant:"));
}

TEST(Ast, LongerThanTextOnAverage) {
  // Table 6: AST averages more tokens than Text (37 vs 33 in the paper).
  const char* snippets[] = {
      "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
      "for (i = 0; i < n; i++) { t = a[i]; b[i] = t * t; }",
      "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;",
  };
  std::size_t text_total = 0, ast_total = 0;
  for (const char* code : snippets) {
    text_total += tokenize(code, Representation::kText).size();
    ast_total += tokenize(code, Representation::kAst).size();
  }
  EXPECT_GT(ast_total, text_total);
}

TEST(RAst, ReplacesIdentifiersInsideLabels) {
  const auto tokens =
      tokenize("for (i = 0; i < len; i++) a[i] = i;", Representation::kRAst);
  auto has = [&](const char* t) {
    return std::find(tokens.begin(), tokens.end(), t) != tokens.end();
  };
  EXPECT_TRUE(has("var0"));
  EXPECT_TRUE(has("arr0"));
  EXPECT_FALSE(has("len"));
  EXPECT_FALSE(has("a"));
}

TEST(Ast, ThrowsOnUnparseableInput) {
  EXPECT_THROW(tokenize("for (i = 0 i++;", Representation::kAst), ParseError);
  // Text representation only lexes, so the same input passes.
  EXPECT_NO_THROW(tokenize("for (i = 0 i++;", Representation::kText));
}

TEST(Tokenize, CorpusTokensMatchRecordedDigest) {
  // 64-bit FNV-1a over every token of all four representations of a fixed
  // generated corpus, each token closed by a zero byte and each stream by
  // one more: any token a representation spells, orders, renames or
  // buckets differently moves it. Labeled records are tokenized with their
  // directive line in front, so pragma skipping is pinned too.
  codegen::GeneratorConfig config;
  config.size = 300;
  config.seed = 2023;
  config.simd_families = true;
  const auto corpus = codegen::generate_corpus(config);
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const std::string& field) {
    for (const char c : field) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash *= 1099511628211ULL;  // the zero byte closing the field
  };
  std::size_t tokens = 0;
  for (const auto& record : corpus.records()) {
    const std::string code =
        record.has_directive ? record.directive_text + "\n" + record.code : record.code;
    for (Representation rep : all_representations()) {
      for (const std::string& token : tokenize(code, rep)) {
        mix(token);
        ++tokens;
      }
      mix("");
    }
  }
  EXPECT_EQ(tokens, 47834u);
  EXPECT_EQ(hash, 0x733bb28def753ef7ULL);
}

TEST(Vocabulary, SpecialsFirst) {
  const Vocabulary v = Vocabulary::build({{"x", "y", "x"}});
  EXPECT_EQ(v.token_of(Vocabulary::kPad), "<pad>");
  EXPECT_EQ(v.token_of(Vocabulary::kCls), "<cls>");
  EXPECT_EQ(v.token_of(Vocabulary::kUnk), "<unk>");
  EXPECT_EQ(v.token_of(Vocabulary::kMask), "<mask>");
  EXPECT_EQ(v.size(), 6u);
  // Frequency order: x (2) before y (1).
  EXPECT_EQ(v.token_of(4), "x");
  EXPECT_EQ(v.token_of(5), "y");
}

TEST(Vocabulary, UnknownMapsToUnk) {
  const Vocabulary v = Vocabulary::build({{"a"}});
  EXPECT_EQ(v.id_of("zzz"), Vocabulary::kUnk);
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zzz"));
}

TEST(Vocabulary, MinCountFilters) {
  const Vocabulary v = Vocabulary::build({{"common", "common", "rare"}}, 2);
  EXPECT_TRUE(v.contains("common"));
  EXPECT_FALSE(v.contains("rare"));
}

TEST(Vocabulary, EncodePrependsClsAndTruncates) {
  const Vocabulary v = Vocabulary::build({{"a", "b", "c"}});
  const auto ids = v.encode({"a", "b", "c"}, 3);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], Vocabulary::kCls);
  EXPECT_EQ(v.token_of(ids[1]), "a");
  EXPECT_EQ(v.token_of(ids[2]), "b");  // c truncated
}

TEST(Vocabulary, OovTypeCounting) {
  const Vocabulary v = Vocabulary::build({{"a", "b"}});
  EXPECT_EQ(v.count_oov_types({{"a", "x", "y"}, {"y", "b"}}), 2u);
  EXPECT_EQ(v.count_oov_types({{"a", "b"}}), 0u);
}

TEST(Vocabulary, DeterministicTieBreak) {
  const Vocabulary a = Vocabulary::build({{"beta", "alpha"}});
  const Vocabulary b = Vocabulary::build({{"alpha", "beta"}});
  EXPECT_EQ(a.id_of("alpha"), b.id_of("alpha"));
  EXPECT_EQ(a.id_of("beta"), b.id_of("beta"));
}

TEST(ReplacementSignal, RTextVocabSmallerThanText) {
  // Table 6: replacement shrinks the vocabulary (6,427 -> 2,424 for Text).
  const char* snippets[] = {
      "for (i = 0; i < n; i++) alpha[i] = beta[i];",
      "for (j = 0; j < m; j++) gamma[j] = delta[j];",
      "for (k = 0; k < p; k++) epsilon[k] = zeta[k];",
  };
  std::vector<std::vector<std::string>> text_docs, rtext_docs;
  for (const char* code : snippets) {
    text_docs.push_back(tokenize(code, Representation::kText));
    rtext_docs.push_back(tokenize(code, Representation::kRText));
  }
  const Vocabulary text_vocab = Vocabulary::build(text_docs);
  const Vocabulary rtext_vocab = Vocabulary::build(rtext_docs);
  EXPECT_LT(rtext_vocab.size(), text_vocab.size());
}

}  // namespace
}  // namespace clpp::tokenize
