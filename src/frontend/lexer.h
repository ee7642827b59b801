// Lexer for the C subset.
//
// Handles identifiers/keywords, numeric/char/string literals, all C
// operators, line and block comments, and preprocessor lines. `#pragma`
// lines are preserved as kPragma tokens (they carry OpenMP directives);
// all other preprocessor lines (#include, #define, ...) are skipped, which
// matches how pycparser-based pipelines preprocess snippets.
//
// Tokens view the text they were lexed from: no token owns a string.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "frontend/token.h"

namespace clpp::frontend {

/// The tokens of one source, ending in a kEnd token. They view a copy of
/// the source that the list owns, so they outlive the text they came from.
class TokenList {
 public:
  std::size_t size() const { return tokens_.size(); }
  bool empty() const { return tokens_.empty(); }
  const Token& operator[](std::size_t i) const { return tokens_[i]; }
  const Token& back() const { return tokens_.back(); }
  std::vector<Token>::const_iterator begin() const { return tokens_.begin(); }
  std::vector<Token>::const_iterator end() const { return tokens_.end(); }

 private:
  friend TokenList lex(std::string_view source);
  std::unique_ptr<char[]> source_;
  std::vector<Token> tokens_;
};

/// Tokenizes `source`; throws ParseError with line/column on bad input.
TokenList lex(std::string_view source);

/// Tokenizes `source` into `out`, replacing its contents. The tokens view
/// `source`, which must be the caller's own copy: a pragma line's
/// backslash-newline splices are rewritten in place.
void lex_into(std::span<char> source, std::vector<Token>& out);

/// Value of a C integer literal: decimal, `0x` hexadecimal or leading-`0`
/// octal digits, then any `u`/`l` suffix ("0x10", "010", "16ul" all read
/// 16, 8 and 16). nullopt for anything else, a sign or spaces included, and
/// for a value above LLONG_MAX.
std::optional<long long> int_literal_value(std::string_view text);

}  // namespace clpp::frontend
