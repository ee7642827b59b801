// Lexical tokens of the C subset understood by clpp::frontend.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace clpp::frontend {

/// Read-only text of a token or AST node: a view of memory that the token
/// list or tree it came from owns. It reads like a std::string_view and
/// converts to std::string where a caller keeps a copy.
struct Text : std::string_view {
  using std::string_view::string_view;
  constexpr Text(std::string_view view) : std::string_view(view) {}
  operator std::string() const { return std::string(data(), size()); }
};

/// Token categories.
enum class TokenKind : std::uint8_t {
  kEnd,         // end of input
  kIdentifier,  // names (including type names; the parser disambiguates)
  kKeyword,     // reserved words of the subset
  kIntLiteral,
  kFloatLiteral,
  kCharLiteral,
  kStringLiteral,
  kPunct,   // operators and punctuation
  kPragma,  // a whole "#pragma ..." line, text without the leading '#'
};

/// The punctuator, keyword or known type name a token spells, resolved once
/// by the lexer so the parser dispatches on a byte. kNone for every other
/// identifier, literals, pragmas and the end token.
enum class TokenId : std::uint8_t {
  kNone,
  // Punctuators.
  kLParen, kRParen, kLBracket, kRBracket, kLBrace, kRBrace, kSemicolon, kComma,
  kQuestion, kColon, kColonColon, kTilde, kDot, kEllipsis, kArrow,
  kPlus, kPlusPlus, kPlusAssign, kMinus, kMinusMinus, kMinusAssign,
  kStar, kStarAssign, kSlash, kSlashAssign, kPercent, kPercentAssign,
  kCaret, kCaretAssign, kAmp, kAmpAmp, kAmpAssign, kPipe, kPipePipe, kPipeAssign,
  kAssign, kEqual, kBang, kNotEqual, kLess, kLessEqual, kShiftLeft,
  kShiftLeftAssign, kGreater, kGreaterEqual, kShiftRight, kShiftRightAssign,
  // Keywords.
  kAuto, kBreak, kCase, kChar, kConst, kContinue, kDefault, kDo, kDouble,
  kElse, kEnum, kExtern, kFloat, kFor, kGoto, kIf, kInline, kInt, kLong,
  kRegister, kRestrict, kReturn, kShort, kSigned, kSizeof, kStatic, kStruct,
  kSwitch, kTypedef, kUnion, kUnsigned, kVoid, kVolatile, kWhile, kSizeT,
  // Identifiers the parser reads as type names (common HPC typedefs).
  kTypedefName,
};

/// One lexical token with source position (1-based line/column).
struct Token {
  Text text;
  int line = 0;
  int column = 0;
  TokenKind kind = TokenKind::kEnd;
  TokenId id = TokenId::kNone;

  bool is(TokenKind k) const { return kind == k; }
  bool is(TokenId i) const { return id == i; }
  bool is_punct(std::string_view spelling) const {
    return kind == TokenKind::kPunct && text == spelling;
  }
  bool is_keyword(std::string_view word) const {
    return kind == TokenKind::kKeyword && text == word;
  }
};

/// Human-readable kind name (diagnostics).
std::string token_kind_name(TokenKind kind);

/// How a punctuator or keyword id is spelled; empty for kNone and
/// kTypedefName, which stand for many spellings.
std::string_view spelling(TokenId id);

}  // namespace clpp::frontend
