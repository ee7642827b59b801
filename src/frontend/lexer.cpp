#include "frontend/lexer.h"

#include <cctype>

#include "support/error.h"
#include "support/strings.h"

namespace clpp::frontend {

std::string token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd: return "end-of-input";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kFloatLiteral: return "float literal";
    case TokenKind::kCharLiteral: return "char literal";
    case TokenKind::kStringLiteral: return "string literal";
    case TokenKind::kPunct: return "punctuation";
    case TokenKind::kPragma: return "pragma";
  }
  return "unknown";
}

bool is_c_keyword(std::string_view word) {
  static constexpr std::string_view kKeywords[] = {
      "auto",     "break",    "case",     "char",   "const",    "continue",
      "default",  "do",       "double",   "else",   "enum",     "extern",
      "float",    "for",      "goto",     "if",     "inline",   "int",
      "long",     "register", "restrict", "return", "short",    "signed",
      "sizeof",   "static",   "struct",   "switch", "typedef",  "union",
      "unsigned", "void",     "volatile", "while",  "size_t"};
  for (std::string_view k : kKeywords)
    if (k == word) return true;
  return false;
}

namespace {

class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  std::vector<Token> run() {
    std::vector<Token> tokens;
    // Loop snippets average about 2.25 source bytes a token, so half the
    // byte count holds one without regrowing.
    tokens.reserve(src_.size() / 2 + 8);
    while (true) {
      skip_whitespace_and_comments();
      if (at_end()) break;
      tokens.push_back(next_token());
    }
    tokens.push_back(Token{TokenKind::kEnd, "", line_, column_});
    return tokens;
  }

 private:
  bool at_end() const { return pos_ >= src_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("lex error at " + std::to_string(line_) + ":" +
                     std::to_string(column_) + ": " + why);
  }

  void skip_whitespace_and_comments() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
      } else if (c == '/' && peek(1) == '*') {
        advance();
        advance();
        while (!at_end() && !(peek() == '*' && peek(1) == '/')) advance();
        if (at_end()) fail("unterminated block comment");
        advance();
        advance();
      } else {
        break;
      }
    }
  }

  Token next_token() {
    const int line = line_;
    const int col = column_;
    const char c = peek();

    if (c == '#') return preprocessor_line(line, col);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
      return identifier(line, col);
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))))
      return number(line, col);
    if (c == '"') return string_literal(line, col);
    if (c == '\'') return char_literal(line, col);
    return punct(line, col);
  }

  Token preprocessor_line(int line, int col) {
    // Consume until an unescaped newline.
    std::string text;
    advance();  // '#'
    while (!at_end() && peek() != '\n') {
      // A backslash before the line break (LF or CR LF) splices the next
      // line onto this one.
      if (peek() == '\\') {
        const std::size_t eol = peek(1) == '\r' ? 2 : 1;
        if (peek(eol) == '\n') {
          for (std::size_t i = 0; i <= eol; ++i) advance();
          text.push_back(' ');
          continue;
        }
      }
      text.push_back(advance());
    }
    const std::string trimmed{clpp::trim(text)};
    if (starts_with(trimmed, "pragma"))
      return Token{TokenKind::kPragma, trimmed, line, col};
    // Other preprocessor directives are skipped by re-entering the loop.
    skip_whitespace_and_comments();
    if (at_end()) return Token{TokenKind::kEnd, "", line_, column_};
    return next_token();
  }

  Token identifier(int line, int col) {
    const std::size_t start = pos_;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                         peek() == '_'))
      ++pos_;
    const std::string_view text = src_.substr(start, pos_ - start);
    column_ += static_cast<int>(text.size());
    const TokenKind kind =
        is_c_keyword(text) ? TokenKind::kKeyword : TokenKind::kIdentifier;
    return Token{kind, std::string(text), line, col};
  }

  Token number(int line, int col) {
    const std::size_t start = pos_;
    bool is_float = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      advance();
      advance();
      while (!at_end() && std::isxdigit(static_cast<unsigned char>(peek()))) advance();
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) advance();
      if (peek() == '.') {
        is_float = true;
        advance();
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) advance();
      }
      if (peek() == 'e' || peek() == 'E') {
        is_float = true;
        advance();
        if (peek() == '+' || peek() == '-') advance();
        if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad exponent");
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) advance();
      }
    }
    std::string text(src_.substr(start, pos_ - start));
    // Suffixes (u, l, f) are consumed but not recorded in the value text.
    while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L' ||
           peek() == 'f' || peek() == 'F') {
      if (peek() == 'f' || peek() == 'F') is_float = true;
      advance();
    }
    return Token{is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral,
                 std::move(text), line, col};
  }

  Token string_literal(int line, int col) {
    std::string text;
    advance();  // opening quote
    while (!at_end() && peek() != '"') {
      if (peek() == '\\') text.push_back(advance());
      if (at_end()) break;
      if (peek() == '\n') fail("newline in string literal");
      text.push_back(advance());
    }
    if (at_end()) fail("unterminated string literal");
    advance();  // closing quote
    return Token{TokenKind::kStringLiteral, std::move(text), line, col};
  }

  Token char_literal(int line, int col) {
    std::string text;
    advance();  // opening quote
    while (!at_end() && peek() != '\'') {
      if (peek() == '\\') text.push_back(advance());
      if (at_end()) break;
      text.push_back(advance());
    }
    if (at_end()) fail("unterminated char literal");
    advance();
    if (text.empty()) fail("empty char literal");
    return Token{TokenKind::kCharLiteral, std::move(text), line, col};
  }

  /// Operators and punctuation by maximal munch: the first character picks
  /// the candidates, the longest spelling that matches wins.
  Token punct(int line, int col) {
    const char c = peek();
    const char c1 = peek(1);
    std::size_t length = 1;
    switch (c) {
      case '<':
      case '>':  // << <<= <= and >> >>= >=
        length = c1 == c ? (peek(2) == '=' ? 3 : 2) : (c1 == '=' ? 2 : 1);
        break;
      case '-':
        length = c1 == '>' || c1 == '-' || c1 == '=' ? 2 : 1;
        break;
      case '+':
      case '&':
      case '|':  // ++ += && &= || |=
        length = c1 == c || c1 == '=' ? 2 : 1;
        break;
      case '=':
      case '!':
      case '*':
      case '/':
      case '%':
      case '^':
        length = c1 == '=' ? 2 : 1;
        break;
      case '.':
        length = c1 == '.' && peek(2) == '.' ? 3 : 1;
        break;
      case ':':
        length = c1 == ':' ? 2 : 1;
        break;
      case '~':
      case '?':
      case ';':
      case ',':
      case '(':
      case ')':
      case '[':
      case ']':
      case '{':
      case '}':
        break;
      default:
        advance();
        fail(std::string("unexpected character '") + c + "'");
    }
    Token token{TokenKind::kPunct, std::string(src_.substr(pos_, length)), line, col};
    pos_ += length;
    column_ += static_cast<int>(length);
    return token;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source) { return Lexer{source}.run(); }

}  // namespace clpp::frontend
