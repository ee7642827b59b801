#include "frontend/lexer.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <climits>

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

namespace {

// Character classes, one table lookup a byte.
enum : std::uint8_t { kSpace = 1, kIdentStart = 2, kDigit = 4, kHexDigit = 8 };

constexpr std::array<std::uint8_t, 256> kClasses = [] {
  std::array<std::uint8_t, 256> classes{};
  for (const char c : {' ', '\t', '\r', '\n'}) classes[static_cast<unsigned char>(c)] = kSpace;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kIdentStart;
  classes['_'] = kIdentStart;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kDigit | kHexDigit;
  for (int c = 'a'; c <= 'f'; ++c) classes[c] |= kHexDigit;
  for (int c = 'A'; c <= 'F'; ++c) classes[c] |= kHexDigit;
  return classes;
}();

bool is(char c, std::uint8_t classes) {
  return (kClasses[static_cast<unsigned char>(c)] & classes) != 0;
}

struct Word {
  std::string_view spelling;
  TokenKind kind;
  TokenId id;
};

constexpr TokenKind kKw = TokenKind::kKeyword;
constexpr TokenKind kName = TokenKind::kIdentifier;

/// Reserved words of the subset and the identifiers read as type names,
/// ordered by length so a lookup compares against one length's few words.
constexpr Word kWords[] = {
    {"do", kKw, TokenId::kDo},
    {"if", kKw, TokenId::kIf},
    {"for", kKw, TokenId::kFor},
    {"int", kKw, TokenId::kInt},
    {"auto", kKw, TokenId::kAuto},
    {"case", kKw, TokenId::kCase},
    {"char", kKw, TokenId::kChar},
    {"else", kKw, TokenId::kElse},
    {"enum", kKw, TokenId::kEnum},
    {"goto", kKw, TokenId::kGoto},
    {"long", kKw, TokenId::kLong},
    {"void", kKw, TokenId::kVoid},
    {"FILE", kName, TokenId::kTypedefName},
    {"bool", kName, TokenId::kTypedefName},
    {"break", kKw, TokenId::kBreak},
    {"const", kKw, TokenId::kConst},
    {"float", kKw, TokenId::kFloat},
    {"short", kKw, TokenId::kShort},
    {"union", kKw, TokenId::kUnion},
    {"while", kKw, TokenId::kWhile},
    {"double", kKw, TokenId::kDouble},
    {"extern", kKw, TokenId::kExtern},
    {"inline", kKw, TokenId::kInline},
    {"return", kKw, TokenId::kReturn},
    {"signed", kKw, TokenId::kSigned},
    {"sizeof", kKw, TokenId::kSizeof},
    {"static", kKw, TokenId::kStatic},
    {"struct", kKw, TokenId::kStruct},
    {"switch", kKw, TokenId::kSwitch},
    {"size_t", kKw, TokenId::kSizeT},
    {"int8_t", kName, TokenId::kTypedefName},
    {"default", kKw, TokenId::kDefault},
    {"typedef", kKw, TokenId::kTypedef},
    {"ssize_t", kName, TokenId::kTypedefName},
    {"uint8_t", kName, TokenId::kTypedefName},
    {"int16_t", kName, TokenId::kTypedefName},
    {"int32_t", kName, TokenId::kTypedefName},
    {"int64_t", kName, TokenId::kTypedefName},
    {"continue", kKw, TokenId::kContinue},
    {"register", kKw, TokenId::kRegister},
    {"restrict", kKw, TokenId::kRestrict},
    {"unsigned", kKw, TokenId::kUnsigned},
    {"volatile", kKw, TokenId::kVolatile},
    {"uint16_t", kName, TokenId::kTypedefName},
    {"uint32_t", kName, TokenId::kTypedefName},
    {"uint64_t", kName, TokenId::kTypedefName},
    {"ptrdiff_t", kName, TokenId::kTypedefName},
};

constexpr std::size_t kLongestWord = 9;

/// kWords[kFirstOfLength[n] .. kFirstOfLength[n + 1]) spell n characters.
constexpr std::array<std::size_t, kLongestWord + 2> kFirstOfLength = [] {
  std::array<std::size_t, kLongestWord + 2> first{};
  std::size_t i = 0;
  for (std::size_t length = 0; length <= kLongestWord + 1; ++length) {
    while (i < std::size(kWords) && kWords[i].spelling.size() < length) ++i;
    first[length] = i;
  }
  return first;
}();

static_assert([] {
  for (std::size_t i = 1; i < std::size(kWords); ++i)
    if (kWords[i].spelling.size() < kWords[i - 1].spelling.size()) return false;
  return kWords[std::size(kWords) - 1].spelling.size() == kLongestWord;
}(), "kWords must be ordered by length");

const Word* find_word(std::string_view word) {
  if (word.size() > kLongestWord) return nullptr;
  for (std::size_t i = kFirstOfLength[word.size()]; i < kFirstOfLength[word.size() + 1]; ++i)
    if (kWords[i].spelling == word) return &kWords[i];
  return nullptr;
}

struct Punct {
  std::string_view spelling;
  TokenId id;
};

/// Operators and punctuation, grouped by first character, longest first:
/// maximal munch takes the first of its group that the input starts with
/// (`<<=` before `<<` before `<=`; `...` but not `..`).
constexpr Punct kPuncts[] = {
    {"<<=", TokenId::kShiftLeftAssign}, {"<<", TokenId::kShiftLeft},
    {"<=", TokenId::kLessEqual}, {"<", TokenId::kLess},
    {">>=", TokenId::kShiftRightAssign}, {">>", TokenId::kShiftRight},
    {">=", TokenId::kGreaterEqual}, {">", TokenId::kGreater},
    {"->", TokenId::kArrow}, {"--", TokenId::kMinusMinus},
    {"-=", TokenId::kMinusAssign}, {"-", TokenId::kMinus},
    {"++", TokenId::kPlusPlus}, {"+=", TokenId::kPlusAssign}, {"+", TokenId::kPlus},
    {"&&", TokenId::kAmpAmp}, {"&=", TokenId::kAmpAssign}, {"&", TokenId::kAmp},
    {"||", TokenId::kPipePipe}, {"|=", TokenId::kPipeAssign}, {"|", TokenId::kPipe},
    {"==", TokenId::kEqual}, {"=", TokenId::kAssign},
    {"!=", TokenId::kNotEqual}, {"!", TokenId::kBang},
    {"*=", TokenId::kStarAssign}, {"*", TokenId::kStar},
    {"/=", TokenId::kSlashAssign}, {"/", TokenId::kSlash},
    {"%=", TokenId::kPercentAssign}, {"%", TokenId::kPercent},
    {"^=", TokenId::kCaretAssign}, {"^", TokenId::kCaret},
    {"...", TokenId::kEllipsis}, {".", TokenId::kDot},
    {"::", TokenId::kColonColon}, {":", TokenId::kColon},
    {"~", TokenId::kTilde}, {"?", TokenId::kQuestion}, {";", TokenId::kSemicolon},
    {",", TokenId::kComma}, {"(", TokenId::kLParen}, {")", TokenId::kRParen},
    {"[", TokenId::kLBracket}, {"]", TokenId::kRBracket}, {"{", TokenId::kLBrace},
    {"}", TokenId::kRBrace},
};

constexpr std::uint8_t kNoPunct = 0xFF;

/// Index in kPuncts of the first spelling that starts with each character.
constexpr std::array<std::uint8_t, 256> kFirstPunct = [] {
  std::array<std::uint8_t, 256> first{};
  first.fill(kNoPunct);
  for (std::size_t i = std::size(kPuncts); i-- > 0;)
    first[static_cast<unsigned char>(kPuncts[i].spelling[0])] = static_cast<std::uint8_t>(i);
  return first;
}();

class Lexer {
 public:
  Lexer(std::span<char> source, std::vector<Token>& out)
      : src_(source.data()), size_(source.size()), out_(out) {}

  void run() {
    out_.clear();
    // Loop snippets average about 2.25 source bytes a token, so half the
    // byte count holds one without regrowing.
    out_.reserve(size_ / 2 + 8);
    while (true) {
      skip_whitespace_and_comments();
      if (at_end()) break;
      next_token();
    }
    push(TokenKind::kEnd, TokenId::kNone, {}, line_, column());
  }

 private:
  bool at_end() const { return pos_ >= size_; }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < size_ ? src_[pos_ + ahead] : '\0';
  }
  int column() const { return static_cast<int>(pos_ - line_start_) + 1; }

  /// Consumes one character that may be a newline.
  void advance() {
    if (src_[pos_++] == '\n') {
      ++line_;
      line_start_ = pos_;
    }
  }

  void push(TokenKind kind, TokenId id, std::string_view text, int line, int column) {
    out_.push_back(Token{text, line, column, kind, id});
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("lex error at " + std::to_string(line_) + ":" +
                     std::to_string(column()) + ": " + why);
  }

  void skip_whitespace_and_comments() {
    while (!at_end()) {
      const char c = src_[pos_];
      if (is(c, kSpace)) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!at_end() && src_[pos_] != '\n') ++pos_;
      } else if (c == '/' && peek(1) == '*') {
        pos_ += 2;
        while (!at_end() && !(src_[pos_] == '*' && peek(1) == '/')) advance();
        if (at_end()) fail("unterminated block comment");
        pos_ += 2;
      } else {
        break;
      }
    }
  }

  void next_token() {
    const int line = line_;
    const int col = column();
    const char c = src_[pos_];
    if (c == '#') return preprocessor_line(line, col);
    if (is(c, kIdentStart)) return identifier(line, col);
    if (is(c, kDigit) || (c == '.' && is(peek(1), kDigit))) return number(line, col);
    if (c == '"') return string_literal(line, col);
    if (c == '\'') return char_literal(line, col);
    punct(line, col);
  }

  /// A "#pragma" line becomes one token; every other directive is skipped.
  /// A backslash before the line break (LF or CR LF) splices the next line
  /// on as one space, written over the consumed bytes.
  void preprocessor_line(int line, int col) {
    ++pos_;  // '#'
    const std::size_t start = pos_;
    std::size_t end = pos_;  // end of the spliced text
    while (!at_end() && src_[pos_] != '\n') {
      if (src_[pos_] == '\\') {
        const std::size_t eol = peek(1) == '\r' ? 2 : 1;
        if (peek(eol) == '\n') {
          for (std::size_t i = 0; i <= eol; ++i) advance();
          src_[end++] = ' ';
          continue;
        }
      }
      src_[end++] = src_[pos_++];
    }
    const std::string_view text = trim(std::string_view(src_ + start, end - start));
    if (starts_with(text, "pragma")) push(TokenKind::kPragma, TokenId::kNone, text, line, col);
  }

  void identifier(int line, int col) {
    const std::size_t start = pos_;
    while (!at_end() && is(src_[pos_], kIdentStart | kDigit)) ++pos_;
    const std::string_view text(src_ + start, pos_ - start);
    if (const Word* word = find_word(text)) {
      push(word->kind, word->id, text, line, col);
    } else {
      push(TokenKind::kIdentifier, TokenId::kNone, text, line, col);
    }
  }

  void skip_digits(std::uint8_t digits) {
    while (!at_end() && is(src_[pos_], digits)) ++pos_;
  }

  void number(int line, int col) {
    const std::size_t start = pos_;
    bool is_float = false;
    if (src_[pos_] == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      pos_ += 2;
      skip_digits(kHexDigit);
    } else {
      skip_digits(kDigit);
      if (peek() == '.') {
        is_float = true;
        ++pos_;
        skip_digits(kDigit);
      }
      if (peek() == 'e' || peek() == 'E') {
        is_float = true;
        ++pos_;
        if (peek() == '+' || peek() == '-') ++pos_;
        if (!is(peek(), kDigit)) fail("bad exponent");
        skip_digits(kDigit);
      }
    }
    const std::string_view text(src_ + start, pos_ - start);
    // Suffixes (u, l, f) are consumed but not recorded in the value text.
    for (char c = peek(); c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'f' ||
                          c == 'F';
         c = peek()) {
      is_float = is_float || c == 'f' || c == 'F';
      ++pos_;
    }
    push(is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral, TokenId::kNone, text,
         line, col);
  }

  /// The text is the body between the quotes, escapes as written.
  void string_literal(int line, int col) {
    const std::size_t start = ++pos_;  // past the opening quote
    while (!at_end() && src_[pos_] != '"') {
      if (src_[pos_] == '\\') ++pos_;
      if (at_end()) break;
      if (src_[pos_] == '\n') fail("newline in string literal");
      ++pos_;
    }
    if (at_end()) fail("unterminated string literal");
    const std::string_view text(src_ + start, pos_ - start);
    ++pos_;  // closing quote
    push(TokenKind::kStringLiteral, TokenId::kNone, text, line, col);
  }

  void char_literal(int line, int col) {
    const std::size_t start = ++pos_;  // past the opening quote
    while (!at_end() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\') advance();
      if (at_end()) break;
      advance();
    }
    if (at_end()) fail("unterminated char literal");
    const std::string_view text(src_ + start, pos_ - start);
    ++pos_;  // closing quote
    if (text.empty()) fail("empty char literal");
    push(TokenKind::kCharLiteral, TokenId::kNone, text, line, col);
  }

  void punct(int line, int col) {
    const char c = src_[pos_];
    const std::string_view rest(src_ + pos_, size_ - pos_);
    for (std::size_t i = kFirstPunct[static_cast<unsigned char>(c)];
         i < std::size(kPuncts) && kPuncts[i].spelling[0] == c; ++i) {
      const Punct& p = kPuncts[i];
      if (!rest.starts_with(p.spelling)) continue;
      push(TokenKind::kPunct, p.id, rest.substr(0, p.spelling.size()), line, col);
      pos_ += p.spelling.size();
      return;
    }
    advance();
    fail(std::string("unexpected character '") + c + "'");
  }

  char* src_;
  std::size_t size_;
  std::vector<Token>& out_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;  // offset of the current line's first byte
  int line_ = 1;
};

}  // namespace

std::string_view spelling(TokenId id) {
  for (const Punct& p : kPuncts)
    if (p.id == id) return p.spelling;
  for (const Word& w : kWords)
    if (w.id == id && w.kind == TokenKind::kKeyword) return w.spelling;
  return {};
}

void lex_into(std::span<char> source, std::vector<Token>& out) { Lexer(source, out).run(); }

std::optional<long long> int_literal_value(std::string_view text) {
  while (!text.empty() && std::string_view("uUlL").find(text.back()) != std::string_view::npos)
    text.remove_suffix(1);
  int base = 10;
  if (text.size() > 1 && text[0] == '0') {
    const bool hex = text[1] == 'x' || text[1] == 'X';
    base = hex ? 16 : 8;
    text.remove_prefix(hex ? 2 : 1);
  }
  unsigned long long value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || error != std::errc{} || stop != end ||
      value > static_cast<unsigned long long>(LLONG_MAX))
    return std::nullopt;
  return static_cast<long long>(value);
}

TokenList lex(std::string_view source) {
  TokenList list;
  list.source_.reset(new char[source.size()]);
  std::copy(source.begin(), source.end(), list.source_.get());
  lex_into({list.source_.get(), source.size()}, list.tokens_);
  return list;
}

}  // namespace clpp::frontend
