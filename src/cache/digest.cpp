#include "cache/digest.h"

namespace clpp::cache {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// splitmix64 finalizer: a full-avalanche mix so rendezvous scores for
/// adjacent slots are uncorrelated.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The lexer's whitespace (frontend/lexer.cpp); any other byte, '\f' and
/// '\v' included, is part of a token.
bool is_lexer_space(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

}  // namespace

std::string normalize_snippet(const std::string& code) {
  // Lexical state, tracked the way frontend::lex does: whitespace is only
  // insignificant between tokens and inside comments.
  enum class State { kCode, kString, kChar, kLineComment, kBlockComment, kDirective };
  State state = State::kCode;
  std::string out;
  out.reserve(code.size());
  char pending = '\0';  // the ' ' or '\n' a whitespace run leaves behind
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    const char next = i + 1 < code.size() ? code[i + 1] : '\0';
    if (state == State::kString || state == State::kChar) {
      // Literal bytes are kept verbatim; an escape keeps the next byte too.
      out.push_back(c);
      if (c == '\\' && i + 1 < code.size())
        out.push_back(code[++i]);
      else if (c == (state == State::kString ? '"' : '\''))
        state = State::kCode;
      continue;
    }
    // A backslash before the line break (LF or CR LF) splices a directive.
    const std::size_t eol = next == '\r' ? 2 : 1;
    const bool splice = state == State::kDirective && c == '\\' &&
                        i + eol < code.size() && code[i + eol] == '\n';
    if (splice || is_lexer_space(c)) {
      if (splice) i += eol;  // a spliced directive line reads as one space
      if (c == '\n' && (state == State::kLineComment || state == State::kDirective)) {
        pending = '\n';  // the newline ending a `//` comment or `#` line
        state = State::kCode;
      } else if (pending != '\n' && !out.empty()) {  // leading runs are dropped
        pending = ' ';
      }
      continue;
    }
    if (pending != '\0') {
      out.push_back(pending);
      pending = '\0';
    }
    out.push_back(c);
    if (state == State::kBlockComment) {
      if (c == '*' && next == '/') {
        out.push_back(code[++i]);
        state = State::kCode;
      }
    } else if (state == State::kCode) {
      if (c == '"') {
        state = State::kString;
      } else if (c == '\'') {
        state = State::kChar;
      } else if (c == '#') {
        state = State::kDirective;
      } else if (c == '/' && (next == '/' || next == '*')) {
        out.push_back(code[++i]);
        state = next == '/' ? State::kLineComment : State::kBlockComment;
      }
    }
  }
  return out;
}

std::uint64_t fnv1a64(const char* data, std::size_t len) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t snippet_digest(const std::string& code) {
  const std::string canon = normalize_snippet(code);
  const std::uint64_t hash = fnv1a64(canon.data(), canon.size());
  return hash == 0 ? kFnvOffset : hash;  // 0 is reserved for "no digest"
}

std::uint64_t rendezvous_score(std::uint64_t key, std::uint64_t slot) {
  return mix64(key ^ mix64(slot));
}

}  // namespace clpp::cache
