#include "frontend/parser.h"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "frontend/lexer.h"
#include "support/error.h"

namespace clpp::frontend {

namespace {

/// What a parse reuses from the last one on its thread: the token array,
/// the stack child lists gather on before they move into the arena, and
/// the buffer type names are spelled in. Capacity carries over, so a warm
/// thread parses without touching the heap for them.
struct Scratch {
  std::vector<Token> tokens;
  std::vector<const Node*> pending;
  std::string type;
};

thread_local Scratch t_scratch;

// A scratch token array past this many entries is released after the parse
// rather than kept for the next one.
constexpr std::size_t kKeptTokens = std::size_t{1} << 16;

/// Arena bytes a parse of `source_bytes` is expected to need: the source
/// copy, plus nodes and child arrays at the rate loop snippets show.
std::size_t arena_estimate(std::size_t source_bytes) { return 32 * source_bytes + 256; }

bool starts_type(TokenId id) {
  switch (id) {
    case TokenId::kVoid:
    case TokenId::kChar:
    case TokenId::kShort:
    case TokenId::kInt:
    case TokenId::kLong:
    case TokenId::kFloat:
    case TokenId::kDouble:
    case TokenId::kSigned:
    case TokenId::kUnsigned:
    case TokenId::kConst:
    case TokenId::kStatic:
    case TokenId::kStruct:
    case TokenId::kUnion:
    case TokenId::kEnum:
    case TokenId::kRegister:
    case TokenId::kVolatile:
    case TokenId::kExtern:
    case TokenId::kInline:
    case TokenId::kSizeT:
    case TokenId::kTypedefName:
      return true;
    default:
      return false;
  }
}

bool is_assignment(TokenId id) {
  switch (id) {
    case TokenId::kAssign:
    case TokenId::kPlusAssign:
    case TokenId::kMinusAssign:
    case TokenId::kStarAssign:
    case TokenId::kSlashAssign:
    case TokenId::kPercentAssign:
    case TokenId::kAmpAssign:
    case TokenId::kPipeAssign:
    case TokenId::kCaretAssign:
    case TokenId::kShiftLeftAssign:
    case TokenId::kShiftRightAssign:
      return true;
    default:
      return false;
  }
}

/// Precedence level of a binary operator in C's table (|| lowest), or -1.
int binary_level(TokenId id) {
  switch (id) {
    case TokenId::kPipePipe: return 0;
    case TokenId::kAmpAmp: return 1;
    case TokenId::kPipe: return 2;
    case TokenId::kCaret: return 3;
    case TokenId::kAmp: return 4;
    case TokenId::kEqual:
    case TokenId::kNotEqual: return 5;
    case TokenId::kLess:
    case TokenId::kGreater:
    case TokenId::kLessEqual:
    case TokenId::kGreaterEqual: return 6;
    case TokenId::kShiftLeft:
    case TokenId::kShiftRight: return 7;
    case TokenId::kPlus:
    case TokenId::kMinus: return 8;
    case TokenId::kStar:
    case TokenId::kSlash:
    case TokenId::kPercent: return 9;
    default: return -1;
  }
}

class Parser {
 public:
  Parser(Scratch& scratch, Arena& arena)
      : tokens_(scratch.tokens.data()),
        last_(scratch.tokens.size() - 1),
        pending_(scratch.pending),
        type_(scratch.type),
        arena_(arena) {
    // Every pending child holds at least one token, so this is room enough
    // for any list the parse gathers.
    pending_.clear();
    pending_.reserve(scratch.tokens.size());
  }

  const Node* program() {
    Node* unit = make(NodeKind::kTranslationUnit, 0, 0);
    const std::size_t mark = pending_.size();
    while (!peek().is(TokenKind::kEnd)) pending_.push_back(item());
    return adopt(unit, mark);
  }

  const Node* single_expression() {
    const Node* e = expression();
    if (!peek().is(TokenKind::kEnd)) fail("trailing tokens after expression");
    return e;
  }

 private:
  /// Counts one level of nesting for as long as it lives.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxNesting) parser_.fail_too_deep();
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  // --- token plumbing -----------------------------------------------------

  const Token& peek(std::size_t ahead = 0) const {
    return tokens_[std::min(pos_ + ahead, last_)];
  }

  const Token& advance() { return tokens_[std::min(pos_++, last_)]; }

  bool accept(TokenId id) {
    if (peek().id != id) return false;
    advance();
    return true;
  }

  const Token& expect(TokenId id) {
    if (peek().id != id) fail("expected '" + std::string(spelling(id)) + "'");
    return advance();
  }

  [[noreturn]] void fail(const std::string& why) const {
    const Token& t = peek();
    throw ParseError("parse error at " + std::to_string(t.line) + ":" +
                     std::to_string(t.column) + ": " + why + " (found " +
                     token_kind_name(t.kind) + " '" + std::string(t.text) + "')");
  }

  [[noreturn]] void fail_too_deep() const {
    fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
  }

  bool starts_type(std::size_t ahead = 0) const {
    return frontend::starts_type(peek(ahead).id);
  }

  // --- tree building --------------------------------------------------------

  Node* make(NodeKind kind, int line, int column, Text text = {}, Text aux = {}) {
    return new (arena_.allocate(sizeof(Node), alignof(Node)))
        Node(kind, line, column, text, aux);
  }

  Node* make(NodeKind kind, const Token& at, Text text = {}, Text aux = {}) {
    return make(kind, at.line, at.column, text, aux);
  }

  /// Gives `node` the children `kids`, in order.
  const Node* adopt(Node* node, std::initializer_list<const Node*> kids) {
    return adopt(node, kids.begin(), kids.size());
  }

  /// Gives `node` the children pending above `mark`, in order, and pops them.
  const Node* adopt(Node* node, std::size_t mark) {
    adopt(node, pending_.data() + mark, pending_.size() - mark);
    pending_.resize(mark);
    return node;
  }

  const Node* adopt(Node* node, const Node* const* kids, std::size_t n) {
    if (n == 0) return node;
    const Node** children = arena_.allocate_array<const Node*>(n);
    std::uint32_t height = 0;
    for (std::size_t i = 0; i < n; ++i) {
      children[i] = kids[i];
      height = std::max(height, kids[i]->height);
    }
    if (height >= static_cast<std::uint32_t>(kMaxNesting)) fail_too_deep();
    node->children = {children, n};
    node->height = height + 1;
    return node;
  }

  /// `base` followed by `times` copies of `suffix`, in the arena.
  Text extend(Text base, std::string_view suffix, std::size_t times) {
    if (times == 0) return base;
    const std::size_t size = base.size() + suffix.size() * times;
    char* text = arena_.allocate_array<char>(size);
    std::copy(base.begin(), base.end(), text);
    for (std::size_t i = 0; i < times; ++i)
      std::copy(suffix.begin(), suffix.end(), text + base.size() + i * suffix.size());
    return {text, size};
  }

  // --- type recognition ----------------------------------------------------

  /// Consumes type specifiers and pointer stars; returns the type spelling.
  Text parse_type() {
    type_.clear();
    const Token* only = nullptr;  // the one token, when the type is one word
    while (starts_type()) {
      const Token& t = advance();
      only = type_.empty() ? &t : nullptr;
      if (!type_.empty()) type_ += ' ';
      type_ += t.text;
      if ((t.is(TokenId::kStruct) || t.is(TokenId::kUnion) || t.is(TokenId::kEnum)) &&
          peek().is(TokenKind::kIdentifier)) {
        type_ += ' ';
        type_ += advance().text;
        only = nullptr;
      }
    }
    if (type_.empty()) fail("expected a type");
    if (only != nullptr && !peek().is(TokenId::kStar)) return only->text;
    while (accept(TokenId::kStar)) type_ += '*';
    return arena_.store(type_);
  }

  /// `base` with the pointer stars that follow.
  Text pointer_type(Text base) {
    std::size_t stars = 0;
    while (accept(TokenId::kStar)) ++stars;
    return extend(base, "*", stars);
  }

  // --- external and block items ----------------------------------------------

  const Node* item() {
    if (peek().is(TokenKind::kPragma)) return pragma();
    if (starts_type()) return declaration_or_function();
    return statement();  // snippet mode: bare statements allowed at top level
  }

  const Node* pragma() {
    const Token& t = advance();
    return make(NodeKind::kPragma, t, t.text);
  }

  /// Parses after a type has been recognized: either a function definition
  /// / prototype or a (possibly multi-declarator) declaration.
  const Node* declaration_or_function() {
    const int line = peek().line;
    const int column = peek().column;
    const Text base_type = parse_type();

    // `struct X { ... };` definition without declarator.
    if ((base_type.starts_with("struct") || base_type.starts_with("union")) &&
        peek().is(TokenId::kLBrace)) {
      Node* def = make(NodeKind::kDecl, line, column, base_type, "struct-def");
      advance();  // '{'
      const std::size_t mark = pending_.size();
      while (!peek().is(TokenId::kRBrace)) {
        if (peek().is(TokenKind::kEnd)) fail("unterminated struct body");
        pending_.push_back(member(parse_type()));
        expect(TokenId::kSemicolon);
      }
      advance();  // '}'
      accept(TokenId::kSemicolon);
      return adopt(def, mark);
    }

    if (!peek().is(TokenKind::kIdentifier)) fail("expected declarator name");
    const Text name = advance().text;

    if (peek().is(TokenId::kLParen)) return function_rest(base_type, name, line, column);

    const Node* decl = declarator_rest(base_type, name, line, column);
    if (peek().is(TokenId::kComma)) {
      // Multi-declarator declaration: wrap in an ExprList of Decls so the
      // statement position holds a single node.
      Node* list = make(NodeKind::kExprList, line, column);
      const std::size_t mark = pending_.size();
      pending_.push_back(decl);
      while (accept(TokenId::kComma)) {
        const Text type = pointer_type(base_type);
        if (!peek().is(TokenKind::kIdentifier)) fail("expected declarator name");
        const Text next_name = advance().text;
        pending_.push_back(declarator_rest(type, next_name, line, column));
      }
      expect(TokenId::kSemicolon);
      return adopt(list, mark);
    }
    expect(TokenId::kSemicolon);
    return decl;
  }

  /// One struct member declarator sharing the member list's base type.
  const Node* member(Text base_type) {
    const int line = peek().line;
    const int column = peek().column;
    const Text type = pointer_type(base_type);
    if (!peek().is(TokenKind::kIdentifier)) fail("expected member name");
    const Text name = advance().text;
    return declarator_rest(type, name, line, column, /*allow_init=*/false);
  }

  /// Array dimensions and optional initializer after the declarator name.
  const Node* declarator_rest(Text type, Text name, int line, int column,
                              bool allow_init = true) {
    Node* decl = make(NodeKind::kDecl, line, column, name);
    const std::size_t mark = pending_.size();
    std::size_t dims = 0;
    while (accept(TokenId::kLBracket)) {
      ++dims;
      pending_.push_back(peek().is(TokenId::kRBracket) ? make(NodeKind::kEmpty, 0, 0)
                                                       : expression());
      expect(TokenId::kRBracket);
    }
    decl->aux = extend(type, "[]", dims);
    if (allow_init && accept(TokenId::kAssign)) pending_.push_back(initializer());
    return adopt(decl, mark);
  }

  /// `{1, 2, 3}` initializers become ExprList; otherwise an assignment expr.
  const Node* initializer() {
    if (!peek().is(TokenId::kLBrace)) return assignment_expression();
    const Nest nest(*this);
    advance();
    Node* list = make(NodeKind::kExprList, 0, 0);
    const std::size_t mark = pending_.size();
    if (!peek().is(TokenId::kRBrace)) {
      pending_.push_back(initializer());
      while (accept(TokenId::kComma)) {
        if (peek().is(TokenId::kRBrace)) break;  // trailing comma
        pending_.push_back(initializer());
      }
    }
    expect(TokenId::kRBrace);
    return adopt(list, mark);
  }

  const Node* function_rest(Text return_type, Text name, int line, int column) {
    const Nest nest(*this);  // a helper defined inside a block nests too
    expect(TokenId::kLParen);
    Node* params = make(NodeKind::kExprList, 0, 0);
    const std::size_t mark = pending_.size();
    if (!peek().is(TokenId::kRParen)) {
      if (peek().is(TokenId::kVoid) && peek(1).is(TokenId::kRParen)) {
        advance();
      } else {
        pending_.push_back(parameter());
        while (accept(TokenId::kComma)) pending_.push_back(parameter());
      }
    }
    expect(TokenId::kRParen);
    adopt(params, mark);

    Node* fn = make(NodeKind::kFuncDef, line, column, name, return_type);
    // A prototype is a FuncDef with no body (aux keeps the return type).
    if (accept(TokenId::kSemicolon)) return adopt(fn, {params, make(NodeKind::kEmpty, 0, 0)});
    return adopt(fn, {params, compound()});
  }

  const Node* parameter() {
    const int line = peek().line;
    const int column = peek().column;
    const Text type = parse_type();
    Text name;
    if (peek().is(TokenKind::kIdentifier)) name = advance().text;
    Node* decl = make(NodeKind::kDecl, line, column, name);
    const std::size_t mark = pending_.size();
    std::size_t dims = 0;
    while (accept(TokenId::kLBracket)) {
      ++dims;
      if (!peek().is(TokenId::kRBracket)) pending_.push_back(expression());
      expect(TokenId::kRBracket);
    }
    decl->aux = extend(type, "[]", dims);
    return adopt(decl, mark);
  }

  // --- statements ------------------------------------------------------------

  const Node* compound() {
    const Token& open = expect(TokenId::kLBrace);
    Node* block = make(NodeKind::kCompound, open);
    const std::size_t mark = pending_.size();
    while (!peek().is(TokenId::kRBrace)) {
      if (peek().is(TokenKind::kEnd)) fail("unterminated block");
      pending_.push_back(item());
    }
    advance();
    return adopt(block, mark);
  }

  const Node* statement() {
    const Nest nest(*this);
    const Token& t = peek();
    switch (t.id) {
      case TokenId::kLBrace:
        return compound();
      case TokenId::kSemicolon:
        advance();
        return make(NodeKind::kEmpty, t);
      case TokenId::kIf:
        return if_statement();
      case TokenId::kFor:
        return for_statement();
      case TokenId::kWhile:
        return while_statement();
      case TokenId::kDo:
        return do_statement();
      case TokenId::kReturn: {
        advance();
        Node* ret = make(NodeKind::kReturn, t);
        if (peek().is(TokenId::kSemicolon)) {
          advance();
          return ret;
        }
        const Node* value = expression();
        expect(TokenId::kSemicolon);
        return adopt(ret, {value});
      }
      case TokenId::kBreak:
      case TokenId::kContinue:
        advance();
        expect(TokenId::kSemicolon);
        return make(t.is(TokenId::kBreak) ? NodeKind::kBreak : NodeKind::kContinue, t);
      case TokenId::kGoto: {
        advance();
        if (!peek().is(TokenKind::kIdentifier)) fail("expected label after goto");
        const Node* jump = make(NodeKind::kGoto, t, advance().text);
        expect(TokenId::kSemicolon);
        return jump;
      }
      default:
        break;
    }
    if (t.is(TokenKind::kPragma)) return pragma();
    // Label: identifier ':' (not inside a ternary).
    if (t.is(TokenKind::kIdentifier) && peek(1).is(TokenId::kColon)) {
      Node* label = make(NodeKind::kLabel, t, advance().text);
      advance();  // ':'
      return adopt(label, {statement()});
    }
    // Expression statement.
    Node* stmt = make(NodeKind::kExprStmt, t);
    const Node* expr = comma_expression();
    expect(TokenId::kSemicolon);
    return adopt(stmt, {expr});
  }

  const Node* if_statement() {
    const Token& kw = advance();  // 'if'
    expect(TokenId::kLParen);
    Node* node = make(NodeKind::kIf, kw);
    const Node* cond = comma_expression();
    expect(TokenId::kRParen);
    const Node* then = statement();
    if (accept(TokenId::kElse)) return adopt(node, {cond, then, statement()});
    return adopt(node, {cond, then});
  }

  const Node* for_statement() {
    const Token& kw = advance();  // 'for'
    expect(TokenId::kLParen);
    Node* node = make(NodeKind::kFor, kw);
    const Node* init = nullptr;
    if (accept(TokenId::kSemicolon)) {
      init = make(NodeKind::kEmpty, 0, 0);
    } else if (starts_type()) {
      const Text type = parse_type();
      if (!peek().is(TokenKind::kIdentifier)) fail("expected loop variable name");
      const Text name = advance().text;
      init = declarator_rest(type, name, kw.line, kw.column);
      expect(TokenId::kSemicolon);
    } else {
      init = comma_expression();
      expect(TokenId::kSemicolon);
    }
    const Node* cond =
        peek().is(TokenId::kSemicolon) ? make(NodeKind::kEmpty, 0, 0) : comma_expression();
    expect(TokenId::kSemicolon);
    const Node* next =
        peek().is(TokenId::kRParen) ? make(NodeKind::kEmpty, 0, 0) : comma_expression();
    expect(TokenId::kRParen);
    return adopt(node, {init, cond, next, statement()});
  }

  const Node* while_statement() {
    const Token& kw = advance();  // 'while'
    expect(TokenId::kLParen);
    Node* node = make(NodeKind::kWhile, kw);
    const Node* cond = comma_expression();
    expect(TokenId::kRParen);
    return adopt(node, {cond, statement()});
  }

  const Node* do_statement() {
    const Token& kw = advance();  // 'do'
    Node* node = make(NodeKind::kDoWhile, kw);
    const Node* body = statement();
    if (!accept(TokenId::kWhile)) fail("expected 'while' after do body");
    expect(TokenId::kLParen);
    const Node* cond = comma_expression();
    expect(TokenId::kRParen);
    expect(TokenId::kSemicolon);
    return adopt(node, {body, cond});
  }

  // --- expressions -------------------------------------------------------------

  /// expr (',' expr)* — multiple expressions become an ExprList.
  const Node* comma_expression() {
    const Node* first = expression();
    if (!peek().is(TokenId::kComma)) return first;
    Node* list = make(NodeKind::kExprList, 0, 0);
    const std::size_t mark = pending_.size();
    pending_.push_back(first);
    while (accept(TokenId::kComma)) pending_.push_back(expression());
    return adopt(list, mark);
  }

  const Node* expression() { return assignment_expression(); }

  const Node* assignment_expression() {
    const Node* lhs = ternary_expression();
    if (!is_assignment(peek().id)) return lhs;
    const Nest nest(*this);
    const Token& op = advance();
    Node* node = make(NodeKind::kAssignment, op, op.text);
    return adopt(node, {lhs, assignment_expression()});  // right-assoc
  }

  const Node* ternary_expression() {
    const Node* cond = binary_expression(0);
    if (!accept(TokenId::kQuestion)) return cond;
    const Nest nest(*this);
    Node* node = make(NodeKind::kTernaryOp, 0, 0);
    const Node* then = comma_expression();
    expect(TokenId::kColon);
    return adopt(node, {cond, then, ternary_expression()});
  }

  /// Precedence climbing over C's binary operator table.
  const Node* binary_expression(int min_level) {
    const Node* lhs = unary_expression();
    while (true) {
      const int level = binary_level(peek().id);
      if (level < min_level) return lhs;
      const Token& op = advance();
      Node* node = make(NodeKind::kBinaryOp, op, op.text);
      lhs = adopt(node, {lhs, binary_expression(level + 1)});
    }
  }

  const Node* unary_expression() {
    const Nest nest(*this);
    const Token& t = peek();
    switch (t.id) {
      case TokenId::kPlusPlus:
      case TokenId::kMinusMinus:
      case TokenId::kPlus:
      case TokenId::kMinus:
      case TokenId::kBang:
      case TokenId::kTilde:
      case TokenId::kStar:
      case TokenId::kAmp: {
        advance();
        Node* node = make(NodeKind::kUnaryOp, t, t.text);
        return adopt(node, {unary_expression()});
      }
      case TokenId::kSizeof: {
        advance();
        Node* node = make(NodeKind::kSizeof, t);
        if (!peek().is(TokenId::kLParen) || !starts_type(1))
          return adopt(node, {unary_expression()});
        advance();
        const Text type = parse_type();
        std::size_t dims = 0;
        while (accept(TokenId::kLBracket)) {  // sizeof(int[4]) — rare but cheap
          ++dims;
          if (!peek().is(TokenId::kRBracket)) expression();
          expect(TokenId::kRBracket);
        }
        expect(TokenId::kRParen);
        node->text = extend(type, "[]", dims);
        return node;
      }
      case TokenId::kLParen: {
        if (!starts_type(1)) break;
        advance();  // a cast: '(' type ')'
        const Text type = parse_type();
        expect(TokenId::kRParen);
        Node* node = make(NodeKind::kCast, t, type);
        return adopt(node, {unary_expression()});
      }
      default:
        break;
    }
    return postfix_expression();
  }

  const Node* postfix_expression() {
    const Node* node = primary_expression();
    while (true) {
      const Token& t = peek();
      switch (t.id) {
        case TokenId::kLBracket: {
          advance();
          Node* ref = make(NodeKind::kArrayRef, t);
          const Node* index = comma_expression();
          expect(TokenId::kRBracket);
          node = adopt(ref, {node, index});
          break;
        }
        case TokenId::kLParen: {
          advance();
          Node* call = make(NodeKind::kFuncCall, t);
          Node* args = make(NodeKind::kExprList, 0, 0);
          const std::size_t mark = pending_.size();
          if (!peek().is(TokenId::kRParen)) {
            pending_.push_back(expression());
            while (accept(TokenId::kComma)) pending_.push_back(expression());
          }
          expect(TokenId::kRParen);
          node = adopt(call, {node, adopt(args, mark)});
          break;
        }
        case TokenId::kDot:
        case TokenId::kArrow: {
          advance();
          if (!peek().is(TokenKind::kIdentifier)) fail("expected member name");
          Node* ref = make(NodeKind::kStructRef, t, t.text);
          node = adopt(ref, {node, make(NodeKind::kID, 0, 0, advance().text)});
          break;
        }
        case TokenId::kPlusPlus:
        case TokenId::kMinusMinus: {
          advance();
          // pycparser spells postfix operators "p++" / "p--".
          Node* op = make(NodeKind::kUnaryOp, t, t.is(TokenId::kPlusPlus) ? "p++" : "p--");
          node = adopt(op, {node});
          break;
        }
        default:
          return node;
      }
    }
  }

  const Node* primary_expression() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kIdentifier:
        advance();
        return make(NodeKind::kID, t, t.text);
      case TokenKind::kIntLiteral:
        advance();
        return make(NodeKind::kConstant, t, t.text, "int");
      case TokenKind::kFloatLiteral:
        advance();
        return make(NodeKind::kConstant, t, t.text, "float");
      case TokenKind::kCharLiteral:
        advance();
        return make(NodeKind::kConstant, t, t.text, "char");
      case TokenKind::kStringLiteral:
        advance();
        return make(NodeKind::kConstant, t, t.text, "string");
      case TokenKind::kPunct:
        if (t.is(TokenId::kLParen)) {
          advance();
          const Node* inner = comma_expression();
          expect(TokenId::kRParen);
          return inner;
        }
        break;
      default:
        break;
    }
    fail("expected an expression");
  }

  const Token* tokens_;
  std::size_t last_;  // index of the end token
  std::size_t pos_ = 0;
  int depth_ = 0;  // open Nest levels
  std::vector<const Node*>& pending_;
  std::string& type_;
  Arena& arena_;
};

/// One parse: the source is copied into the tree's arena (tokens and node
/// text view that copy), lexed into the thread's scratch, then parsed.
NodePtr parse(std::string_view source, bool expression_only) {
  Scratch& scratch = t_scratch;
  struct ReleaseLargeScratch {
    Scratch& scratch;
    ~ReleaseLargeScratch() {
      if (scratch.tokens.capacity() <= kKeptTokens) return;
      std::vector<Token>().swap(scratch.tokens);
      std::vector<const Node*>().swap(scratch.pending);
    }
  } release{scratch};

  Arena arena;
  arena.reserve(arena_estimate(source.size()));
  char* copy = arena.allocate_array<char>(source.size());
  std::copy(source.begin(), source.end(), copy);
  lex_into({copy, source.size()}, scratch.tokens);
  Parser parser(scratch, arena);
  const Node* root = expression_only ? parser.single_expression() : parser.program();
  return NodePtr(std::move(arena), root);
}

}  // namespace

NodePtr parse_program(std::string_view source) { return parse(source, false); }

NodePtr parse_snippet(std::string_view source) { return parse(source, false); }

NodePtr parse_expression(std::string_view source) { return parse(source, true); }

}  // namespace clpp::frontend
