#include "frontend/printer.h"

#include <sstream>

#include "support/strings.h"

namespace clpp::frontend {

namespace {

void append_list(const Node& list, std::string& out);

/// Appends `node` to `out`; a non-`top` operator is parenthesized.
void append_expr(const Node& node, bool top, std::string& out) {
  switch (node.kind) {
    case NodeKind::kID:
      out += node.text;
      return;
    case NodeKind::kConstant: {
      const char quote = node.aux == "string" ? '"' : node.aux == "char" ? '\'' : 0;
      if (quote != 0) out += quote;
      out += node.text;
      if (quote != 0) out += quote;
      return;
    }
    case NodeKind::kAssignment:
    case NodeKind::kBinaryOp:
      if (!top) out += '(';
      append_expr(node.child(0), false, out);
      out += ' ';
      out += node.text;
      out += ' ';
      append_expr(node.child(1), false, out);
      if (!top) out += ')';
      return;
    case NodeKind::kUnaryOp:
      if (node.text == "p++" || node.text == "p--") {
        append_expr(node.child(0), false, out);
        out += node.text.substr(1);
        return;
      }
      if (!top) out += '(';
      out += node.text;
      append_expr(node.child(0), false, out);
      if (!top) out += ')';
      return;
    case NodeKind::kTernaryOp:
      out += '(';
      append_expr(node.child(0), false, out);
      out += " ? ";
      append_expr(node.child(1), false, out);
      out += " : ";
      append_expr(node.child(2), false, out);
      out += ')';
      return;
    case NodeKind::kArrayRef:
      append_expr(node.child(0), false, out);
      out += '[';
      append_expr(node.child(1), true, out);
      out += ']';
      return;
    case NodeKind::kFuncCall:
      append_expr(node.child(0), false, out);
      out += '(';
      append_list(node.child(1), out);
      out += ')';
      return;
    case NodeKind::kExprList:
      if (!top) out += '(';
      append_list(node, out);
      if (!top) out += ')';
      return;
    case NodeKind::kStructRef:
      append_expr(node.child(0), false, out);
      out += node.text;
      out += node.child(1).text;
      return;
    case NodeKind::kCast:
      out += '(';
      out += node.text;
      out += ") ";
      append_expr(node.child(0), false, out);
      return;
    case NodeKind::kSizeof:
      out += "sizeof(";
      if (node.children.empty())
        out += node.text;
      else
        append_expr(node.child(0), true, out);
      out += ')';
      return;
    case NodeKind::kEmpty:
      return;
    default:
      out += "/* " + node_kind_name(node.kind) + " */";
      return;
  }
}

/// Appends `list`'s items, comma-separated, each printed as a top level.
void append_list(const Node& list, std::string& out) {
  for (std::size_t i = 0; i < list.children.size(); ++i) {
    if (i) out += ", ";
    append_expr(list.child(i), true, out);
  }
}

/// Pretty-printer with parenthesization driven by re-parse safety: all
/// nested binary/ternary operands are parenthesized unless they are atoms.
/// The output is valid C that round-trips through the parser (possibly with
/// extra parentheses, which the AST does not record).
class Printer {
 public:
  std::string statement(const Node& node, int indent) {
    std::ostringstream os;
    stmt(os, node, indent);
    return os.str();
  }

 private:
  static std::string pad(int indent) {
    return repeated("    ", static_cast<std::size_t>(indent));
  }

  /// Splits "int[][]" style aux strings into base type and dimension count.
  static std::string_view base_type(std::string_view aux) {
    return aux.substr(0, aux.find("[]"));
  }

  std::string decl_text(const Node& node) {
    // Decl: text=name, aux=type with one "[]" per dimension; dimension
    // expressions are leading children, optional init is the last child.
    const std::size_t dims = count_dims(node.aux);
    std::ostringstream os;
    os << base_type(node.aux) << ' ' << node.text;
    for (std::size_t i = 0; i < dims; ++i) {
      os << '[';
      if (i < node.children.size() &&
          node.children[i]->kind != NodeKind::kEmpty)
        os << expr(*node.children[i], true);
      os << ']';
    }
    if (node.children.size() == dims + 1)
      os << " = " << expr(*node.children[dims], true);
    return os.str();
  }

  static std::size_t count_dims(std::string_view aux) {
    std::size_t n = 0;
    for (std::size_t pos = aux.find("[]"); pos != std::string::npos;
         pos = aux.find("[]", pos + 2))
      ++n;
    return n;
  }

  void stmt(std::ostringstream& os, const Node& node, int indent) {
    switch (node.kind) {
      case NodeKind::kTranslationUnit:
        for (const Node* c : node.children) stmt(os, *c, indent);
        return;
      case NodeKind::kFuncDef: {
        os << pad(indent) << node.aux << ' ' << node.text << '(';
        const Node& params = node.child(0);
        for (std::size_t i = 0; i < params.children.size(); ++i) {
          if (i) os << ", ";
          os << decl_text(params.child(i));
        }
        os << ')';
        if (node.children.size() > 1 && node.child(1).kind == NodeKind::kCompound) {
          os << '\n';
          stmt(os, node.child(1), indent);
        } else {
          os << ";\n";
        }
        return;
      }
      case NodeKind::kCompound:
        os << pad(indent) << "{\n";
        for (const Node* c : node.children) stmt(os, *c, indent + 1);
        os << pad(indent) << "}\n";
        return;
      case NodeKind::kDecl:
        os << pad(indent) << decl_text(node) << ";\n";
        return;
      case NodeKind::kExprList:
        // Statement-position ExprList: multi-declarator declaration.
        if (!node.children.empty() && node.child(0).kind == NodeKind::kDecl) {
          os << pad(indent);
          for (std::size_t i = 0; i < node.children.size(); ++i) {
            if (i) os << ", ";
            if (i == 0) {
              os << decl_text(node.child(i));
            } else {
              // Subsequent declarators share the base type; re-emit name+init.
              const Node& d = node.child(i);
              os << d.text;
              if (!d.children.empty())
                os << " = " << expr(*d.children.back(), true);
            }
          }
          os << ";\n";
          return;
        }
        os << pad(indent) << expr(node, true) << ";\n";
        return;
      case NodeKind::kFor: {
        os << pad(indent) << "for (";
        const Node& init = node.child(0);
        if (init.kind == NodeKind::kDecl) {
          os << decl_text(init);
        } else if (init.kind != NodeKind::kEmpty) {
          os << expr(init, true);
        }
        os << "; ";
        if (node.child(1).kind != NodeKind::kEmpty) os << expr(node.child(1), true);
        os << "; ";
        if (node.child(2).kind != NodeKind::kEmpty) os << expr(node.child(2), true);
        os << ")\n";
        body(os, node.child(3), indent);
        return;
      }
      case NodeKind::kWhile:
        os << pad(indent) << "while (" << expr(node.child(0), true) << ")\n";
        body(os, node.child(1), indent);
        return;
      case NodeKind::kDoWhile:
        os << pad(indent) << "do\n";
        body(os, node.child(0), indent);
        os << pad(indent) << "while (" << expr(node.child(1), true) << ");\n";
        return;
      case NodeKind::kIf:
        os << pad(indent) << "if (" << expr(node.child(0), true) << ")\n";
        body(os, node.child(1), indent);
        if (node.children.size() > 2) {
          os << pad(indent) << "else\n";
          body(os, node.child(2), indent);
        }
        return;
      case NodeKind::kReturn:
        os << pad(indent) << "return";
        if (!node.children.empty()) os << ' ' << expr(node.child(0), true);
        os << ";\n";
        return;
      case NodeKind::kBreak:
        os << pad(indent) << "break;\n";
        return;
      case NodeKind::kContinue:
        os << pad(indent) << "continue;\n";
        return;
      case NodeKind::kGoto:
        os << pad(indent) << "goto " << node.text << ";\n";
        return;
      case NodeKind::kLabel:
        os << pad(indent) << node.text << ":\n";
        stmt(os, node.child(0), indent);
        return;
      case NodeKind::kExprStmt:
        os << pad(indent) << expr(node.child(0), true) << ";\n";
        return;
      case NodeKind::kEmpty:
        os << pad(indent) << ";\n";
        return;
      case NodeKind::kPragma:
        os << pad(indent) << '#' << node.text << '\n';
        return;
      default:
        os << pad(indent) << expr(node, true) << ";\n";
        return;
    }
  }

  void body(std::ostringstream& os, const Node& node, int indent) {
    if (node.kind == NodeKind::kCompound) {
      stmt(os, node, indent);
    } else {
      stmt(os, node, indent + 1);
    }
  }

  std::string expr(const Node& node, bool top) {
    std::string out;
    append_expr(node, top, out);
    return out;
  }
};

}  // namespace

std::string print_source(const Node& node, int indent) {
  return Printer{}.statement(node, indent);
}

std::string print_expression(const Node& node) {
  std::string out;
  append_expr(node, /*top=*/true, out);
  return out;
}

void append_expression(const Node& node, std::string& out) { append_expr(node, true, out); }

}  // namespace clpp::frontend
