#include "frontend/ast.h"

namespace clpp::frontend {

NodePtr Node::clone() const {
  auto copy = std::make_unique<Node>(kind, text, aux);
  copy->line = line;
  copy->column = column;
  copy->children.reserve(children.size());
  for (const NodePtr& c : children) copy->children.push_back(c->clone());
  return copy;
}

NodePtr make_node(NodeKind kind, std::string text, std::string aux) {
  return std::make_unique<Node>(kind, std::move(text), std::move(aux));
}

NodePtr make_id(std::string name) {
  return std::make_unique<Node>(NodeKind::kID, std::move(name));
}

NodePtr make_int(long long value) {
  return std::make_unique<Node>(NodeKind::kConstant, std::to_string(value), "int");
}

NodePtr make_float(std::string value) {
  return std::make_unique<Node>(NodeKind::kConstant, std::move(value), "float");
}

std::string node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kTranslationUnit: return "FileAST";
    case NodeKind::kFuncDef: return "FuncDef";
    case NodeKind::kDecl: return "Decl";
    case NodeKind::kCompound: return "Compound";
    case NodeKind::kFor: return "For";
    case NodeKind::kWhile: return "While";
    case NodeKind::kDoWhile: return "DoWhile";
    case NodeKind::kIf: return "If";
    case NodeKind::kReturn: return "Return";
    case NodeKind::kBreak: return "Break";
    case NodeKind::kContinue: return "Continue";
    case NodeKind::kGoto: return "Goto";
    case NodeKind::kLabel: return "Label";
    case NodeKind::kExprStmt: return "ExprStmt";
    case NodeKind::kAssignment: return "Assignment";
    case NodeKind::kBinaryOp: return "BinaryOp";
    case NodeKind::kUnaryOp: return "UnaryOp";
    case NodeKind::kTernaryOp: return "TernaryOp";
    case NodeKind::kID: return "ID";
    case NodeKind::kConstant: return "Constant";
    case NodeKind::kArrayRef: return "ArrayRef";
    case NodeKind::kFuncCall: return "FuncCall";
    case NodeKind::kExprList: return "ExprList";
    case NodeKind::kStructRef: return "StructRef";
    case NodeKind::kCast: return "Cast";
    case NodeKind::kSizeof: return "Sizeof";
    case NodeKind::kEmpty: return "Empty";
    case NodeKind::kPragma: return "Pragma";
  }
  return "Unknown";
}

std::string node_label(const Node& node) {
  switch (node.kind) {
    case NodeKind::kAssignment:
    case NodeKind::kBinaryOp:
    case NodeKind::kUnaryOp:
    case NodeKind::kStructRef:
      return node_kind_name(node.kind) + ": " + node.text;
    case NodeKind::kID:
      return "ID: " + node.text;
    case NodeKind::kConstant:
      return "Constant: " + node.aux + ", " + node.text;
    case NodeKind::kDecl:
      return "Decl: " + node.text + ", " + node.aux;
    case NodeKind::kFuncDef:
      return "FuncDef: " + node.text;
    case NodeKind::kCast:
      return "Cast: " + node.text;
    case NodeKind::kPragma:
      return "Pragma: " + node.text;
    default:
      return node_kind_name(node.kind) + ":";
  }
}

std::size_t count_kind(const Node& node, NodeKind kind) {
  std::size_t n = 0;
  walk(node, [&](const Node& v, int) { n += (v.kind == kind); });
  return n;
}

}  // namespace clpp::frontend
