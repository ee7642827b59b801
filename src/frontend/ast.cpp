#include "frontend/ast.h"

namespace clpp::frontend {

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
      return node_kind_name(node.kind) + ": " + std::string(node.text);
    case NodeKind::kID:
      return "ID: " + std::string(node.text);
    case NodeKind::kConstant:
      return "Constant: " + std::string(node.aux) + ", " + std::string(node.text);
    case NodeKind::kDecl:
      return "Decl: " + std::string(node.text) + ", " + std::string(node.aux);
    case NodeKind::kFuncDef:
      return "FuncDef: " + std::string(node.text);
    case NodeKind::kCast:
      return "Cast: " + std::string(node.text);
    case NodeKind::kPragma:
      return "Pragma: " + std::string(node.text);
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
