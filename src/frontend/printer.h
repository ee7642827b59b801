// AST -> C source pretty-printer.
//
// Used by the S2S compilers to emit annotated output (the "full output in
// the source code" transparency property of §1.1), by the corpus generator
// to render snippets, and by round-trip tests (parse(print(ast)) must be
// structurally identical to ast).
#pragma once

#include <string>

#include "frontend/ast.h"

namespace clpp::frontend {

/// Renders a statement/expression/translation-unit subtree as C source.
std::string print_source(const Node& node, int indent = 0);

/// Renders an expression subtree on one line (no trailing semicolon).
std::string print_expression(const Node& node);

/// Appends print_expression(node) to `out`, reusing its capacity.
void append_expression(const Node& node, std::string& out);

}  // namespace clpp::frontend
