// DFS serialization of the AST (paper §4.2, Tables 2 and 5).
//
// The paper linearizes pycparser ASTs by a depth-first traversal, one node
// label per line ("For:", "Assignment: =", "ID: i", "Constant: int, 0").
// `dfs_lines` reproduces the indented textual form. The model's AST token
// stream, each label split into its symbols ("Assignment:" "=",
// "Constant:" "int" "0"), is `tokenize::tokenize` with an AST
// representation.
#pragma once

#include <string>

#include "frontend/ast.h"

namespace clpp::frontend {

/// Indented one-node-per-line rendering (Table 2 of the paper).
std::string dfs_lines(const Node& root);

}  // namespace clpp::frontend
