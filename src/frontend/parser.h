// Recursive-descent parser for the C subset (pycparser substitute).
//
// Two entry points:
//  * parse_program  — a whole translation unit (functions, globals).
//  * parse_snippet  — the corpus form: a free sequence of statements,
//    declarations, pragmas, and helper function definitions, as extracted
//    around a loop. Returned as a TranslationUnit whose children are the
//    items in order.
//
// The subset covers what realistic OpenMP loop snippets use: all statement
// forms, all C operators with correct precedence/associativity, pointers,
// multi-dimensional arrays, casts, sizeof, struct member access, function
// definitions and calls. Unsupported constructs raise ParseError with a
// source position — the same contract pycparser gives the original
// pipeline (and the same failure mode Cetus exhibits on hostile input).
//
// Nesting is bounded: input whose statements, blocks, parentheses or
// operator chains nest deeper than kMaxNesting raises ParseError too, so
// hostile input can overflow neither the parser's stack nor that of a
// recursive walk over the tree it returns.
#pragma once

#include <string_view>

#include "frontend/ast.h"

namespace clpp::frontend {

/// Deepest nesting a parse accepts, and the deepest tree it returns
/// (Node::height). Python's default recursion limit, which bounds
/// pycparser's own tree walks, is the same order.
inline constexpr int kMaxNesting = 1000;

/// Parses a full translation unit.
NodePtr parse_program(std::string_view source);

/// Parses a corpus snippet (statements at top level allowed).
NodePtr parse_snippet(std::string_view source);

/// Parses a single expression (testing / tooling convenience).
NodePtr parse_expression(std::string_view source);

}  // namespace clpp::frontend
