#include "frontend/dfs.h"

#include <algorithm>
#include <sstream>

#include "support/strings.h"

namespace clpp::frontend {

std::string dfs_lines(const Node& root) {
  std::ostringstream os;
  walk(root, [&](const Node& node, int depth) {
    if (node.kind == NodeKind::kTranslationUnit) return;
    os << repeated("  ", static_cast<std::size_t>(std::max(depth - 1, 0)))
       << node_label(node) << '\n';
  });
  return os.str();
}

}  // namespace clpp::frontend
