#include "lint/explain.h"

#include <utility>

#include "analysis/sideeffects.h"
#include "frontend/pragma.h"

namespace clpp::lint {

using frontend::Node;
using frontend::NodeKind;

namespace {

void explain_loops(const Node& node, int for_depth,
                   const analysis::DependenceAnalyzer& analyzer,
                   std::vector<LoopExplanation>& out) {
  int child_depth = for_depth;
  if (node.kind == NodeKind::kFor) {
    out.push_back({node.line, for_depth, analyzer.analyze(node)});
    child_depth = for_depth + 1;
  }
  for (const auto& child : node.children)
    if (child) explain_loops(*child, child_depth, analyzer, out);
}

}  // namespace

std::vector<LoopExplanation> explain_unit(
    const Node& unit, const analysis::AnalyzerOptions& options) {
  const analysis::SideEffectOracle oracle(unit);
  const analysis::DependenceAnalyzer analyzer(oracle, options);
  std::vector<LoopExplanation> loops;
  explain_loops(unit, 0, analyzer, loops);
  return loops;
}

std::string render_explanations(const std::string& file,
                                const std::vector<LoopExplanation>& loops) {
  std::string out = file + ": " + std::to_string(loops.size()) + " loop(s)\n";
  for (const LoopExplanation& loop : loops) {
    const analysis::LoopVerdict& v = loop.verdict;
    const std::string indent(static_cast<std::size_t>(loop.depth) * 2, ' ');
    out += indent + "loop";
    if (loop.line > 0) out += " at line " + std::to_string(loop.line);
    if (!v.induction.empty()) out += " (induction " + v.induction + ")";
    out += ": ";
    if (!v.canonical)
      out += "non-canonical";
    else if (v.parallelizable)
      out += "parallelizable";
    else
      out += "serial";
    if (v.bailed) out += ", bailed";
    if (v.canonical) out += v.exact() ? ", exact proof" : ", conservative";
    if (v.trip_count) out += ", trip count " + std::to_string(*v.trip_count);
    out += '\n';
    for (const analysis::PairProvenance& pair : v.pair_provenance)
      out += indent + "  pair: " + analysis::provenance_text(pair) + '\n';
    if (!v.private_candidates.empty()) {
      out += indent + "  private:";
      for (const std::string& name : v.private_candidates) out += ' ' + name;
      out += '\n';
    }
    for (const frontend::Reduction& r : v.reductions)
      out += indent + "  reduction: " + r.variable + " (" +
             frontend::reduction_op_name(r.op) + ")\n";
    for (const std::string& note : v.notes) out += indent + "  note: " + note + '\n';
  }
  return out;
}

Json explanations_json(const std::string& file,
                       const std::vector<LoopExplanation>& loops) {
  Json doc = Json::object();
  doc["schema"] = "clpp.explain.v1";
  doc["file"] = file;
  Json items = Json::array();
  for (const LoopExplanation& loop : loops) {
    const analysis::LoopVerdict& v = loop.verdict;
    Json item = Json::object();
    item["line"] = loop.line;
    item["depth"] = loop.depth;
    item["induction"] = v.induction;
    item["canonical"] = v.canonical;
    item["parallelizable"] = v.parallelizable;
    item["bailed"] = v.bailed;
    item["exact"] = v.exact();
    if (v.trip_count) item["trip_count"] = static_cast<std::int64_t>(*v.trip_count);
    Json pairs = Json::array();
    for (const analysis::PairProvenance& pair : v.pair_provenance) {
      Json p = Json::object();
      p["array"] = pair.array;
      p["src"] = pair.src_text;
      p["snk"] = pair.snk_text;
      p["test"] = pair.test;
      if (!pair.direction.empty()) p["direction"] = pair.direction;
      if (pair.distance) p["distance"] = static_cast<std::int64_t>(*pair.distance);
      p["possible"] = pair.possible;
      p["carried"] = pair.carried;
      p["exact"] = pair.exact;
      p["scalar"] = pair.scalar;
      if (pair.line > 0) p["line"] = pair.line;
      p["text"] = analysis::provenance_text(pair);
      pairs.push_back(std::move(p));
    }
    item["pairs"] = std::move(pairs);
    Json privates = Json::array();
    for (const std::string& name : v.private_candidates) privates.push_back(name);
    item["private"] = std::move(privates);
    Json reductions = Json::array();
    for (const frontend::Reduction& r : v.reductions) {
      Json red = Json::object();
      red["variable"] = r.variable;
      red["op"] = frontend::reduction_op_name(r.op);
      reductions.push_back(std::move(red));
    }
    item["reductions"] = std::move(reductions);
    Json notes = Json::array();
    for (const std::string& note : v.notes) notes.push_back(note);
    item["notes"] = std::move(notes);
    items.push_back(std::move(item));
  }
  doc["loops"] = std::move(items);
  return doc;
}

}  // namespace clpp::lint
