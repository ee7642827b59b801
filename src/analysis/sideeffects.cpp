#include "analysis/sideeffects.h"

#include <algorithm>
#include <array>

#include "analysis/accesses.h"

namespace clpp::analysis {

using frontend::Node;
using frontend::NodeKind;

CallEffect worse(CallEffect a, CallEffect b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

bool SideEffectOracle::is_whitelisted_pure(std::string_view name) {
  static constexpr std::array kPure = {
      "sqrt",  "sqrtf", "fabs",  "fabsf", "abs",   "sin",   "cos",   "tan",
      "asin",  "acos",  "atan",  "atan2", "exp",   "expf",  "log",   "logf",
      "log2",  "log10", "pow",   "powf",  "fmax",  "fmin",  "fmod",  "floor",
      "ceil",  "round", "hypot", "cbrt",  "min",   "max",   "MIN",   "MAX"};
  return std::find(kPure.begin(), kPure.end(), name) != kPure.end();
}

bool SideEffectOracle::is_known_io(std::string_view name) {
  static constexpr std::array kIo = {"printf",  "fprintf", "sprintf", "snprintf",
                                     "scanf",   "fscanf",  "sscanf",  "puts",
                                     "fputs",   "fgets",   "getchar", "putchar",
                                     "fopen",   "fclose",  "fread",   "fwrite",
                                     "fflush",  "exit",    "abort",   "perror",
                                     "rand",    "srand",   "time",    "clock"};
  return std::find(kIo.begin(), kIo.end(), name) != kIo.end();
}

bool SideEffectOracle::is_known_alloc(std::string_view name) {
  static constexpr std::array kAlloc = {"malloc", "calloc", "realloc", "free",
                                        "memcpy", "memset", "memmove", "strcpy",
                                        "strcat", "strlen"};
  return std::find(kAlloc.begin(), kAlloc.end(), name) != kAlloc.end();
}

SideEffectOracle::SideEffectOracle(const Node& unit) {
  frontend::walk(unit, [&](const Node& node, int) {
    if (node.kind == NodeKind::kFuncDef && node.children.size() > 1 &&
        node.child(1).kind == NodeKind::kCompound)
      bodies_.emplace(node.text, &node);
  });
}

CallEffect SideEffectOracle::effect_of(std::string_view name) const {
  std::vector<std::string_view> in_progress;
  return classify(name, in_progress);
}

CallEffect SideEffectOracle::classify(std::string_view name,
                                      std::vector<std::string_view>& in_progress) const {
  if (auto it = cache_.find(name); it != cache_.end()) return it->second;
  const auto remember = [&](CallEffect effect) {
    cache_.emplace(name, effect);
    return effect;
  };
  if (is_known_io(name)) return remember(CallEffect::kIo);
  if (is_known_alloc(name)) return remember(CallEffect::kAllocates);
  if (is_whitelisted_pure(name)) return remember(CallEffect::kPure);

  auto it = bodies_.find(name);
  if (it == bodies_.end()) return remember(CallEffect::kUnknown);
  // Recursion guard: a cycle means we cannot prove purity.
  if (std::find(in_progress.begin(), in_progress.end(), name) != in_progress.end())
    return CallEffect::kUnknown;
  in_progress.push_back(name);

  const Node& fn = *it->second;
  const Node& params = fn.child(0);
  const Node& body = fn.child(1);
  const AccessSet accesses = collect_accesses(body);

  CallEffect effect = CallEffect::kPure;
  // Callee's own calls.
  for (const std::string_view callee : accesses.hazards.called_functions)
    effect = worse(effect, classify(callee, in_progress));
  if (accesses.hazards.function_pointer_call) effect = CallEffect::kUnknown;

  // Writes: local declarations are fine; writes to parameters passed as
  // pointers/arrays (or to names not declared locally = globals) are not.
  const auto& locals = accesses.decls;
  std::vector<std::string_view> pointer_params;
  std::vector<std::string_view> value_params;
  for (const auto& p : params.children) {
    const bool is_pointer = p->aux.find('*') != std::string::npos ||
                            p->aux.find("[]") != std::string::npos;
    (is_pointer ? pointer_params : value_params).push_back(p->text);
  }
  for (const Access& a : accesses.accesses) {
    if (!a.is_write) continue;
    if (std::find(locals.begin(), locals.end(), a.variable) != locals.end()) continue;
    if (std::find(value_params.begin(), value_params.end(), a.variable) !=
        value_params.end())
      continue;  // writing a by-value scalar param touches only the copy
    if (std::find(pointer_params.begin(), pointer_params.end(), a.variable) !=
        pointer_params.end()) {
      effect = worse(effect, a.is_array ? CallEffect::kWritesArgs
                                        : CallEffect::kPure);  // p = ... rebinds copy
      continue;
    }
    // Write to something not local and not a parameter: a global.
    effect = worse(effect, CallEffect::kWritesArgs);
  }
  if (accesses.hazards.pointer_deref_write)
    effect = worse(effect, CallEffect::kWritesArgs);

  in_progress.pop_back();
  return remember(effect);
}

}  // namespace clpp::analysis
