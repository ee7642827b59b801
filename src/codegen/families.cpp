#include "codegen/families.h"

#include <concepts>
#include <string_view>

#include "codegen/names.h"
#include "support/strings.h"

namespace clpp::codegen {

using frontend::OmpDirective;
using frontend::Reduction;
using frontend::ReductionOp;
using frontend::ScheduleKind;

namespace {

/// Snippet source under construction: streams like std::ostringstream
/// (`<<` operands evaluate left to right, so rng draws among them keep
/// their order) but appends straight into one string.
class Code {
 public:
  Code& operator<<(std::string_view text) {
    text_ += text;
    return *this;
  }
  Code& operator<<(char c) {
    text_ += c;
    return *this;
  }
  template <std::integral T>
  Code& operator<<(T value) {
    text_ += std::to_string(value);
    return *this;
  }
  std::string str() && { return std::move(text_); }

 private:
  std::string text_;
};

/// Builds the canonical directive for a positive snippet.
OmpDirective loop_directive(ScheduleKind schedule = ScheduleKind::kNone,
                            std::vector<std::string> private_vars = {},
                            std::vector<Reduction> reductions = {}) {
  OmpDirective d;
  d.parallel = true;
  d.for_loop = true;
  d.schedule = schedule;
  d.private_vars = std::move(private_vars);
  d.reductions = std::move(reductions);
  return d;
}

/// A loop bound: symbolic most of the time, literal otherwise.
std::string sampled_bound(Rng& rng, NamePool& names, long long lit_lo = 256,
                          long long lit_hi = 1 << 20) {
  if (rng.chance(0.7)) return names.bound();
  return std::to_string(rng.range(lit_lo, lit_hi));
}

/// A small arithmetic expression over `terms` (reads only).
std::string arith(Rng& rng, const std::vector<std::string>& terms) {
  static constexpr const char* kOps[] = {" + ", " - ", " * "};
  std::string out = terms[rng.index(terms.size())];
  const int extra = static_cast<int>(rng.range(0, 2));
  for (int t = 0; t < extra; ++t) {
    out += kOps[rng.index(3)];
    if (rng.chance(0.3)) {
      out += std::to_string(rng.range(1, 9));
    } else {
      out += terms[rng.index(terms.size())];
    }
  }
  return out;
}

std::string fmt_float(Rng& rng) {
  static constexpr const char* kVals[] = {"0.5", "2.0", "0.25", "1.5", "0.2",
                                          "3.0", "0.1", "4.0",  "0.9", "1e-6"};
  return kVals[rng.index(10)];
}

GeneratedSnippet snippet(std::string family, std::string code) {
  GeneratedSnippet s;
  s.family = std::move(family);
  s.code = std::move(code);
  return s;
}

GeneratedSnippet positive(std::string family, std::string code, OmpDirective d) {
  GeneratedSnippet s = snippet(std::move(family), std::move(code));
  s.has_directive = true;
  s.directive = std::move(d);
  return s;
}

// ===== positive families ======================================================

/// p_init_1d: plain array initialization — the first-touch case of §2.1.
GeneratedSnippet p_init_1d(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string arr = names.array();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n";
  const int variant = static_cast<int>(rng.range(0, 2));
  if (variant == 0) os << "    " << arr << "[" << i << "] = 0;\n";
  else if (variant == 1) os << "    " << arr << "[" << i << "] = " << i << ";\n";
  else os << "    " << arr << "[" << i << "] = " << fmt_float(rng) << ";\n";
  return positive("init_1d", std::move(os).str(), loop_directive(ScheduleKind::kStatic));
}

/// p_init_2d: nested initialization, inner index privatized.
GeneratedSnippet p_init_2d(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string j = names.induction();
  const std::string arr = names.array();
  const std::string rows = names.bound();
  const std::string cols = names.bound();
  // C99-style inline declaration of the inner index makes it block-scoped:
  // no private clause needed. Same structure, different clause label — the
  // kind of distinction that requires more than a bag of tokens.
  const bool inline_decl = rng.chance(0.25);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << rows << "; " << i << "++)\n"
     << "    for (" << (inline_decl ? "int " : "") << j << " = 0; " << j << " < "
     << cols << "; " << j << "++)\n"
     << "        " << arr << "[" << i << "][" << j << "] = "
     << (rng.chance(0.5) ? "0" : i + " + " + j) << ";\n";
  return positive("init_2d", std::move(os).str(),
                  loop_directive(ScheduleKind::kStatic,
                                 inline_decl ? std::vector<std::string>{}
                                             : std::vector<std::string>{j}));
}

/// p_elementwise: c[i] = f(a[i], b[i]) with optional libm call.
GeneratedSnippet p_elementwise(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string c = names.array();
  const std::string n = sampled_bound(rng, names);
  static constexpr const char* kPure[] = {"sqrt", "fabs", "exp", "log", "sin", "cos"};
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    ";
  const int variant = static_cast<int>(rng.range(0, 4));
  if (variant == 0) {
    os << c << "[" << i << "] = " << a << "[" << i << "] + " << b << "[" << i << "];\n";
  } else if (variant == 1) {
    os << c << "[" << i << "] = " << a << "[" << i << "] * " << fmt_float(rng)
       << " + " << b << "[" << i << "];\n";
  } else if (variant == 2) {
    os << c << "[" << i << "] = " << kPure[rng.index(6)] << "(" << a << "[" << i
       << "]);\n";
  } else if (variant == 3) {
    os << b << "[" << i << "] = " << a << "[" << i << "] * " << a << "[" << i
       << "];\n";
  } else {
    // Per-element accumulation: `+=` on an *array* element — independent
    // across iterations, so parallel WITHOUT a reduction clause. The bag of
    // tokens is nearly identical to a scalar reduction; only structure
    // (the subscripted lhs) tells them apart.
    os << c << "[" << i << "] += " << a << "[" << i << "] * " << b << "[" << i
       << "];\n";
  }
  return positive("elementwise", std::move(os).str(),
                  loop_directive(rng.chance(0.15) ? ScheduleKind::kStatic
                                                  : ScheduleKind::kNone));
}

/// p_offset_read: a[i] = b[i-1] ... — parallel-safe offset read of ANOTHER
/// array. Token-level twin of the n_recurrence negatives; only structure
/// (which array repeats) separates them.
GeneratedSnippet p_offset_read(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string n = sampled_bound(rng, names);
  const int offset = static_cast<int>(rng.range(1, 2));
  Code os;
  os << "for (" << i << " = " << offset << "; " << i << " < " << n << "; " << i
     << "++)\n    " << a << "[" << i << "] = " << b << "[" << i << " - " << offset
     << "] + " << (rng.chance(0.5) ? b : a) << "[" << i << "];\n";
  return positive("offset_read", std::move(os).str(), loop_directive());
}

/// p_stencil: Jacobi-style 2D update into a second array, like the paper's
/// Table 8 example 1; 30% also carry a max-reduction on the residual.
GeneratedSnippet p_stencil(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string j = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string n = names.bound();
  const std::string m = names.bound();
  const bool with_residual = rng.chance(0.35);
  const bool inline_decl = rng.chance(0.25);
  Code os;
  os << "for (" << i << " = 1; " << i << " < " << n << " - 1; " << i << "++)\n"
     << "    for (" << (inline_decl ? "int " : "") << j << " = 1; " << j << " < " << m
     << " - 1; " << j << "++) {\n"
     << "        " << b << "[" << i << "][" << j << "] = " << fmt_float(rng) << " * ("
     << a << "[" << i << "][" << j << "] + " << a << "[" << i << " - 1][" << j
     << "] + " << a << "[" << i << " + 1][" << j << "] + " << a << "[" << i << "]["
     << j << " - 1] + " << a << "[" << i << "][" << j << " + 1]);\n";
  std::vector<Reduction> reds;
  std::string resid;
  if (with_residual) {
    resid = names.accumulator();
    os << "        if (fabs(" << b << "[" << i << "][" << j << "] - " << a << "["
       << i << "][" << j << "]) > " << resid << ")\n"
       << "            " << resid << " = fabs(" << b << "[" << i << "][" << j
       << "] - " << a << "[" << i << "][" << j << "]);\n";
    reds.push_back(Reduction{ReductionOp::kMax, resid});
  }
  os << "    }\n";
  return positive("stencil", std::move(os).str(),
                  loop_directive(ScheduleKind::kStatic,
                                 inline_decl ? std::vector<std::string>{}
                                             : std::vector<std::string>{j},
                                 std::move(reds)));
}

/// p_sum_reduction: additive reductions. Only ~30% are spelled in the
/// canonical textbook form an S2S recognizer catches; the rest accumulate
/// through an extern kernel call the S2S cannot prove pure — the Table 10
/// recall pitfall (ComPar R=0.16 in the paper).
GeneratedSnippet p_sum_reduction(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  // Half the accumulators carry tell-tale names (sum/total/...), half are
  // generic scalars — the name alone must not give the label away.
  const std::string acc = rng.chance(0.5) ? names.accumulator() : names.scalar();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    ";
  if (rng.chance(0.7)) {
    // Reduction over an opaque (but actually pure) kernel.
    const std::string fn = names.compute_function();
    if (rng.chance(0.5)) {
      os << acc << " += " << fn << "(" << a << "[" << i << "]);\n";
    } else {
      os << acc << " += " << fn << "(" << a << "[" << i << "], " << i << ");\n";
    }
  } else {
    const int variant = static_cast<int>(rng.range(0, 3));
    if (variant == 0) {
      os << acc << " += " << a << "[" << i << "];\n";
    } else if (variant == 1) {
      const std::string b = names.array();
      os << acc << " += " << a << "[" << i << "] * " << b << "[" << i << "];\n";
    } else if (variant == 2) {
      os << acc << " = " << acc << " + " << a << "[" << i << "] * " << a << "[" << i
         << "];\n";
    } else {
      os << acc << " += fabs(" << a << "[" << i << "]);\n";
    }
  }
  return positive("sum_reduction", std::move(os).str(),
                  loop_directive(ScheduleKind::kNone, {},
                                 {Reduction{ReductionOp::kAdd, acc}}));
}

/// p_minmax_reduction: conditional min/max — humans label reduction(max);
/// canonical-form-only S2S compilers miss it (Table 10 recall pitfall).
GeneratedSnippet p_minmax_reduction(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string m = names.accumulator();
  const std::string n = sampled_bound(rng, names);
  const bool is_max = rng.chance(0.6);
  const char* rel = is_max ? ">" : "<";
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n";
  std::vector<std::string> private_vars;
  const int variant = static_cast<int>(rng.range(0, 2));
  if (variant == 0) {
    os << "    if (" << a << "[" << i << "] " << rel << " " << m << ")\n"
       << "        " << m << " = " << a << "[" << i << "];\n";
  } else if (variant == 1) {
    os << "    " << m << " = " << (is_max ? "fmax" : "fmin") << "(" << m << ", " << a
       << "[" << i << "]);\n";
  } else {
    // Staged through a (pre-declared) temporary that also needs private.
    const std::string t = names.scalar();
    os << "    " << t << " = " << a << "[" << i << "];\n"
       << "    if (" << t << " " << rel << " " << m << ")\n"
       << "        " << m << " = " << t << ";\n";
    private_vars.push_back(t);
  }
  os << "}\n";
  return positive("minmax_reduction", std::move(os).str(),
                  loop_directive(ScheduleKind::kNone, std::move(private_vars),
                                 {Reduction{is_max ? ReductionOp::kMax
                                                   : ReductionOp::kMin,
                                            m}}));
}

/// p_prod_reduction: multiplicative reduction.
GeneratedSnippet p_prod_reduction(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string p = names.accumulator();
  const std::string n = sampled_bound(rng, names, 64, 4096);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    " << p
     << " *= " << a << "[" << i << "];\n";
  return positive("prod_reduction", std::move(os).str(),
                  loop_directive(ScheduleKind::kNone, {},
                                 {Reduction{ReductionOp::kMul, p}}));
}

/// p_matmul: classic triple nest; 35% use the linearized G[(i*NL)+j] form
/// whose subscripts defeat the S2S dependence test (Table 8 example 4).
GeneratedSnippet p_matmul(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string j = names.induction();
  const std::string k = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string c = names.array();
  const std::string ni = names.bound();
  const std::string nj = names.bound();
  const std::string nl = names.bound();
  Code os;
  if (rng.chance(0.35)) {
    os << "for (" << i << " = 0; " << i << " < " << ni << "; " << i << "++) {\n"
       << "    for (" << j << " = 0; " << j << " < " << nl << "; " << j << "++) {\n"
       << "        " << c << "[(" << i << " * " << nl << ") + " << j << "] = 0;\n"
       << "        for (" << k << " = 0; " << k << " < " << nj << "; ++" << k
       << ")\n"
       << "            " << c << "[(" << i << " * " << nl << ") + " << j << "] += "
       << a << "[(" << i << " * " << nj << ") + " << k << "] * " << b << "[(" << k
       << " * " << nl << ") + " << j << "];\n"
       << "    }\n}\n";
    return positive("matmul", std::move(os).str(), loop_directive(ScheduleKind::kStatic, {j, k}));
  }
  const bool inline_decl = rng.chance(0.25);
  const std::string decl = inline_decl ? "int " : "";
  os << "for (" << i << " = 0; " << i << " < " << ni << "; " << i << "++)\n"
     << "    for (" << decl << j << " = 0; " << j << " < " << nl << "; " << j
     << "++)\n"
     << "        for (" << decl << k << " = 0; " << k << " < " << nj << "; " << k
     << "++)\n"
     << "            " << c << "[" << i << "][" << j << "] += " << a << "[" << i
     << "][" << k << "] * " << b << "[" << k << "][" << j << "];\n";
  return positive("matmul", std::move(os).str(),
                  loop_directive(ScheduleKind::kStatic,
                                 inline_decl ? std::vector<std::string>{}
                                             : std::vector<std::string>{j, k}));
}

/// p_private_temp: t = f(a[i]); b[i] = g(t) — def-before-use temporary.
/// Token-level twin of n_scalar_carried (same bag, different order).
GeneratedSnippet p_private_temp(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string t = names.scalar();
  const std::string n = sampled_bound(rng, names);
  // Inline-declared temps are block-scoped: no private clause needed.
  const bool inline_decl = rng.chance(0.2);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    " << (inline_decl ? "double " : "") << t << " = " << a << "[" << i
     << "] * " << fmt_float(rng) << ";\n";
  if (rng.chance(0.55)) {
    // Variant routed through an extern kernel: same human label, but the
    // S2S bails on the unknown callee.
    os << "    " << b << "[" << i << "] = " << names.compute_function() << "(" << t
       << ");\n";
  } else {
    os << "    " << b << "[" << i << "] = " << t << " + "
       << arith(rng, {t, a + "[" + i + "]"}) << ";\n";
  }
  os << "}\n";
  return positive("private_temp", std::move(os).str(),
                  loop_directive(ScheduleKind::kNone,
                                 inline_decl ? std::vector<std::string>{}
                                             : std::vector<std::string>{t}));
}

/// p_extern_kernel: calls a compute kernel whose body is NOT in the snippet.
/// The developer knows it is pure; an S2S compiler cannot (recall pitfall).
GeneratedSnippet p_extern_kernel(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string fn = names.compute_function();
  const std::string n = sampled_bound(rng, names);
  const bool dynamic = rng.chance(0.5);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    ";
  if (rng.chance(0.5)) {
    os << a << "[" << i << "] = " << fn << "(" << a << "[" << i << "], " << i
       << ");\n";
  } else {
    os << a << "[" << i << "] = " << fn << "(" << i << ");\n";
  }
  return positive("extern_kernel", std::move(os).str(),
                  loop_directive(dynamic ? ScheduleKind::kDynamic
                                         : ScheduleKind::kNone));
}

/// p_unbalanced_if: conditional heavy work — the schedule(dynamic) case of
/// Table 1 example 2; the heavy helper's body ships with the snippet.
GeneratedSnippet p_unbalanced_if(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string heavy = names.compute_function();
  const std::string n = sampled_bound(rng, names);
  const std::string x = names.scalar();
  Code os;
  // Half the time the heavy helper's body is elsewhere in the project —
  // the developer knows it is pure, the S2S compiler does not.
  if (rng.chance(0.5)) {
    os << "double " << heavy << "(double " << x << ") {\n"
       << "    return " << x << " * " << x << " + sqrt(fabs(" << x << "));\n"
       << "}\n";
  }
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    if (" << a << "[" << i << "] > " << fmt_float(rng) << ")\n"
     << "        " << a << "[" << i << "] = " << heavy << "(" << a << "[" << i
     << "]);\n"
     << "}\n";
  return positive("unbalanced_if", std::move(os).str(),
                  loop_directive(ScheduleKind::kDynamic));
}

/// p_triangular: inner loop starts at i+1 (pairwise interactions).
GeneratedSnippet p_triangular(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string j = names.induction();
  const std::string a = names.array();
  const std::string f = names.array();
  const std::string n = names.bound();
  const bool inline_decl = rng.chance(0.25);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
     << "    for (" << (inline_decl ? "int " : "") << j << " = " << i << " + 1; "
     << j << " < " << n << "; " << j << "++)\n"
     << "        " << f << "[" << i << "][" << j << "] = " << a << "[" << i
     << "][" << j << "] - " << a << "[" << j << "][" << i << "];\n";
  return positive("triangular", std::move(os).str(),
                  loop_directive(rng.chance(0.5) ? ScheduleKind::kDynamic
                                                 : ScheduleKind::kStatic,
                                 inline_decl ? std::vector<std::string>{}
                                             : std::vector<std::string>{j}));
}

/// p_local_pure_call: helper with visible pure body; both humans and a
/// good S2S can parallelize — an "easy positive" for every system.
GeneratedSnippet p_local_pure_call(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string fn = names.compute_function();
  const std::string x = names.scalar();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "double " << fn << "(double " << x << ") {\n"
     << "    return " << arith(rng, {x, x}) << ";\n"
     << "}\n"
     << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
     << "    " << b << "[" << i << "] = " << fn << "(" << a << "[" << i << "]);\n";
  return positive("local_pure_call", std::move(os).str(), loop_directive());
}

// ===== negative families ======================================================

/// n_io_loop: printing/reading per element (Table 8 example 2). A third
/// use HPC naming — dumping a simulation array to disk is exactly where
/// I/O meets HPC names, and it teaches the model that the I/O call
/// dominates the naming-convention prior.
GeneratedSnippet n_io_loop(Rng& rng) {
  NamePool names(rng, rng.chance(0.35) ? NameStyle::kHpc : NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string arr = names.array();
  const std::string n = sampled_bound(rng, names, 16, 4096);
  Code os;
  const int variant = static_cast<int>(rng.range(0, 2));
  if (variant == 0) {
    const std::string f = names.serial_name();
    os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
       << "    fprintf(" << f << ", \"%d\\n\", " << arr << "[" << i << "]);\n";
  } else if (variant == 1) {
    os << "for (int " << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
       << "    printf(\"%f \", " << arr << "[" << i << "]);\n";
  } else {
    os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
       << "    scanf(\"%d\", " << arr << " + " << i << ");\n";
  }
  return snippet("io_loop", std::move(os).str());
}

/// n_recurrence: true loop-carried array recurrence.
GeneratedSnippet n_recurrence(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);  // recurrences look "HPC" too
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string n = sampled_bound(rng, names);
  Code os;
  const int variant = static_cast<int>(rng.range(0, 2));
  if (variant == 0) {
    os << "for (" << i << " = 1; " << i << " < " << n << "; " << i << "++)\n"
       << "    " << a << "[" << i << "] = " << a << "[" << i << " - 1] + " << b
       << "[" << i << "];\n";
  } else if (variant == 1) {
    os << "for (" << i << " = 1; " << i << " < " << n << "; " << i << "++)\n"
       << "    " << a << "[" << i << "] = " << a << "[" << i << " - 1] * "
       << fmt_float(rng) << " + " << a << "[" << i << "];\n";
  } else {
    os << "for (" << i << " = 2; " << i << " < " << n << "; " << i << "++)\n"
       << "    " << a << "[" << i << "] = " << a << "[" << i << " - 1] + " << a
       << "[" << i << " - 2];\n";
  }
  return snippet("recurrence", std::move(os).str());
}

/// n_pointer_chase: linked-structure walk (hostile to every S2S parser).
GeneratedSnippet n_pointer_chase(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string p = names.serial_name();
  const std::string head = names.serial_name();
  const std::string total = names.accumulator();
  const std::string n = names.bound();
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    " << total << " += " << p << "->value;\n"
     << "    " << p << " = " << p << "->next;\n"
     << "}\n";
  if (rng.chance(0.4))
    os << head << " = " << p << ";\n";
  return snippet("pointer_chase", std::move(os).str());
}

/// n_small_trip: technically parallel but pointless (tiny literal bound).
/// Half stay below Cetus' profitability threshold; the other half make the
/// S2S insert a directive that humans did not (precision pitfall, §5.2).
GeneratedSnippet n_small_trip(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string arr = names.array();
  const long long trip = rng.chance(0.5) ? rng.range(2, 7) : rng.range(8, 64);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << trip << "; " << i << "++)\n"
     << "    " << arr << "[" << i << "] = " << (rng.chance(0.5) ? "0" : i) << ";\n";
  return snippet("small_trip", std::move(os).str());
}

/// n_scalar_carried: use-before-def scalar — the order twin of
/// p_private_temp with an identical token bag.
GeneratedSnippet n_scalar_carried(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string t = names.scalar();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    " << b << "[" << i << "] = " << t << " + "
     << arith(rng, {t, a + "[" + i + "]"}) << ";\n"
     << "    " << t << " = " << a << "[" << i << "] * " << fmt_float(rng) << ";\n"
     << "}\n";
  return snippet("scalar_carried", std::move(os).str());
}

/// n_alloc_loop: allocation/free inside the loop body.
GeneratedSnippet n_alloc_loop(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string p = names.serial_name();
  const std::string a = names.array();
  const std::string n = sampled_bound(rng, names, 16, 1024);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    " << p << " = (double *) malloc(" << rng.range(8, 256)
     << " * sizeof(double));\n"
     << "    " << p << "[0] = " << a << "[" << i << "];\n"
     << "    " << a << "[" << i << "] = " << p << "[0] * 2;\n"
     << "    free(" << p << ");\n"
     << "}\n";
  return snippet("alloc_loop", std::move(os).str());
}

/// n_early_exit: search loop with break.
GeneratedSnippet n_early_exit(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string key = names.scalar();
  const std::string found = names.scalar();
  const std::string n = sampled_bound(rng, names, 64, 1 << 16);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    if (" << a << "[" << i << "] == " << key << ") {\n"
     << "        " << found << " = " << i << ";\n"
     << "        break;\n"
     << "    }\n"
     << "}\n";
  return snippet("early_exit", std::move(os).str());
}

/// n_indirect_write: scatter through an index array — potential write race.
GeneratedSnippet n_indirect_write(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string hist = names.array();
  const std::string idx = names.array();
  const std::string w = names.array();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
     << "    " << hist << "[" << idx << "[" << i << "]] += " << w << "[" << i
     << "];\n";
  return snippet("indirect_write", std::move(os).str());
}

/// n_opaque_accumulate: s = combine(s, a[i]) — non-reducible accumulation.
GeneratedSnippet n_opaque_accumulate(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string s = names.accumulator();
  const std::string n = sampled_bound(rng, names);
  Code os;
  const int variant = static_cast<int>(rng.range(0, 1));
  if (variant == 0) {
    os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
       << "    " << s << " = " << s << " * " << a << "[" << i << "] + "
       << fmt_float(rng) << ";\n";  // Horner step: not a reduction
  } else {
    const std::string fn = names.compute_function();
    os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
       << "    " << s << " = " << fn << "(" << s << ", " << a << "[" << i
       << "]);\n";
  }
  return snippet("opaque_accumulate", std::move(os).str());
}

/// n_rand_loop: rand()/time() in the body.
GeneratedSnippet n_rand_loop(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string n = sampled_bound(rng, names, 16, 1 << 14);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
     << "    " << a << "[" << i << "] = rand() % " << rng.range(2, 1000) << ";\n";
  return snippet("rand_loop", std::move(os).str());
}

/// n_goto_cleanup: error-handling with goto (ComPar compile failure).
GeneratedSnippet n_goto_cleanup(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string err = names.scalar();
  const std::string n = sampled_bound(rng, names, 16, 4096);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    if (" << a << "[" << i << "] < 0)\n"
     << "        goto fail;\n"
     << "    " << a << "[" << i << "] = " << a << "[" << i << "] + 1;\n"
     << "}\n"
     << "fail:\n"
     << err << " = 1;\n";
  return snippet("goto_cleanup", std::move(os).str());
}

/// n_outer_dependent: inner loop writes a shared row — outer is serial.
GeneratedSnippet n_outer_dependent(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string j = names.induction();
  const std::string row = names.array();
  const std::string a = names.array();
  const std::string n = names.bound();
  const std::string m = names.bound();
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
     << "    for (" << j << " = 0; " << j << " < " << m << "; " << j << "++)\n"
     << "        " << row << "[" << j << "] += " << a << "[" << i << "][" << j
     << "];\n";
  return snippet("outer_dependent", std::move(os).str());
}

/// n_string_ops: byte-wise string handling.
GeneratedSnippet n_string_ops(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string s = names.serial_name();
  const std::string d = names.serial_name();
  Code os;
  os << "for (" << i << " = 0; " << s << "[" << i << "] != 0; " << i << "++)\n"
     << "    " << d << "[" << i << "] = " << s << "[" << i << "]"
     << (rng.chance(0.5) ? " + 32" : "") << ";\n";
  return snippet("string_ops", std::move(os).str());
}

/// n_last_index: remembers the last matching index — carried scalar.
GeneratedSnippet n_last_index(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string pos = names.scalar();
  const std::string key = names.scalar();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++) {\n"
     << "    if (" << a << "[" << i << "] == " << key << ")\n"
     << "        " << pos << " = " << i << ";\n"
     << "    " << a << "[" << i << "] = " << a << "[" << i << "];\n"
     << "}\n";
  return snippet("last_index", std::move(os).str());
}

/// n_unannotated: dependence-free loops that developers left serial — the
/// dominant source of ComPar's false positives in §5.2 (precision 0.35).
/// These are cold-path setup/copy loops: small-ish bounds, serial naming
/// style, often a setup preamble. A dependence test says "parallelizable";
/// a human (and a model that reads the style/size cues) says "not worth a
/// thread team".
GeneratedSnippet n_unannotated(Rng& rng) {
  // Half are *style twins*: bodies bit-compatible with the init_1d /
  // elementwise positive families, distinguishable only by the serial
  // naming style (and a 15% residue that is genuinely undecidable). This
  // is the mechanism behind the paper's Text > R-Text result: replacing
  // identifiers erases the one feature that separates these negatives.
  const bool style_twin = rng.chance(0.5);
  NamePool names(rng, style_twin ? NameStyle::kSerial : NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string dst = names.array();
  Code os;

  if (style_twin) {
    const std::string n = sampled_bound(rng, names);
    os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    ";
    const int variant = static_cast<int>(rng.range(0, 3));
    if (variant == 0) {
      os << dst << "[" << i << "] = 0;\n";
    } else if (variant == 1) {
      os << dst << "[" << i << "] = " << i << ";\n";
    } else if (variant == 2) {
      os << dst << "[" << i << "] = " << fmt_float(rng) << ";\n";
    } else {
      const std::string a = names.array();
      const std::string b = names.array();
      os << dst << "[" << i << "] = " << a << "[" << i << "] + " << b << "[" << i
         << "];\n";
    }
    return snippet("unannotated", std::move(os).str());
  }

  // Cold-path setup/copy loops: small literal bounds, preambles.
  const std::string n =
      rng.chance(0.6) ? std::to_string(rng.range(8, 128)) : names.bound();
  if (rng.chance(0.5)) {
    const std::string s = names.scalar();
    os << s << " = 0;\n";
    if (rng.chance(0.4)) os << names.scalar() << " = " << rng.range(1, 64) << ";\n";
  }
  const int variant = static_cast<int>(rng.range(0, 2));
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    ";
  if (variant == 0) {
    os << dst << "[" << i << "] = " << (rng.chance(0.5) ? "0" : "-1") << ";\n";
  } else if (variant == 1) {
    const std::string src = names.array();
    os << dst << "[" << i << "] = " << src << "[" << i << "];\n";
  } else {
    os << dst << "[" << i << "] = " << i << " * " << rng.range(1, 8) << ";\n";
  }
  return snippet("unannotated", std::move(os).str());
}

/// n_impure_local_call: helper writing a global — visible impurity.
GeneratedSnippet n_impure_local_call(Rng& rng) {
  NamePool names(rng, NameStyle::kMixed);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string fn = names.compute_function();
  const std::string g = names.scalar();
  const std::string x = names.scalar();
  const std::string n = sampled_bound(rng, names, 64, 1 << 16);
  Code os;
  os << "double " << fn << "(double " << x << ") {\n"
     << "    " << g << " += " << x << ";\n"
     << "    return " << g << ";\n"
     << "}\n"
     << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n"
     << "    " << a << "[" << i << "] = " << fn << "(" << a << "[" << i << "]);\n";
  return snippet("impure_local_call", std::move(os).str());
}

// ===== simd families =========================================================
//
// Vectorizable single loops labeled with `#pragma omp simd` (not worksharing).
// Kept out of all_families() so every corpus generated before the simd rule
// family existed stays bit-identical; generator.simd_families opts in.

/// Builds the canonical directive for a simd-labeled snippet.
OmpDirective simd_directive(int safelen = 0, std::vector<Reduction> reductions = {}) {
  OmpDirective d;
  d.simd = true;
  d.safelen = safelen;
  d.reductions = std::move(reductions);
  return d;
}

/// s_simd_saxpy: dependence-free streaming update — clean bare `omp simd`.
GeneratedSnippet s_simd_saxpy(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string x = names.array();
  const std::string y = names.array();
  const std::string alpha = names.scalar();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    ";
  const int variant = static_cast<int>(rng.range(0, 2));
  if (variant == 0)
    os << y << "[" << i << "] = " << alpha << " * " << x << "[" << i << "] + " << y
       << "[" << i << "];\n";
  else if (variant == 1)
    os << y << "[" << i << "] += " << alpha << " * " << x << "[" << i << "];\n";
  else
    os << y << "[" << i << "] = " << x << "[" << i << "] * " << fmt_float(rng)
       << ";\n";
  return positive("simd_saxpy", std::move(os).str(), simd_directive());
}

/// s_simd_offset_stream: a[i] = a[i-K] + b[i] — carried distance exactly K,
/// legal under the declared safelen(K). The distance label exercises the
/// exact dependence engine end to end.
GeneratedSnippet s_simd_offset_stream(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string b = names.array();
  const std::string n = sampled_bound(rng, names);
  const int k = static_cast<int>(rng.range(2, 8));
  Code os;
  os << "for (" << i << " = " << k << "; " << i << " < " << n << "; " << i
     << "++)\n    " << a << "[" << i << "] = " << a << "[" << i << " - " << k
     << "] + " << b << "[" << i << "];\n";
  return positive("simd_offset_stream", std::move(os).str(), simd_directive(k));
}

/// s_simd_reduction: horizontal sum under `omp simd reduction(+: s)`.
GeneratedSnippet s_simd_reduction(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string a = names.array();
  const std::string acc = names.accumulator();
  const std::string n = sampled_bound(rng, names);
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << n << "; " << i << "++)\n    ";
  if (rng.chance(0.5)) {
    const std::string b = names.array();
    os << acc << " += " << a << "[" << i << "] * " << b << "[" << i << "];\n";
  } else {
    os << acc << " += " << a << "[" << i << "];\n";
  }
  return positive("simd_reduction", std::move(os).str(),
                  simd_directive(0, {Reduction{ReductionOp::kAdd, acc}}));
}

/// s_simd_nest: clean two-level nest labeled `parallel for private(j)`.
/// Its seeded bug adds `simd` to the *outer* directive — the
/// simd-on-non-innermost defect.
GeneratedSnippet s_simd_nest(Rng& rng) {
  NamePool names(rng, NameStyle::kHpc);
  const std::string i = names.induction();
  const std::string j = names.induction();
  const std::string in = names.array();
  const std::string out = names.array();
  const std::string rows = names.bound();
  const std::string cols = names.bound();
  Code os;
  os << "for (" << i << " = 0; " << i << " < " << rows << "; " << i << "++)\n"
     << "    for (" << j << " = 0; " << j << " < " << cols << "; " << j << "++)\n"
     << "        " << out << "[" << i << "][" << j << "] = " << in << "[" << i
     << "][" << j << "] * " << fmt_float(rng) << ";\n";
  return positive("simd_nest", std::move(os).str(),
                  loop_directive(ScheduleKind::kStatic, {j}));
}

}  // namespace

const std::vector<Family>& simd_families() {
  static const std::vector<Family> kSimd = {
      {"simd_saxpy", 2.0, true, s_simd_saxpy},
      {"simd_offset_stream", 2.0, true, s_simd_offset_stream},
      {"simd_reduction", 2.0, true, s_simd_reduction},
      {"simd_nest", 1.5, true, s_simd_nest},
  };
  return kSimd;
}

const std::vector<Family>& all_families() {
  static const std::vector<Family> kFamilies = {
      // --- positives (total weight 49.5; weights calibrated so corpus
      // statistics land near Table 3 — see codegen_test) ---
      {"init_1d", 3.0, true, p_init_1d},
      {"init_2d", 5.0, true, p_init_2d},
      {"elementwise", 3.5, true, p_elementwise},
      {"offset_read", 2.5, true, p_offset_read},
      {"stencil", 3.5, true, p_stencil},
      {"sum_reduction", 7.0, true, p_sum_reduction},
      {"minmax_reduction", 3.0, true, p_minmax_reduction},
      {"prod_reduction", 1.0, true, p_prod_reduction},
      {"matmul", 3.5, true, p_matmul},
      {"private_temp", 9.0, true, p_private_temp},
      {"extern_kernel", 5.0, true, p_extern_kernel},
      {"unbalanced_if", 3.0, true, p_unbalanced_if},
      {"triangular", 3.0, true, p_triangular},
      {"local_pure_call", 1.5, true, p_local_pure_call},
      // --- negatives (total weight ~58) ---
      {"io_loop", 5.0, false, n_io_loop},
      {"recurrence", 4.5, false, n_recurrence},
      {"pointer_chase", 3.0, false, n_pointer_chase},
      {"small_trip", 4.0, false, n_small_trip},
      {"scalar_carried", 4.5, false, n_scalar_carried},
      {"unannotated", 20.0, false, n_unannotated},
      {"alloc_loop", 3.0, false, n_alloc_loop},
      {"early_exit", 3.0, false, n_early_exit},
      {"indirect_write", 3.0, false, n_indirect_write},
      {"opaque_accumulate", 3.0, false, n_opaque_accumulate},
      {"rand_loop", 1.5, false, n_rand_loop},
      {"goto_cleanup", 2.5, false, n_goto_cleanup},
      {"outer_dependent", 3.0, false, n_outer_dependent},
      {"string_ops", 1.5, false, n_string_ops},
      {"last_index", 1.5, false, n_last_index},
      {"impure_local_call", 1.5, false, n_impure_local_call},
  };
  return kFamilies;
}

const Family& family_by_name(const std::string& name) {
  for (const Family& f : all_families())
    if (f.name == name) return f;
  for (const Family& f : simd_families())
    if (f.name == name) return f;
  throw InvalidArgument("unknown snippet family: " + name);
}

}  // namespace clpp::codegen
