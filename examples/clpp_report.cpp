// clpp-report: the one reader of the repo's schema-versioned clpp.*.v1
// artifacts. Every command reads artifacts through the schema table below,
// so one table owns each field name a reader relies on.
//
//   clpp-report schema FILE [FILE ...]
//   clpp-report slo --stats ART [--budget slo/budgets.json]
//                   [--obs-stats ART] [--quality-warn-only] [--json]
//   clpp-report quality ART [ART ...] [--json]
//   clpp-report diff BASE_DIR CURRENT_DIR [--threshold 0.2] [--all] [--json]
//   clpp-report summarize DIR
//
// `schema` checks each file against the table: its declared
// "clpp.<name>.v1" must be known and carry the required keys, and so must
// every document embedded in it that declares its own schema (a loadgen's
// "server" and "quality" blocks, each scaling point's "server"). `.jsonl`
// files are checked line by line, skipping lines without a "schema" key.
// This is a structural check, not JSON Schema: it catches a producer
// renaming or dropping a field without bumping the version string.
//
// `slo` gates a serve loadgen, shard loadgen or shard scaling artifact
// against the matching blocks of a clpp.slo_budget.v1 document, printing
// one PASS/FAIL/WARN line per check (`--json`: a clpp.slo_verdict.v1
// document). `quality` summarizes the clpp.insight.v1 block of loadgen
// artifacts (`--json`: a clpp.insight_report.v1 document). `diff` compares
// two bench_artifacts/ directories (prof/profdiff.h) and flags tracked
// time-like series that regressed beyond the threshold; `summarize` merges
// one directory into DIR/BENCH_summary.json (run_benches.sh).
//
// Exit: 0 clean, 1 a violation, failed check or regression, 2 usage or IO
// error (an artifact that fails its schema included).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "prof/profdiff.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/json.h"
#include "support/strings.h"

namespace {

using namespace clpp;

// ------------------------------------------------------------ schema table

struct SchemaSpec {
  const char* schema;
  std::vector<const char*> required;  // top-level keys
};

/// One row per schema version any clpp tool emits, listing every top-level
/// key a reader relies on. Adding a field is backward compatible; removing
/// or renaming one listed here requires a version bump (clpp.<name>.v2) and
/// a new row.
const std::vector<SchemaSpec>& known_schemas() {
  static const std::vector<SchemaSpec> specs = {
      {"clpp.lint.v1",
       {"file", "loops_checked", "errors", "warnings", "diagnostics"}},
      {"clpp.explain.v1", {"file", "loops"}},
      {"clpp.serve_stats.v1",
       {"queue_depth", "submitted", "completed", "failed", "batches",
        "latency_us", "queue_wait_us", "tasks", "cache"}},
      {"clpp.serve_loadgen.v1",
       {"requests", "mode", "seconds", "throughput_rps", "client"}},
      {"clpp.metrics_stream.v1", {"seq", "ts_ms"}},
      {"clpp.shard_stats.v1",
       {"shards", "live", "inflight", "deaths", "redispatched", "unavailable",
        "per_shard", "admission", "cache"}},
      {"clpp.shard_loadgen.v1",
       {"requests", "ok", "shed", "errors", "lost", "seconds",
        "throughput_rps", "client"}},
      {"clpp.shard_scaling.v1",
       {"points", "scaling", "cache_win", "lost", "verdicts_identical",
        "verdict_mismatches"}},
      {"clpp.flight.v1", {"reason", "recorded", "dropped", "events"}},
      {"clpp.bench_summary.v1", {"benches"}},
      {"clpp.slo_budget.v1", {"serve"}},
      {"clpp.slo_verdict.v1", {"checks", "failures", "ok"}},
      {"clpp.insight.v1", {"samples", "tasks", "disagreement", "drift"}},
      {"clpp.fingerprint.v1",
       {"samples", "token_freq", "mean_tokens", "mean_loop_depth"}},
      {"clpp.insight_report.v1", {"source", "mode"}},
  };
  return specs;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw IoError("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Checks `value` and everything nested in it: each object that declares a
/// "schema" must name a known one and carry its required keys. `where`
/// names the value ("FILE", "FILE.server", "FILE.points[2].server").
void check_nested(const std::string& where, const Json& value,
                  std::vector<std::string>& violations) {
  if (value.type() == Json::Type::kArray) {
    for (std::size_t i = 0; i < value.size(); ++i)
      check_nested(where + "[" + std::to_string(i) + "]", value.at(i),
                   violations);
    return;
  }
  if (value.type() != Json::Type::kObject) return;
  if (value.contains("schema")) {
    const std::string& schema = value.at("schema").as_string();
    const auto& specs = known_schemas();
    const auto spec =
        std::find_if(specs.begin(), specs.end(),
                     [&](const SchemaSpec& s) { return schema == s.schema; });
    if (spec == specs.end())
      violations.push_back(where + ": unknown schema \"" + schema + "\"");
    else
      for (const char* key : spec->required)
        if (!value.contains(key))
          violations.push_back(where + ": " + schema +
                               " is missing required key \"" + key + "\"");
  }
  for (const auto& [key, field] : value.fields())
    check_nested(where + "." + key, field, violations);
}

/// One line per violation of a whole artifact document.
std::vector<std::string> check_document(const std::string& where,
                                        const Json& doc) {
  std::vector<std::string> violations;
  if (doc.type() != Json::Type::kObject || !doc.contains("schema"))
    violations.push_back(where + ": no top-level \"schema\" key");
  else
    check_nested(where, doc, violations);
  return violations;
}

/// Reads, parses and checks one artifact: the readers below may rely on
/// every key the schema table requires.
Json load_artifact(const std::string& path) {
  Json doc = Json::parse(slurp(path));
  const std::vector<std::string> violations = check_document(path, doc);
  if (!violations.empty()) throw ParseError(join(violations, "; "));
  return doc;
}

/// `schema` for one file: prints each violation to stderr, returns the count.
std::size_t check_file(const std::string& path) {
  const std::string text = slurp(path);
  std::vector<std::string> violations;
  const auto check = [&](const std::string& where, const std::string& body,
                         bool skip_unversioned) {
    try {
      const Json doc = Json::parse(body);
      if (skip_unversioned && (doc.type() != Json::Type::kObject ||
                               !doc.contains("schema")))
        return;
      for (std::string& v : check_document(where, doc))
        violations.push_back(std::move(v));
    } catch (const std::exception& e) {
      violations.push_back(where + ": does not parse: " + e.what());
    }
  };
  if (path.size() > 6 && path.ends_with(".jsonl")) {
    std::istringstream lines(text);
    std::string line;
    for (std::size_t line_no = 1; std::getline(lines, line); ++line_no)
      if (!line.empty()) check(path + ":" + std::to_string(line_no), line, true);
  } else {
    check(path, text, false);
  }
  for (const std::string& v : violations)
    std::fprintf(stderr, "%s\n", v.c_str());
  return violations.size();
}

int run_schema(const ArgParser& parser) {
  if (parser.positional().empty())
    throw InvalidArgument("pass one or more artifact files");
  std::size_t violations = 0;
  for (const std::string& path : parser.positional())
    violations += check_file(path);
  if (violations == 0)
    std::printf("%zu artifact(s) valid\n", parser.positional().size());
  else
    std::printf("%zu violation(s)\n", violations);
  return violations == 0 ? 0 : 1;
}

// ------------------------------------------------------------ quality block

/// The fields of a clpp.insight.v1 quality block that `slo` gates and
/// `quality` prints.
struct Quality {
  std::int64_t samples = 0;
  std::int64_t labeled = 0;  ///< directive verdicts with a proof label
  double ece = 0.0;          ///< directive head
  double mean_confidence = 0.0;
  bool drift_armed = false;
  std::int64_t drift_observed = 0;
  double drift_score = 0.0;
  std::int64_t checked = 0;  ///< verdicts the analyzer could check
  double disagreement_rate = 0.0;
};

Quality read_quality(const Json& quality) {
  const Json& directive = quality.at("tasks").at("directive");
  const Json& drift = quality.at("drift");
  const Json& disagreement = quality.at("disagreement");
  return {quality.at("samples").as_int(),
          directive.at("labeled").as_int(),
          directive.at("ece").as_double(),
          directive.at("mean_confidence").as_double(),
          drift.get_bool("armed", false),
          drift.at("observed").as_int(),
          drift.at("score").as_double(),
          disagreement.at("checked").as_int(),
          disagreement.at("rate").as_double()};
}

int run_quality(const ArgParser& parser) {
  if (parser.positional().empty())
    throw InvalidArgument("pass one or more loadgen artifacts");
  const bool as_json = parser.get_flag("json");
  Json rows = Json::array();
  for (const std::string& path : parser.positional()) {
    const Json artifact = load_artifact(path);
    if (!artifact.contains("quality"))
      throw InvalidArgument(path +
                            " has no \"quality\" block (sequential loadgen "
                            "artifacts carry none)");
    const Quality q = read_quality(artifact.at("quality"));
    Json row = Json::object();
    row["file"] = path;
    row["samples"] = q.samples;
    row["ece"] = q.ece;
    row["mean_confidence"] = q.mean_confidence;
    row["drift_armed"] = q.drift_armed;
    row["drift_score"] = q.drift_score;
    row["disagreement_rate"] = q.disagreement_rate;
    if (artifact.contains("throughput_rps"))
      row["throughput_rps"] = artifact.at("throughput_rps").as_double();
    if (!as_json)
      std::printf(
          "%s: %lld samples, ECE %.3f, drift %.3f%s, disagreement rate "
          "%.3f\n",
          path.c_str(), static_cast<long long>(q.samples), q.ece,
          q.drift_score, q.drift_armed ? "" : " (unarmed)",
          q.disagreement_rate);
    rows.push_back(std::move(row));
  }
  if (as_json) {
    Json doc = Json::object();
    doc["schema"] = "clpp.insight_report.v1";
    doc["source"] = "loadgen";
    doc["mode"] = "stats";
    doc["artifacts"] = std::move(rows);
    std::printf("%s\n", doc.dump().c_str());
  }
  return 0;
}

// ------------------------------------------------------------------- slo

struct Check {
  std::string name;
  double value = 0.0;
  double bound = 0.0;
  /// A floor (value >= bound) instead of a ceiling (value <= bound).
  bool floor = false;
  /// Warn-only: a violation prints WARN and does not fail the gate.
  bool warn = false;

  bool ok() const { return floor ? value >= bound : value <= bound; }
  const char* op() const { return floor ? ">=" : "<="; }
};

const Json* maybe_at(const Json& obj, const std::string& key) {
  return obj.contains(key) ? &obj.at(key) : nullptr;
}

/// Appends a check of `value` against `budget[key]` when the budget declares
/// that bound: a floor for a `min_*` key, else a ceiling.
void check_bound(const Json& budget, const std::string& key, std::string name,
                 double value, std::vector<Check>& out) {
  if (budget.contains(key))
    out.push_back({std::move(name), value, budget.at(key).as_double(),
                   key.starts_with("min_")});
}

/// One ceiling check per `<stat>_max` key of `budget`, against the field
/// `<stat><suffix>` of `stats`: a histogram block (suffix "") or a shard
/// loadgen's client block (suffix "_us"). A statistic the artifact lacks is
/// skipped with a warning, so an older artifact does not hard-fail a newer
/// budget; an empty histogram is skipped silently.
void check_ceilings(const std::string& label, const Json& budget,
                    const Json* stats, const char* suffix,
                    std::vector<Check>& out) {
  if (stats != nullptr && stats->contains("count") &&
      stats->at("count").as_int() == 0)
    return;  // nothing recorded: percentiles are meaningless zeros
  for (const char* stat : {"p50", "p95", "p99", "mean", "max"}) {
    const std::string bound_key = std::string(stat) + "_max";
    const std::string field = stat + std::string(suffix);
    if (!budget.contains(bound_key)) continue;
    if (stats != nullptr && stats->contains(field))
      check_bound(budget, bound_key, label + "." + field,
                  stats->at(field).as_double(), out);
    else
      std::fprintf(stderr, "clpp-report: artifact lacks %s.%s, skipping\n",
                   label.c_str(), field.c_str());
  }
}

/// The budget's "quality" block over the artifact's insight snapshot. Each
/// check fires only once `min_samples` observations back its signal: a
/// 3-request smoke run should not trip a calibration budget.
void check_quality(const Json& budget, const Json& stats, bool warn_only,
                   std::vector<Check>& out) {
  if (!stats.contains("quality")) {
    std::fprintf(stderr,
                 "clpp-report: stats artifact has no \"quality\" block, "
                 "skipping quality budgets\n");
    return;
  }
  const Quality q = read_quality(stats.at("quality"));
  const double min_samples =
      budget.contains("min_samples") ? budget.at("min_samples").as_double() : 0;
  const auto backed = [&](std::int64_t n) {
    return static_cast<double>(n) >= min_samples;
  };
  const std::size_t first = out.size();
  if (backed(q.labeled))
    check_bound(budget, "ece_max", "quality.directive_ece", q.ece, out);
  if (q.drift_armed && backed(q.drift_observed))
    check_bound(budget, "drift_max", "quality.drift_score", q.drift_score, out);
  if (backed(q.checked))
    check_bound(budget, "disagreement_rate_max", "quality.disagreement_rate",
                q.disagreement_rate, out);
  for (std::size_t i = first; i < out.size(); ++i) out[i].warn = warn_only;
}

double ratio(const Json& obj, const char* part, const char* whole) {
  const double total = obj.at(whole).as_double();
  return total > 0 ? obj.at(part).as_double() / total : 0.0;
}

/// The budget's block for one artifact kind; warns when the budget has none.
const Json* budget_block(const Json& budget, const char* name,
                         const char* schema) {
  const Json* block = maybe_at(budget, name);
  if (block == nullptr)
    std::fprintf(stderr,
                 "clpp-report: budget has no \"%s\" block, nothing to check "
                 "for a %s artifact\n",
                 name, schema);
  return block;
}

/// clpp.serve_loadgen.v1 against the "serve", "tasks", "obs_overhead" and
/// "quality" blocks.
std::vector<Check> evaluate_serve(const Json& budget, const Json& stats,
                                  const Json* obs_stats,
                                  bool quality_warn_only) {
  std::vector<Check> checks;
  const Json* server = maybe_at(stats, "server");
  if (server == nullptr)
    throw InvalidArgument(
        "stats artifact has no \"server\" block (was the loadgen run "
        "--sequential?)");

  if (const Json* b = maybe_at(budget, "serve")) {
    for (const char* block : {"latency_us", "queue_wait_us"})
      if (b->contains(block))
        check_ceilings(std::string("serve.") + block, b->at(block),
                       &server->at(block), "", checks);
    check_bound(*b, "error_rate_max", "serve.error_rate",
                ratio(*server, "failed", "submitted"), checks);
    check_bound(*b, "min_throughput_rps", "serve.throughput_rps",
                stats.at("throughput_rps").as_double(), checks);
  }
  if (const Json* b = maybe_at(budget, "tasks"))
    for (const auto& [task, ceilings] : b->fields())
      check_ceilings("tasks." + task, ceilings,
                     maybe_at(server->at("tasks"), task), "", checks);
  const Json* overhead = maybe_at(budget, "obs_overhead");
  if (obs_stats != nullptr && overhead != nullptr) {
    // Overhead is the throughput lost with CLPP_OBS=1; instrumentation
    // coming out *faster* (scheduling noise) counts as zero overhead.
    const double off_rps = stats.at("throughput_rps").as_double();
    const double on_rps = obs_stats->at("throughput_rps").as_double();
    check_bound(*overhead, "max_fraction", "obs_overhead.fraction",
                off_rps > 0 ? std::max(0.0, (off_rps - on_rps) / off_rps) : 0.0,
                checks);
  }
  if (const Json* b = maybe_at(budget, "quality"))
    check_quality(*b, stats, quality_warn_only, checks);
  return checks;
}

/// clpp.shard_loadgen.v1 (client-observed outcomes, with the supervisor's
/// stats embedded under "server") against the "shard" block.
std::vector<Check> evaluate_shard(const Json& budget, const Json& stats) {
  std::vector<Check> checks;
  const Json* b = budget_block(budget, "shard", "clpp.shard_loadgen.v1");
  if (b == nullptr) return checks;
  // The headline: a crash of one shard loses no accepted request. lost
  // counts client requests that went unanswered (broken connection), which
  // only happens when the *front end* — not a shard — died.
  check_bound(*b, "lost_max", "shard.lost", stats.at("lost").as_double(),
              checks);
  check_bound(*b, "error_rate_max", "shard.error_rate",
              ratio(stats, "errors", "requests"), checks);
  if (b->contains("client_latency_us"))
    check_ceilings("shard.latency_us", b->at("client_latency_us"),
                   &stats.at("client"), "_us", checks);
  check_bound(*b, "min_throughput_rps", "shard.throughput_rps",
              stats.at("throughput_rps").as_double(), checks);
  // Supervisor-side follow-up: even under crash recovery, no accepted
  // request may end in an "unavailable" completion (that would mean every
  // shard was down or retired with work still queued).
  if (const Json* server = maybe_at(stats, "server"))
    check_bound(*b, "unavailable_max", "shard.unavailable",
                server->at("unavailable").as_double(), checks);
  else if (b->contains("unavailable_max"))
    std::fprintf(stderr,
                 "clpp-report: shard artifact has no server stats block, "
                 "skipping shard.unavailable\n");
  return checks;
}

/// clpp.shard_scaling.v1 against the "scaling" block. The per-core floor
/// is judged at min(shards, ncores): the bench cannot scale past the cores
/// the runner has.
std::vector<Check> evaluate_scaling(const Json& budget, const Json& stats) {
  std::vector<Check> checks;
  const Json* b = budget_block(budget, "scaling", "clpp.shard_scaling.v1");
  if (b == nullptr) return checks;
  const Json& cache_win = stats.at("cache_win");
  check_bound(*b, "min_per_core_speedup", "scaling.per_core_speedup",
              stats.at("scaling").at("per_core_speedup").as_double(), checks);
  check_bound(*b, "min_cache_speedup", "scaling.cache_speedup",
              cache_win.at("speedup").as_double(), checks);
  check_bound(*b, "min_hit_rate", "scaling.cache_hit_rate",
              cache_win.at("hit_rate").as_double(), checks);
  check_bound(*b, "lost_max", "scaling.lost", stats.at("lost").as_double(),
              checks);
  if (b->get_bool("require_identical_verdicts", false))
    checks.push_back({"scaling.verdict_mismatches",
                      stats.at("verdict_mismatches").as_double(), 0.0});
  const Json* latency = maybe_at(*b, "client_latency_us");
  if (latency == nullptr) return checks;
  const Json& points = stats.at("points");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Json& point = points.at(i);
    std::ostringstream name;
    name << "scaling.p99[shards=" << point.at("shards").as_int() << ",dup="
         << static_cast<int>(point.at("dup_rate").as_double() * 100.0)
         << ",cache=" << (point.at("cache_cap").as_int() > 0 ? "on" : "off")
         << "]";
    check_bound(*latency, "p99_max", name.str(),
                point.at("latency_us").at("p99").as_double(), checks);
  }
  return checks;
}

int run_slo(const ArgParser& parser) {
  const std::string stats_path = parser.get_string("stats");
  if (stats_path.empty()) throw InvalidArgument("pass --stats <artifact>");
  const Json budget = load_artifact(parser.get_string("budget"));
  const Json stats = load_artifact(stats_path);
  Json obs_stats;
  const std::string obs_path = parser.get_string("obs-stats");
  if (!obs_path.empty()) obs_stats = load_artifact(obs_path);

  const std::string& schema = stats.at("schema").as_string();
  const std::vector<Check> checks =
      schema == "clpp.shard_scaling.v1" ? evaluate_scaling(budget, stats)
      : schema == "clpp.shard_loadgen.v1"
          ? evaluate_shard(budget, stats)
          : evaluate_serve(budget, stats,
                           obs_path.empty() ? nullptr : &obs_stats,
                           parser.get_flag("quality-warn-only"));

  std::size_t failures = 0;
  std::size_t warnings = 0;
  for (const Check& check : checks)
    if (!check.ok()) ++(check.warn ? warnings : failures);

  if (parser.get_flag("json")) {
    Json verdict = Json::object();
    verdict["schema"] = "clpp.slo_verdict.v1";
    verdict["checks"] = Json::array();
    for (const Check& check : checks) {
      Json entry = Json::object();
      entry["name"] = check.name;
      entry["value"] = check.value;
      entry["bound"] = check.bound;
      entry["op"] = check.op();
      entry["ok"] = check.ok();
      entry["warn"] = check.warn;
      verdict["checks"].push_back(std::move(entry));
    }
    verdict["failures"] = failures;
    verdict["warnings"] = warnings;
    verdict["ok"] = failures == 0;
    std::printf("%s\n", verdict.dump().c_str());
  } else {
    for (const Check& check : checks)
      std::printf("%s %s: %.3f %s %.3f\n",
                  check.ok() ? "PASS" : (check.warn ? "WARN" : "FAIL"),
                  check.name.c_str(), check.value, check.op(), check.bound);
    std::printf("%zu/%zu checks passed (%zu warn-only)\n",
                checks.size() - failures - warnings, checks.size(), warnings);
  }
  return failures == 0 ? 0 : 1;
}

// -------------------------------------------------------- diff, summarize

int run_diff(const ArgParser& parser) {
  if (parser.positional().size() != 2)
    throw InvalidArgument("pass BASE_DIR CURRENT_DIR");
  const double threshold = parser.get_double("threshold");
  if (threshold < 0.0) throw InvalidArgument("--threshold must be >= 0");
  const auto base =
      prof::flatten_series(prof::scan_artifacts(parser.positional()[0]));
  const auto current =
      prof::flatten_series(prof::scan_artifacts(parser.positional()[1]));
  const prof::DiffReport report = prof::diff_series(base, current, threshold);
  if (parser.get_flag("json"))
    std::printf("%s\n", prof::diff_to_json(report).dump().c_str());
  else
    std::printf("%s", prof::render_diff(report, parser.get_flag("all")).c_str());
  return report.regressions() > 0 ? 1 : 0;
}

int run_summarize(const ArgParser& parser) {
  if (parser.positional().size() != 1)
    throw InvalidArgument("pass one bench artifacts directory");
  std::printf("wrote %s\n", prof::write_summary(parser.positional()[0]).c_str());
  return 0;
}

// ---------------------------------------------------------------- commands

struct Command {
  const char* name;
  const char* blurb;
  void (*declare)(ArgParser&);
  int (*run)(const ArgParser&);
};

const Command kCommands[] = {
    {"schema",
     "validate clpp.*.v1 artifacts, embedded documents included, against "
     "the schema table",
     [](ArgParser&) {}, run_schema},
    {"slo",
     "evaluate a loadgen or scaling artifact against declarative "
     "latency/error/overhead/quality budgets",
     [](ArgParser& p) {
       p.add_string("budget", "slo/budgets.json",
                    "clpp.slo_budget.v1 budget document");
       p.add_string("stats", "",
                    "clpp.serve_loadgen.v1, clpp.shard_loadgen.v1 or "
                    "clpp.shard_scaling.v1 artifact");
       p.add_string("obs-stats", "",
                    "same loadgen re-run under CLPP_OBS=1, enabling the "
                    "instrumentation-overhead check");
       p.add_flag("json", "emit a clpp.slo_verdict.v1 document on stdout");
       p.add_flag("quality-warn-only",
                  "model-quality budget violations print WARN instead of "
                  "failing the gate");
     },
     run_slo},
    {"quality",
     "summarize the model-quality block of loadgen artifacts",
     [](ArgParser& p) {
       p.add_flag("json", "emit a clpp.insight_report.v1 document");
     },
     run_quality},
    {"diff",
     "compare two bench_artifacts/ directories and flag perf regressions",
     [](ArgParser& p) {
       p.add_double("threshold", 0.2,
                    "relative slowdown that counts as a regression "
                    "(0.2 = 20%)");
       p.add_flag("all", "show untracked (informational) series too");
       p.add_flag("json", "emit the diff as JSON instead of a table");
     },
     run_diff},
    {"summarize", "merge one bench_artifacts/ directory into BENCH_summary.json",
     [](ArgParser&) {}, run_summarize},
};

std::string usage() {
  std::string text =
      "clpp-report — one reader for clpp.*.v1 artifacts\n\n"
      "usage: clpp-report COMMAND [ARGS...] (COMMAND --help for options)\n\n";
  for (const Command& command : kCommands)
    text += "  " + pad_right(command.name, 11) + command.blurb + "\n";
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string name = argc > 1 ? argv[1] : "";
    if (name == "--help" || name == "-h") {
      std::fputs(usage().c_str(), stdout);
      return 0;
    }
    for (const Command& command : kCommands) {
      if (name != command.name) continue;
      ArgParser parser("clpp-report " + name, command.blurb);
      command.declare(parser);
      if (!parser.parse(argc - 1, argv + 1)) return 0;
      return command.run(parser);
    }
    throw InvalidArgument(
        "pass a command: schema, slo, quality, diff or summarize "
        "(clpp-report --help)");
  } catch (const std::exception& e) {
    return report_cli_error("clpp-report", e);
  }
}
