// Perf-regression tracking over `bench_artifacts/` directories.
//
// `run_benches.sh` leaves three artifact families per bench:
//   BENCH_<name>.metrics.json   clpp::obs metrics snapshot
//   BENCH_<name>.trace.json     Chrome trace (wall-clock extent)
//   BENCH_<name>.json           google-benchmark report (micro kernels)
//
// This module turns two such directories into a comparable set of named
// numeric series, diffs them, and decides whether any *tracked* series
// (time-like: benchmark real/cpu time, latency-histogram means) regressed
// beyond a threshold — the gate `clpp-report diff` exposes as its exit code.
// It also merges one directory into the single-file BENCH_summary.json
// that captures a run for trajectory tracking.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace clpp {
class Json;  // support/json.h
}

namespace clpp::prof {

/// Everything harvested from one bench's artifact files.
struct BenchArtifacts {
  double wall_seconds = 0.0;  ///< trace extent; 0 when no trace was found
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  /// histogram name → {count, mean, p50, p95, p99, max}
  std::map<std::string, std::map<std::string, double>> histograms;
  /// google-benchmark name → {real_time_ns, cpu_time_ns}
  std::map<std::string, std::map<std::string, double>> benchmarks;
};

/// Scans every `*.json` in `dir` (non-recursive), classifying each file by
/// content. Unreadable or malformed files are skipped. Throws IoError when
/// `dir` does not exist or is not a directory.
std::map<std::string, BenchArtifacts> scan_artifacts(const std::string& dir);

/// Flattens a scan into "bench:kind:series" → value, e.g.
///   "bench_micro_kernels:bench:BM_Gemm/64:real_time_ns"
///   "bench_table3_corpus:counter:clpp.train.epochs"
///   "bench_table3_corpus:hist:clpp.infer.latency_us:mean"
std::map<std::string, double> flatten_series(
    const std::map<std::string, BenchArtifacts>& scan);

/// True for time-like series where an increase is a regression: benchmark
/// real/cpu time and latency-histogram means.
bool series_is_tracked(const std::string& key);

struct DiffRow {
  std::string series;
  double base = 0.0;
  double current = 0.0;
  bool tracked = false;
  bool regressed = false;
  /// current/base - 1 (0 when base is 0).
  double relative_change() const;
};

struct DiffReport {
  std::vector<DiffRow> rows;   ///< series present in both runs
  std::size_t only_base = 0;   ///< series that vanished
  std::size_t only_current = 0;
  double threshold = 0.0;
  std::size_t regressions() const;
};

/// Compares two flattened series maps; a tracked series regresses when
/// current > base * (1 + threshold) and base > 0.
DiffReport diff_series(const std::map<std::string, double>& base,
                       const std::map<std::string, double>& current,
                       double threshold);

/// ASCII delta table (support/table.h); `all` includes untracked series.
std::string render_diff(const DiffReport& report, bool all = false);

/// DiffReport as JSON for machine consumption.
Json diff_to_json(const DiffReport& report);

/// BENCH_summary.json document for one artifacts directory.
Json summarize_artifacts(const std::map<std::string, BenchArtifacts>& scan);

/// Scans `dir` and writes `<dir>/BENCH_summary.json`; returns the path.
std::string write_summary(const std::string& dir);

}  // namespace clpp::prof
