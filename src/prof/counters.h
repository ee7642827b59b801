// Hardware-counter groups with a universal software fallback.
//
// `CounterGroup` opens one perf_event_open(2) group per thread — cycles
// (leader), instructions, cache-references, cache-misses, branch-misses —
// measuring user-space execution of the calling thread only, so it works
// at perf_event_paranoid<=2 without CAP_PERFMON. When the syscall is
// unavailable (containers with seccomp filters, non-Linux builds, paranoid
// settings) the group silently degrades to software counters: wall time,
// thread CPU time, and rusage deltas (page faults, context switches).
// Every `CounterSample` carries both families, plus `hardware` telling you
// whether the cycle/instruction fields are real.
//
// The RAII entry point is a counter scope, active whenever `CLPP_OBS=1`
// (obs/obs.h):
//
//   void step(...) {
//     prof::ScopedCounters scope(prof::counter_set("train.epoch"));
//     ...
//   }
//
// On scope exit the delta is recorded under `clpp.prof.<name>.*`: counters
// samples / hw_samples / cycles / instructions / cache_references /
// cache_misses / branch_misses / wall_ns / cpu_ns, and gauges ipc /
// cache_miss_rate / cpu_util.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace clpp::prof {

/// One reading of every counter the group knows about. Deltas (end - begin)
/// are what gets reported; absolute values are only meaningful relative to
/// the group's creation.
struct CounterSample {
  bool hardware = false;  ///< cycle/instruction/cache/branch fields are real

  // Hardware family (zero when !hardware).
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;

  // Software family (always filled).
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;  ///< calling thread's CPU time
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t vol_ctx_switches = 0;
  std::uint64_t invol_ctx_switches = 0;

  /// Per-field saturating difference (this - begin).
  CounterSample delta_since(const CounterSample& begin) const;

  /// Instructions per cycle; 0 when cycles are 0 or not hardware-backed.
  double ipc() const;
  /// cache_misses / cache_references in [0, 1]; 0 when unavailable.
  double cache_miss_rate() const;
  /// cpu_ns / wall_ns (can exceed 1 only through clock skew; clamped).
  double cpu_utilization() const;
};

/// A per-thread counter group; `hardware()` reports whether perf events
/// opened. Reads are cheap (one read(2) on the group fd plus three clock
/// reads).
class CounterGroup {
 public:
  /// `try_hardware` false skips perf_event_open and keeps the group on the
  /// software family (tests pin the fallback with it).
  explicit CounterGroup(bool try_hardware = true);
  ~CounterGroup();
  CounterGroup(const CounterGroup&) = delete;
  CounterGroup& operator=(const CounterGroup&) = delete;

  /// True when the perf_event group opened and hardware fields are live.
  bool hardware() const { return leader_fd_ >= 0; }

  /// Samples every counter now.
  CounterSample read() const;

  /// The calling thread's lazily constructed group.
  static CounterGroup& this_thread();

 private:
  void open_hardware();
  void close_hardware();

  int leader_fd_ = -1;
  // fd + destination-field index for each successfully opened event.
  std::array<int, 5> fds_{{-1, -1, -1, -1, -1}};
  std::array<int, 5> fields_{{-1, -1, -1, -1, -1}};
  std::size_t opened_ = 0;
};

/// Cached metric handles for one counter scope name (`clpp.prof.<scope>.*`).
/// Returned references live as long as the process (registry semantics).
struct CounterSet {
  obs::Counter& samples;
  obs::Counter& hw_samples;
  obs::Counter& cycles;
  obs::Counter& instructions;
  obs::Counter& cache_references;
  obs::Counter& cache_misses;
  obs::Counter& branch_misses;
  obs::Counter& wall_ns;
  obs::Counter& cpu_ns;
  obs::Gauge& ipc;
  obs::Gauge& cache_miss_rate;
  obs::Gauge& cpu_util;
};

/// Looks up (creating on first use) the metric set for `scope`.
CounterSet& counter_set(const std::string& scope);

/// RAII counter region: samples the thread's group on entry, records the
/// delta into `set` on exit. Inactive (one relaxed load) unless obs is
/// enabled.
class ScopedCounters {
 public:
  explicit ScopedCounters(CounterSet& set);
  ~ScopedCounters();
  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;

  bool active() const { return active_; }
  /// Delta from scope entry to now (all-zero when inactive).
  CounterSample delta() const;

 private:
  CounterSet& set_;
  bool active_;
  CounterSample begin_;
};

}  // namespace clpp::prof
