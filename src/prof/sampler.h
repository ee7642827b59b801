// Sampling profiler: timer-driven backtraces → collapsed stacks.
//
// `Sampler::start(hz)` installs a SIGPROF handler and arms ITIMER_PROF, so
// the kernel delivers a signal to a *running* thread every 1/hz seconds of
// process CPU time — CPU-time sampling with per-thread attribution for
// free. The handler captures a raw `backtrace(3)` into a preallocated
// lock-free buffer; all symbolization (`dladdr` + `__cxa_demangle`) happens
// later on the caller's thread. `collapsed()` renders the classic
// Brendan-Gregg collapsed-stack format:
//
//   main;clpp::core::train_classifier;clpp::gemm 421
//
// one line per unique stack (root first, leaf last), ready for
// flamegraph.pl or https://speedscope.app. On platforms without
// <execinfo.h> `start` returns false and the sampler stays inert.
// `CLPP_FLAME_OUT=PATH` starts it at process start and writes `collapsed()`
// to PATH at exit (obs/obs.h).
//
// `StackCollapser` is the aggregation half factored out for testability:
// feed it symbolized stacks, get the collapsed text back, parse it again.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace clpp::prof {

/// Aggregates root-first symbolized stacks into collapsed-stack text.
class StackCollapser {
 public:
  /// Adds `count` occurrences of a stack (frames ordered root → leaf).
  /// Semicolons inside frame names are replaced with ':' to keep the
  /// format unambiguous.
  void add(const std::vector<std::string>& frames, std::uint64_t count = 1);

  bool empty() const { return counts_.empty(); }
  std::uint64_t total() const;

  /// One "frame;frame;frame count\n" line per unique stack, sorted.
  std::string str() const;

  /// Inverse of `str`: stack line → count. Throws InvalidArgument on a
  /// malformed line.
  static std::map<std::string, std::uint64_t> parse(std::string_view text);

 private:
  std::map<std::string, std::uint64_t> counts_;
};

/// The process-wide sampling profiler. At most one can run (ITIMER_PROF is
/// per-process), hence the singleton.
class Sampler {
 public:
  static Sampler& instance();

  /// Arms the profiler at `hz` samples per CPU-second; the default is
  /// prime, so the timer does not beat against periodic work. Returns false
  /// when already running, hz is invalid, or the platform lacks backtrace
  /// support. Capacity is fixed; samples beyond it are counted as dropped.
  bool start(int hz = 97);

  /// Disarms the timer and restores the previous SIGPROF disposition.
  /// Captured samples are kept until `reset`.
  void stop();

  bool running() const;
  std::uint64_t samples() const;
  std::uint64_t dropped() const;

  /// Discards captured samples (sampler must be stopped).
  void reset();

  /// Symbolizes and aggregates everything captured so far.
  std::string collapsed() const;

 private:
  Sampler() = default;
};

/// Label prefixed as the root frame of this thread's stacks (string literal
/// or otherwise immortal). Defaults to "main" for the thread that calls
/// `Sampler::start`, "thread" elsewhere.
void set_thread_label(const char* label);

}  // namespace clpp::prof
