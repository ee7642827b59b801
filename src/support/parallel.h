// OpenMP-backed parallel loop helpers.
//
// CLPP dogfoods the shared-memory parallelism it studies: GEMM, batched
// inference and clpp-lint's loop over input files use these helpers, which
// degrade gracefully to serial execution when the compiler has no OpenMP
// support.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(_OPENMP)
#include <omp.h>
#endif

// ThreadSanitizer cannot see an OpenMP team's fork and join, because
// libgomp is not instrumented. A function that opens a region is marked
// CLPP_TEAM_FUNCTION and publishes both edges itself: the caller releases a
// token before the region and acquires it after, each member acquires it
// on entry and releases it on exit. The mark leaves the function's own
// frame uninstrumented, including the outlined region that reads the
// caller's shared-variable block; the body it calls is still checked.
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define CLPP_TEAM_FUNCTION __attribute__((no_sanitize("thread")))
#else
#define CLPP_TEAM_FUNCTION
#endif

namespace clpp {

namespace detail {

inline void team_release([[maybe_unused]] void* token) {
#if defined(__SANITIZE_THREAD__)
  __tsan_release(token);
#endif
}

inline void team_acquire([[maybe_unused]] void* token) {
#if defined(__SANITIZE_THREAD__)
  __tsan_acquire(token);
#endif
}

}  // namespace detail

/// Number of threads the parallel helpers will use.
inline int hardware_threads() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Runs body(i) for i in [0, n); iterations must be independent.
/// `grain` suppresses parallelization for loops too small to amortize the
/// fork-join overhead — exactly the RQ1 trade-off the paper studies.
template <typename Body>
CLPP_TEAM_FUNCTION void parallel_for(std::size_t n, const Body& body,
                                     std::size_t grain = 1024) {
#if defined(_OPENMP)
  if (n >= grain && omp_get_max_threads() > 1) {
    obs::record_parallel_loop(n, omp_get_max_threads());
    const std::int64_t count = static_cast<std::int64_t>(n);
    char team = 0;
    detail::team_release(&team);
#pragma omp parallel
    {
      detail::team_acquire(&team);
      // Label team members (not the calling thread) for trace exports.
      if (omp_get_thread_num() != 0) obs::name_worker_thread();
#pragma omp for schedule(static)
      for (std::int64_t i = 0; i < count; ++i) body(static_cast<std::size_t>(i));
      detail::team_release(&team);
    }
    detail::team_acquire(&team);
    return;
  }
#endif
  obs::record_serial_loop(n);
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Team size of parallel_for_dynamic: OpenMP's default, capped at one less
/// than the processors available, and at least 1. A pass is one region
/// that ends at a join, so a team member preempted by other work on its
/// processor (kernel threads, other processes) holds up the whole pass;
/// the free processor takes that work instead.
inline int dynamic_team_size() {
#if defined(_OPENMP)
  return std::max(1, std::min(omp_get_max_threads(), omp_get_num_procs() - 1));
#else
  return 1;
#endif
}

/// parallel_for for a few hundred coarse, uneven units (input files):
/// indices are handed out one at a time (schedule(dynamic, 1)), so a slow
/// unit, or a team member the host preempts, cannot strand a static share
/// behind it. The team has dynamic_team_size() threads. n < 2, or a team of
/// one, runs inline without touching the OpenMP runtime. Every index runs
/// even when some throw; the exception of the lowest throwing index is
/// rethrown after the join, so no exception escapes a team member into
/// std::terminate.
template <typename Body>
CLPP_TEAM_FUNCTION void parallel_for_dynamic(std::size_t n, const Body& body) {
  std::mutex error_mu;
  std::size_t error_index = n;
  std::exception_ptr error;
  const auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
  };
#if defined(_OPENMP)
  const int threads = n >= 2 ? dynamic_team_size() : 1;
  if (threads > 1) {
    obs::record_parallel_loop(n, threads);
    const std::int64_t count = static_cast<std::int64_t>(n);
    char team = 0;
    detail::team_release(&team);
#pragma omp parallel num_threads(threads)
    {
      detail::team_acquire(&team);
      if (omp_get_thread_num() != 0) obs::name_worker_thread();
#pragma omp for schedule(dynamic, 1)
      for (std::int64_t i = 0; i < count; ++i) run(static_cast<std::size_t>(i));
      detail::team_release(&team);
    }
    detail::team_acquire(&team);
    if (error) std::rethrow_exception(error);
    return;
  }
#endif
  obs::record_serial_loop(n);
  for (std::size_t i = 0; i < n; ++i) run(i);
  if (error) std::rethrow_exception(error);
}

}  // namespace clpp
