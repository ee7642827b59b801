// clpp::obs — runtime switchboard for the observability layer.
//
// Everything under src/obs is compiled in unconditionally but gated at
// runtime by `obs::enabled()`: the disabled fast path of every recording
// primitive is a single relaxed atomic load plus a predictable branch, so
// the instrumentation in hot kernels (GEMM, parallel_for, attention) costs
// nothing measurable when observability is off (the default). The recorders
// in src/prof (counter scopes, kernel FLOP accounting, the sampling
// profiler) belong to this library and answer to this switchboard too.
//
// Environment integration (applied once at process start for any binary
// that links clpp_obs):
//   CLPP_OBS=1              enable metric recording, span tracing and the
//                           per-thread counter scopes (prof/counters.h)
//   CLPP_TRACE_OUT=PATH     write Chrome trace_event JSON here at exit
//   CLPP_METRICS_OUT=PATH   write the metrics snapshot JSON here at exit
//   CLPP_FLAME_OUT=PATH     start the sampling profiler (prof/sampler.h) at
//                           97 Hz and write collapsed stacks here at exit
//   CLPP_LOG_LEVEL=debug|info|warn|error|off   structured-log threshold
//   CLPP_LOG_OUT=PATH       JSON-lines log sink (default stderr)
//   CLPP_FLIGHT_OUT=PATH    flight-recorder crash-dump destination; also
//                           arms dumping on injected resil faults (flight.h)
//   CLPP_METRICS_STREAM=PATH        stream metrics deltas as JSON lines
//   CLPP_METRICS_STREAM_MS=500      streaming interval (stream.h)
#pragma once

#include <atomic>
#include <string>

namespace clpp::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when metric recording, span tracing and counter scopes are active.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Turns the whole layer on or off at runtime.
void set_enabled(bool on);

/// Applies the environment variables listed above; when an output path is
/// configured it registers an atexit hook invoking `export_configured_outputs`.
/// Runs automatically at process start; calling it again re-reads the
/// environment.
void init_from_env();

/// Overrides the exit-time export destinations (empty string disables).
void set_trace_out(std::string path);
void set_metrics_out(std::string path);
/// A non-empty path also starts the sampling profiler when it is idle.
void set_flame_out(std::string path);

/// Writes the configured trace / metrics / flame files now; no-op for unset
/// paths. The flame export stops the sampler first and is skipped when it
/// captured no samples.
void export_configured_outputs();

}  // namespace clpp::obs
