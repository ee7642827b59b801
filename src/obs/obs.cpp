#include "obs/obs.h"

#include <cstdlib>
#include <cstdio>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "obs/trace.h"
#include "prof/sampler.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/json.h"

namespace clpp::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

std::string& trace_out_path() {
  static std::string path;
  return path;
}

std::string& metrics_out_path() {
  static std::string path;
  return path;
}

std::string& flame_out_path() {
  static std::string path;
  return path;
}

// Temp + rename (no clpp_resil here — resil layers on top of obs): a crash
// or a full disk mid-export never clobbers a previously exported file.
void write_text_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) throw IoError("cannot open output file: " + tmp);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    throw IoError("short write to output file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename into place: " + path);
  }
}

// One failed export must not cost the others.
template <typename Render>
void export_file(const std::string& path, Render render) {
  if (path.empty()) return;
  try {
    write_text_file(path, render());
  } catch (const Error& e) {
    std::fprintf(stderr, "clpp::obs: export failed: %s\n", e.what());
  }
}

void register_exit_export() {
  static bool registered = false;
  if (registered) return;
  // Force-construct every static the handler touches *before* registering
  // it: function-local statics constructed after the std::atexit call would
  // be destroyed before the handler runs (destruction is interleaved with
  // atexit callbacks in reverse registration order).
  trace_out_path();
  metrics_out_path();
  flame_out_path();
  metrics();
  Tracer::instance();
  prof::Sampler::instance();
  std::atexit(export_configured_outputs);
  registered = true;
}

}  // namespace

void set_enabled(bool on) {
  if (on) Tracer::now_ns();  // anchor the trace epoch
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_trace_out(std::string path) {
  trace_out_path() = std::move(path);
  if (!trace_out_path().empty()) register_exit_export();
}

void set_metrics_out(std::string path) {
  metrics_out_path() = std::move(path);
  if (!metrics_out_path().empty()) register_exit_export();
}

void set_flame_out(std::string path) {
  flame_out_path() = std::move(path);
  if (flame_out_path().empty()) return;
  register_exit_export();
  prof::Sampler& sampler = prof::Sampler::instance();
  if (!sampler.running()) sampler.start();
}

void export_configured_outputs() {
  export_file(trace_out_path(),
              [] { return Tracer::instance().chrome_trace().dump(); });
  export_file(metrics_out_path(), [] { return metrics().to_json().dump(); });
  if (flame_out_path().empty()) return;
  prof::Sampler& sampler = prof::Sampler::instance();
  sampler.stop();
  if (sampler.samples() > 0)
    export_file(flame_out_path(), [&] { return sampler.collapsed(); });
}

void init_from_env() {
  if (const char* v = std::getenv("CLPP_OBS"))
    set_enabled(v[0] != '\0' && v[0] != '0');
  if (const char* v = std::getenv("CLPP_TRACE_OUT")) set_trace_out(v);
  if (const char* v = std::getenv("CLPP_METRICS_OUT")) set_metrics_out(v);
  if (const char* v = std::getenv("CLPP_FLAME_OUT")) set_flame_out(v);
  if (const char* v = std::getenv("CLPP_LOG_LEVEL"))
    set_log_level(parse_log_level(v));
  if (const char* v = std::getenv("CLPP_LOG_OUT")) set_log_path(v);
  if (const char* v = std::getenv("CLPP_FLIGHT_OUT")) set_flight_out(v);
  install_crash_handlers();
  if (const char* v = std::getenv("CLPP_METRICS_STREAM")) {
    std::uint64_t interval_ms = 500;
    if (const char* ms = std::getenv("CLPP_METRICS_STREAM_MS")) {
      const long parsed = std::atol(ms);
      if (parsed > 0) interval_ms = static_cast<std::uint64_t>(parsed);
    }
    MetricsStreamer::instance().start(v, interval_ms);
  }
}

namespace {
// Any binary linking clpp_obs picks up the CLPP_* environment at start, and
// installs the fatal hook that dumps the flight recorder from the CLI
// exception boundary (support cannot link obs, so obs reaches down).
[[maybe_unused]] const bool g_env_applied = [] {
  init_from_env();
  set_fatal_hook([] { dump_flight("cli_fatal"); });
  return true;
}();
}  // namespace

}  // namespace clpp::obs
