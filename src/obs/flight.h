// Always-on flight recorder: a lock-free per-thread ring buffer of the last
// ~4k structured events, dumped to a JSON artifact when something goes
// fatally wrong — so a crash ships its recent history instead of nothing.
//
// Unlike the span tracer (off by default, per-span timing), the flight
// recorder is always on and records point events, not durations:
//
//   obs::flight_record("serve.batch", batch_size);   // ~3 relaxed stores
//
// `kind` must be a string literal (the ring stores the pointer). Each
// thread owns a fixed ring of `kFlightCapacity` slots whose fields are
// relaxed atomics: recording never takes a lock, a reader (the dump path,
// possibly mid-crash on another thread) never tears the ring structure, and
// the worst concurrent-wrap artifact is one mixed-field event.
//
// Dump triggers:
//   - the CLI fatal boundary (`clpp::report_cli_error`) via the fatal hook
//     obs installs at process start;
//   - clpp::resil injected faults, when a dump path has been configured
//     (`CLPP_FLIGHT_OUT` / `set_flight_out`) — fault-injection runs opt in
//     so ordinary resilience tests don't spray artifacts;
//   - fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) via the
//     handlers obs installs at process start, which take the
//     async-signal-safe path (`dump_flight_async_safe`: write(2) only, no
//     locks, no allocation) before re-raising with default disposition.
//
// Environment: CLPP_FLIGHT_OUT=PATH sets the dump destination (default
// "clpp_flight.json") and additionally arms dump-on-injected-fault.
// Recording and the signal handlers have no off switch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace clpp {
class Json;  // support/json.h
}

namespace clpp::obs {

/// Slots per recording thread (the "last ~4k events" guarantee).
inline constexpr std::size_t kFlightCapacity = 4096;

/// Records one event on the calling thread's ring. `kind` must be a string
/// literal; `a`/`b` are free-form numeric payload (sizes, ids, arrivals).
void flight_record(const char* kind, std::int64_t a = 0, std::int64_t b = 0);

/// Everything currently held in the rings, oldest-first per thread:
/// {"schema":"clpp.flight.v1","reason":...,"recorded":N,"dropped":N,
///  "events":[{"ts_us":...,"tid":T,"kind":"...","a":...,"b":...}]}.
Json flight_json(const std::string& reason);

/// Where `dump_flight` writes. Setting a path (programmatically or via
/// CLPP_FLIGHT_OUT) also arms dumping on injected resil faults.
void set_flight_out(std::string path);
std::string flight_out();
/// True once a dump path was explicitly configured (not just defaulted).
bool flight_dump_on_fault();

/// Writes `flight_json(reason)` to `flight_out()`. Never throws; returns
/// false (and stays silent) when the path is empty or the write fails — the
/// dump path runs inside crash handling, which must not crash.
bool dump_flight(const std::string& reason) noexcept;

/// Async-signal-safe variant: writes a `clpp.flight.v1` document to the
/// configured dump path using only open(2)/write(2) with a fixed stack
/// buffer — no locks, no allocation, no stdio — so it is legal inside a
/// SIGSEGV handler. Rings are found through a lock-free registry (rings
/// are never freed, so the pointers stay valid mid-crash). The one shape
/// difference from `dump_flight`: `ts_us` is emitted as an integer.
bool dump_flight_async_safe(const char* reason) noexcept;

/// Installs fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL)
/// that call `dump_flight_async_safe(<signal name>)` and then re-raise with
/// the default disposition, so a crash ships its flight recording *and*
/// still dies with the expected signal status. Idempotent.
void install_crash_handlers();

/// Totals across all rings since the last reset.
std::uint64_t flight_recorded();
std::uint64_t flight_dropped();

/// Drops all buffered events and accounting (tests).
void reset_flight();

}  // namespace clpp::obs
