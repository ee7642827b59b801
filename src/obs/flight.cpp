#include "obs/flight.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "support/json.h"

namespace clpp::obs {

namespace {

/// One ring slot. Fields are individually-relaxed atomics so a dump racing
/// a wrap-around writer reads a possibly mixed but never torn event — the
/// flight recorder must stay readable from a crash path while every other
/// thread keeps running.
struct Slot {
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<const char*> kind{nullptr};
  std::atomic<std::int64_t> a{0};
  std::atomic<std::int64_t> b{0};
};

struct ThreadRing {
  explicit ThreadRing(std::uint32_t id) : tid(id), slots(kFlightCapacity) {}
  std::uint32_t tid;
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> count{0};  // monotonic; slot = count % capacity
};

struct FlightState {
  std::mutex mu;  // guards ring registration, reset, and the dump path
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::atomic<std::uint64_t> reset_generation{0};
  std::string out_path = "clpp_flight.json";
  std::atomic<bool> dump_on_fault{false};
};

FlightState& state() {
  static FlightState* s = new FlightState;  // leaked: usable during exit/crash
  return *s;
}

// --- async-signal-safe mirrors ---------------------------------------------
//
// A signal handler cannot take state().mu or touch std::string, so the two
// pieces of state the crash dump needs are mirrored into lock-free storage:
// the ring pointers (rings are never freed — reset only abandons them — so
// a registered pointer stays valid forever) and the dump path (fixed char
// buffer, rewritten under the mutex by set_flight_out, read raw by the
// handler; a torn read costs a garbled filename, never memory safety).

constexpr std::size_t kMaxRegisteredRings = 256;
std::atomic<ThreadRing*> g_ring_registry[kMaxRegisteredRings];
std::atomic<std::size_t> g_ring_registered{0};

constexpr std::size_t kCrashPathMax = 512;
char g_crash_path[kCrashPathMax] = "clpp_flight.json";

void register_ring(ThreadRing* ring) {
  const std::size_t slot =
      g_ring_registered.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxRegisteredRings)
    g_ring_registry[slot].store(ring, std::memory_order_release);
}

void mirror_crash_path(const std::string& path) {
  const std::size_t n = std::min(path.size(), kCrashPathMax - 1);
  std::memcpy(g_crash_path, path.data(), n);
  g_crash_path[n] = '\0';
}

ThreadRing& ring_for_this_thread() {
  struct Cache {
    ThreadRing* ring = nullptr;
    std::uint64_t generation = 0;
  };
  thread_local Cache cache;
  FlightState& s = state();
  const std::uint64_t generation =
      s.reset_generation.load(std::memory_order_acquire);
  if (cache.ring == nullptr || cache.generation != generation) {
    std::lock_guard<std::mutex> lock(s.mu);
    auto ring =
        std::make_unique<ThreadRing>(static_cast<std::uint32_t>(s.rings.size()));
    cache.ring = ring.get();
    cache.generation = generation;
    register_ring(ring.get());
    s.rings.push_back(std::move(ring));
  }
  return *cache.ring;
}

}  // namespace

void flight_record(const char* kind, std::int64_t a, std::int64_t b) {
  ThreadRing& ring = ring_for_this_thread();
  const std::uint64_t i = ring.count.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[i % kFlightCapacity];
  slot.ts_ns.store(Tracer::now_ns(), std::memory_order_relaxed);
  slot.kind.store(kind, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  ring.count.store(i + 1, std::memory_order_release);
}

Json flight_json(const std::string& reason) {
  FlightState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  Json events = Json::array();
  for (const auto& ring : s.rings) {
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    recorded += n;
    if (n > kFlightCapacity) dropped += n - kFlightCapacity;
    const std::uint64_t live = std::min<std::uint64_t>(n, kFlightCapacity);
    for (std::uint64_t i = n - live; i < n; ++i) {
      const Slot& slot = ring->slots[i % kFlightCapacity];
      const char* kind = slot.kind.load(std::memory_order_relaxed);
      if (kind == nullptr) continue;  // slot raced a concurrent wrap
      Json ev = Json::object();
      ev["ts_us"] =
          static_cast<double>(slot.ts_ns.load(std::memory_order_relaxed)) / 1e3;
      ev["tid"] = static_cast<std::int64_t>(ring->tid);
      ev["kind"] = std::string(kind);
      ev["a"] = slot.a.load(std::memory_order_relaxed);
      ev["b"] = slot.b.load(std::memory_order_relaxed);
      events.push_back(std::move(ev));
    }
  }
  Json doc = Json::object();
  doc["schema"] = "clpp.flight.v1";
  doc["reason"] = reason;
  doc["recorded"] = static_cast<std::int64_t>(recorded);
  doc["dropped"] = static_cast<std::int64_t>(dropped);
  doc["events"] = std::move(events);
  return doc;
}

void set_flight_out(std::string path) {
  FlightState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.out_path = std::move(path);
  mirror_crash_path(s.out_path);
  s.dump_on_fault.store(!s.out_path.empty(), std::memory_order_relaxed);
}

std::string flight_out() {
  FlightState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.out_path;
}

bool flight_dump_on_fault() {
  return state().dump_on_fault.load(std::memory_order_relaxed);
}

bool dump_flight(const std::string& reason) noexcept {
  try {
    const std::string path = flight_out();
    if (path.empty()) return false;
    const std::string text = flight_json(reason).dump();
    // Plain fopen/fwrite, no temp+rename: this runs on crash paths where
    // simplicity beats atomicity, and a half-written dump still beats none.
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    if (written != text.size()) return false;
    std::fprintf(stderr, "clpp::obs: flight recorder dumped to %s (%s)\n",
                 path.c_str(), reason.c_str());
    return true;
  } catch (...) {
    return false;
  }
}

namespace {

/// Buffered write(2) sink for the crash path: everything on the stack,
/// partial writes retried, errors swallowed (a half dump beats none).
struct RawWriter {
  int fd = -1;
  char buf[4096] = {};
  std::size_t len = 0;

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(const char* data, std::size_t n) {
    while (n > 0) {
      if (len == sizeof buf) flush();
      const std::size_t chunk = std::min(n, sizeof buf - len);
      std::memcpy(buf + len, data, chunk);
      len += chunk;
      data += chunk;
      n -= chunk;
    }
  }
  void lit(const char* s) { put(s, std::strlen(s)); }
  void num(std::int64_t v) {
    char digits[24];
    char* end = digits + sizeof digits;
    char* p = end;
    const bool negative = v < 0;
    std::uint64_t u =
        negative ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
    do {
      *--p = static_cast<char>('0' + u % 10);
      u /= 10;
    } while (u != 0);
    if (negative) *--p = '-';
    put(p, static_cast<std::size_t>(end - p));
  }
  /// kind strings are trusted literals (identifiers and dots); the only
  /// escaping a crash dump needs is to drop anything JSON-hostile.
  void str(const char* s) {
    put("\"", 1);
    for (; *s != '\0'; ++s)
      if (*s != '"' && *s != '\\' && static_cast<unsigned char>(*s) >= 0x20)
        put(s, 1);
    put("\"", 1);
  }
};

}  // namespace

bool dump_flight_async_safe(const char* reason) noexcept {
  if (g_crash_path[0] == '\0') return false;
  const int fd =
      ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;

  const std::size_t registered = std::min<std::size_t>(
      g_ring_registered.load(std::memory_order_acquire), kMaxRegisteredRings);
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  for (std::size_t r = 0; r < registered; ++r) {
    const ThreadRing* ring = g_ring_registry[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    recorded += n;
    if (n > kFlightCapacity) dropped += n - kFlightCapacity;
  }

  RawWriter out{fd};
  out.lit("{\"schema\":\"clpp.flight.v1\",\"reason\":");
  out.str(reason);
  out.lit(",\"recorded\":");
  out.num(static_cast<std::int64_t>(recorded));
  out.lit(",\"dropped\":");
  out.num(static_cast<std::int64_t>(dropped));
  out.lit(",\"events\":[");
  bool first = true;
  for (std::size_t r = 0; r < registered; ++r) {
    const ThreadRing* ring = g_ring_registry[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    const std::uint64_t live = std::min<std::uint64_t>(n, kFlightCapacity);
    for (std::uint64_t i = n - live; i < n; ++i) {
      const Slot& slot = ring->slots[i % kFlightCapacity];
      const char* kind = slot.kind.load(std::memory_order_relaxed);
      if (kind == nullptr) continue;
      if (!first) out.lit(",");
      first = false;
      out.lit("{\"ts_us\":");
      out.num(static_cast<std::int64_t>(
          slot.ts_ns.load(std::memory_order_relaxed) / 1000));
      out.lit(",\"tid\":");
      out.num(static_cast<std::int64_t>(ring->tid));
      out.lit(",\"kind\":");
      out.str(kind);
      out.lit(",\"a\":");
      out.num(slot.a.load(std::memory_order_relaxed));
      out.lit(",\"b\":");
      out.num(slot.b.load(std::memory_order_relaxed));
      out.lit("}");
    }
  }
  out.lit("]}\n");
  out.flush();
  ::close(fd);

  static const char kNote[] = "clpp::obs: flight recorder dumped (signal)\n";
  const ssize_t ignored = ::write(2, kNote, sizeof kNote - 1);
  (void)ignored;
  return true;
}

namespace {

void crash_signal_handler(int sig) {
  const char* name = "signal";
  switch (sig) {
    case SIGSEGV: name = "SIGSEGV"; break;
    case SIGABRT: name = "SIGABRT"; break;
    case SIGBUS: name = "SIGBUS"; break;
    case SIGFPE: name = "SIGFPE"; break;
    case SIGILL: name = "SIGILL"; break;
  }
  dump_flight_async_safe(name);
  // SA_RESETHAND restored the default disposition before we ran; re-raising
  // now terminates with the expected signal status (and core, if enabled).
  ::raise(sig);
}

}  // namespace

void install_crash_handlers() {
  static const bool installed = [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = crash_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESETHAND | SA_NODEFER;
    for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
      ::sigaction(sig, &action, nullptr);
    return true;
  }();
  (void)installed;
}

std::uint64_t flight_recorded() {
  FlightState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t total = 0;
  for (const auto& ring : s.rings)
    total += ring->count.load(std::memory_order_acquire);
  return total;
}

std::uint64_t flight_dropped() {
  FlightState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t total = 0;
  for (const auto& ring : s.rings) {
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    if (n > kFlightCapacity) total += n - kFlightCapacity;
  }
  return total;
}

void reset_flight() {
  FlightState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  // Abandon old rings (writers mid-record stay safe until they observe the
  // new generation), mirroring Tracer::reset.
  s.reset_generation.fetch_add(1, std::memory_order_release);
  for (auto& ring : s.rings) ring->count.store(0, std::memory_order_relaxed);
}

}  // namespace clpp::obs
