#include "prof/sampler.h"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "support/error.h"

#if defined(__has_include)
#if __has_include(<execinfo.h>) && __has_include(<dlfcn.h>)
#define CLPP_PROF_HAVE_BACKTRACE 1
#endif
#endif

#if defined(CLPP_PROF_HAVE_BACKTRACE)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#endif

namespace clpp::prof {

void StackCollapser::add(const std::vector<std::string>& frames,
                         std::uint64_t count) {
  if (frames.empty() || count == 0) return;
  std::string key;
  for (const std::string& frame : frames) {
    if (!key.empty()) key += ';';
    for (char c : frame) key += c == ';' ? ':' : c;
  }
  counts_[key] += count;
}

std::uint64_t StackCollapser::total() const {
  std::uint64_t n = 0;
  for (const auto& [stack, count] : counts_) n += count;
  return n;
}

std::string StackCollapser::str() const {
  std::string out;
  for (const auto& [stack, count] : counts_) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::map<std::string, std::uint64_t> StackCollapser::parse(
    std::string_view text) {
  std::map<std::string, std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0 ||
        space + 1 == line.size())
      throw InvalidArgument("malformed collapsed-stack line: " +
                            std::string(line));
    std::uint64_t count = 0;
    for (char c : line.substr(space + 1)) {
      if (c < '0' || c > '9')
        throw InvalidArgument("malformed collapsed-stack count: " +
                              std::string(line));
      count = count * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out[std::string(line.substr(0, space))] += count;
  }
  return out;
}

#if defined(CLPP_PROF_HAVE_BACKTRACE)

namespace {

constexpr int kMaxDepth = 32;
// ~5.6 minutes of profiling at the default 97 Hz before dropping.
constexpr std::size_t kMaxSamples = 1 << 15;
// backtrace() from the signal handler sees [handler, trampoline, ...pc];
// these top frames are sampler plumbing, not program state.
constexpr int kSkipFrames = 2;

struct RawSample {
  const char* label;
  int depth;
  void* pc[kMaxDepth];
};

// Signal-handler shared state. The buffer is preallocated in start() so the
// handler never allocates; `cursor` is the only write coordination needed.
std::vector<RawSample>* g_buffer = nullptr;
std::atomic<std::uint64_t> g_cursor{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_armed{false};
bool g_running = false;
struct sigaction g_old_action;

thread_local const char* t_label = "thread";

void on_sigprof(int) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const std::uint64_t i = g_cursor.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    RawSample& s = (*g_buffer)[i];
    s.label = t_label;
    s.depth = backtrace(s.pc, kMaxDepth);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

std::string symbolize(void* pc) {
  Dl_info info{};
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string out(demangled);
      std::free(demangled);
      return out;
    }
    return info.dli_sname;
  }
  char buf[64];
  if (info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    std::snprintf(buf, sizeof(buf), "%s+0x%zx", base,
                  static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(pc) -
                                           reinterpret_cast<std::uintptr_t>(info.dli_fbase)));
  } else {
    std::snprintf(buf, sizeof(buf), "0x%zx",
                  static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(pc)));
  }
  return buf;
}

}  // namespace

void set_thread_label(const char* label) {
  if (label != nullptr) t_label = label;
}

Sampler& Sampler::instance() {
  static Sampler sampler;
  return sampler;
}

bool Sampler::start(int hz) {
  if (g_running || hz <= 0 || hz > 10000) return false;
  if (g_buffer == nullptr) g_buffer = new std::vector<RawSample>(kMaxSamples);
  // Prime backtrace: its first call may dlopen libgcc, which is not
  // async-signal-safe; do it here instead of inside the handler.
  void* prime[2];
  backtrace(prime, 2);
  set_thread_label("main");

  struct sigaction sa{};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_old_action) != 0) return false;

  g_armed.store(true, std::memory_order_relaxed);
  itimerval timer{};
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = static_cast<suseconds_t>(1000000 / hz);
  if (timer.it_interval.tv_usec == 0) timer.it_interval.tv_usec = 1;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_armed.store(false, std::memory_order_relaxed);
    sigaction(SIGPROF, &g_old_action, nullptr);
    return false;
  }
  g_running = true;
  return true;
}

void Sampler::stop() {
  if (!g_running) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_armed.store(false, std::memory_order_relaxed);
  sigaction(SIGPROF, &g_old_action, nullptr);
  g_running = false;
}

bool Sampler::running() const { return g_running; }

std::uint64_t Sampler::samples() const {
  const std::uint64_t n = g_cursor.load(std::memory_order_relaxed);
  return n < kMaxSamples ? n : kMaxSamples;
}

std::uint64_t Sampler::dropped() const {
  return g_dropped.load(std::memory_order_relaxed);
}

void Sampler::reset() {
  if (g_running) return;
  g_cursor.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

std::string Sampler::collapsed() const {
  StackCollapser collapser;
  if (g_buffer == nullptr) return collapser.str();
  std::map<void*, std::string> symbols;
  const std::uint64_t n = samples();
  std::vector<std::string> frames;
  for (std::uint64_t i = 0; i < n; ++i) {
    const RawSample& s = (*g_buffer)[i];
    frames.clear();
    frames.push_back(s.label != nullptr ? s.label : "thread");
    // Raw frames are leaf-first; emit root-first and skip handler frames.
    for (int f = s.depth - 1; f >= kSkipFrames; --f) {
      auto [it, inserted] = symbols.try_emplace(s.pc[f]);
      if (inserted) it->second = symbolize(s.pc[f]);
      frames.push_back(it->second);
    }
    if (frames.size() > 1) collapser.add(frames);
  }
  return collapser.str();
}

#else  // !CLPP_PROF_HAVE_BACKTRACE

void set_thread_label(const char*) {}

Sampler& Sampler::instance() {
  static Sampler sampler;
  return sampler;
}

bool Sampler::start(int) { return false; }
void Sampler::stop() {}
bool Sampler::running() const { return false; }
std::uint64_t Sampler::samples() const { return 0; }
std::uint64_t Sampler::dropped() const { return 0; }
void Sampler::reset() {}
std::string Sampler::collapsed() const { return {}; }

#endif

}  // namespace clpp::prof
