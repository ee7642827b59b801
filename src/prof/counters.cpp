#include "prof/counters.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#define CLPP_PROF_HAVE_PERF 1
#endif

namespace clpp::prof {

namespace {

std::uint64_t wall_now_ns() {
  using clock = std::chrono::steady_clock;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_now_ns() {
#if defined(__linux__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  return 0;
#else
  return 0;
#endif
}

void fill_rusage(CounterSample& s) {
#if defined(__linux__)
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) == 0) {
    s.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    s.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    s.vol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
    s.invol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
#else
  (void)s;
#endif
}

std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

CounterSample CounterSample::delta_since(const CounterSample& begin) const {
  CounterSample d;
  d.hardware = hardware && begin.hardware;
  d.cycles = sat_sub(cycles, begin.cycles);
  d.instructions = sat_sub(instructions, begin.instructions);
  d.cache_references = sat_sub(cache_references, begin.cache_references);
  d.cache_misses = sat_sub(cache_misses, begin.cache_misses);
  d.branch_misses = sat_sub(branch_misses, begin.branch_misses);
  d.wall_ns = sat_sub(wall_ns, begin.wall_ns);
  d.cpu_ns = sat_sub(cpu_ns, begin.cpu_ns);
  d.minor_faults = sat_sub(minor_faults, begin.minor_faults);
  d.major_faults = sat_sub(major_faults, begin.major_faults);
  d.vol_ctx_switches = sat_sub(vol_ctx_switches, begin.vol_ctx_switches);
  d.invol_ctx_switches = sat_sub(invol_ctx_switches, begin.invol_ctx_switches);
  return d;
}

double CounterSample::ipc() const {
  if (!hardware || cycles == 0) return 0.0;
  return static_cast<double>(instructions) / static_cast<double>(cycles);
}

double CounterSample::cache_miss_rate() const {
  if (!hardware || cache_references == 0) return 0.0;
  return std::min(1.0, static_cast<double>(cache_misses) /
                           static_cast<double>(cache_references));
}

double CounterSample::cpu_utilization() const {
  if (wall_ns == 0) return 0.0;
  return std::min(static_cast<double>(cpu_ns) / static_cast<double>(wall_ns),
                  1.0);
}

#if defined(CLPP_PROF_HAVE_PERF)

namespace {

int perf_open(std::uint64_t config, int group_fd) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  // Only the group leader starts disabled; members inherit its gate.
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.exclude_kernel = 1;  // user-space only: works at paranoid<=2
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}

// (config, CounterSample field index) in open order. The leader (cycles)
// must be first.
struct EventSpec {
  std::uint64_t config;
  int field;
};
constexpr EventSpec kEvents[] = {
    {PERF_COUNT_HW_CPU_CYCLES, 0},        {PERF_COUNT_HW_INSTRUCTIONS, 1},
    {PERF_COUNT_HW_CACHE_REFERENCES, 2},  {PERF_COUNT_HW_CACHE_MISSES, 3},
    {PERF_COUNT_HW_BRANCH_MISSES, 4},
};

}  // namespace

void CounterGroup::open_hardware() {
  leader_fd_ = perf_open(kEvents[0].config, -1);
  if (leader_fd_ < 0) return;
  fds_[0] = leader_fd_;
  fields_[0] = kEvents[0].field;
  opened_ = 1;
  for (std::size_t i = 1; i < std::size(kEvents); ++i) {
    // A PMU missing one event (e.g. branch-misses on some cores) should not
    // cost the whole group; skip events that refuse to open.
    const int fd = perf_open(kEvents[i].config, leader_fd_);
    if (fd < 0) continue;
    fds_[opened_] = fd;
    fields_[opened_] = kEvents[i].field;
    ++opened_;
  }
  ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

void CounterGroup::close_hardware() {
  for (std::size_t i = 0; i < opened_; ++i)
    if (fds_[i] >= 0) close(fds_[i]);
  fds_.fill(-1);
  fields_.fill(-1);
  opened_ = 0;
  leader_fd_ = -1;
}

#else  // !CLPP_PROF_HAVE_PERF

void CounterGroup::open_hardware() {}
void CounterGroup::close_hardware() { leader_fd_ = -1; }

#endif

CounterGroup::CounterGroup(bool try_hardware) {
  if (try_hardware) open_hardware();
}

CounterGroup::~CounterGroup() { close_hardware(); }

CounterSample CounterGroup::read() const {
  CounterSample s;
  s.wall_ns = wall_now_ns();
  s.cpu_ns = thread_cpu_now_ns();
  fill_rusage(s);
#if defined(CLPP_PROF_HAVE_PERF)
  if (leader_fd_ >= 0) {
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
    std::uint64_t buf[3 + std::size(kEvents)] = {};
    const ssize_t want =
        static_cast<ssize_t>((3 + opened_) * sizeof(std::uint64_t));
    if (::read(leader_fd_, buf, static_cast<std::size_t>(want)) == want &&
        buf[0] == opened_) {
      // Scale for multiplexing: the kernel rotates groups when more events
      // are requested than the PMU has slots.
      const double enabled = static_cast<double>(buf[1]);
      const double running = static_cast<double>(buf[2]);
      const double scale = running > 0.0 ? enabled / running : 0.0;
      std::uint64_t* out[] = {&s.cycles, &s.instructions, &s.cache_references,
                              &s.cache_misses, &s.branch_misses};
      for (std::size_t i = 0; i < opened_; ++i)
        *out[fields_[i]] = static_cast<std::uint64_t>(
            static_cast<double>(buf[3 + i]) * scale);
      s.hardware = true;
    }
  }
#endif
  return s;
}

CounterGroup& CounterGroup::this_thread() {
  thread_local CounterGroup group;
  return group;
}

CounterSet& counter_set(const std::string& scope) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<CounterSet>>* sets =
      new std::map<std::string, std::unique_ptr<CounterSet>>();  // leaked
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*sets)[scope];
  if (!slot) {
    obs::MetricsRegistry& reg = obs::metrics();
    const std::string p = "clpp.prof." + scope + ".";
    slot.reset(new CounterSet{
        reg.counter(p + "samples"), reg.counter(p + "hw_samples"),
        reg.counter(p + "cycles"), reg.counter(p + "instructions"),
        reg.counter(p + "cache_references"), reg.counter(p + "cache_misses"),
        reg.counter(p + "branch_misses"), reg.counter(p + "wall_ns"),
        reg.counter(p + "cpu_ns"), reg.gauge(p + "ipc"),
        reg.gauge(p + "cache_miss_rate"), reg.gauge(p + "cpu_util")});
  }
  return *slot;
}

ScopedCounters::ScopedCounters(CounterSet& set)
    : set_(set), active_(obs::enabled()) {
  if (active_) begin_ = CounterGroup::this_thread().read();
}

CounterSample ScopedCounters::delta() const {
  if (!active_) return CounterSample{};
  return CounterGroup::this_thread().read().delta_since(begin_);
}

ScopedCounters::~ScopedCounters() {
  if (!active_) return;
  const CounterSample d = delta();
  set_.samples.add(1);
  set_.wall_ns.add(d.wall_ns);
  set_.cpu_ns.add(d.cpu_ns);
  set_.cpu_util.set(d.cpu_utilization());
  if (d.hardware) {
    set_.hw_samples.add(1);
    set_.cycles.add(d.cycles);
    set_.instructions.add(d.instructions);
    set_.cache_references.add(d.cache_references);
    set_.cache_misses.add(d.cache_misses);
    set_.branch_misses.add(d.branch_misses);
    set_.ipc.set(d.ipc());
    set_.cache_miss_rate.set(d.cache_miss_rate());
  }
}

}  // namespace clpp::prof
