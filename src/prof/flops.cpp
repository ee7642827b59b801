#include "prof/flops.h"

#include <map>
#include <memory>
#include <mutex>

namespace clpp::prof {

KernelCounters& kernel_counters(const std::string& kernel) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<KernelCounters>>* sets =
      new std::map<std::string, std::unique_ptr<KernelCounters>>();  // leaked
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*sets)[kernel];
  if (!slot) {
    obs::MetricsRegistry& reg = obs::metrics();
    const std::string p = "clpp.prof." + kernel + ".";
    slot.reset(new KernelCounters{
        reg.counter(p + "calls"), reg.counter(p + "flops"),
        reg.counter(p + "bytes"), reg.counter(p + "wall_ns"),
        reg.gauge(p + "gflops"), reg.gauge(p + "arith_intensity")});
  }
  return *slot;
}

void record_kernel(KernelCounters& counters, std::uint64_t flops,
                   std::uint64_t bytes, std::uint64_t wall_ns) {
  counters.calls.add(1);
  counters.flops.add(flops);
  counters.bytes.add(bytes);
  counters.wall_ns.add(wall_ns);
  if (wall_ns > 0)
    // flops per nanosecond is numerically GFLOP/s.
    counters.gflops.set(static_cast<double>(flops) / static_cast<double>(wall_ns));
  if (bytes > 0)
    counters.arith_intensity.set(static_cast<double>(flops) /
                                 static_cast<double>(bytes));
}

}  // namespace clpp::prof
