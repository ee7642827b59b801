#include "resil/fault.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "support/strings.h"

namespace clpp::resil {

namespace {

struct SeamState {
  std::vector<std::uint64_t> triggers;  // sorted, 1-based arrival numbers
  std::uint64_t hits = 0;
};

struct FaultState {
  std::mutex mu;
  std::map<std::string, SeamState> seams;
};

FaultState& state() {
  static FaultState* s = new FaultState;  // leaked: usable during exit handlers
  return *s;
}

std::atomic<bool> g_active{false};

/// Counts the arrival and reports whether it is scheduled to fail.
bool arm_seam(const char* seam) {
  FaultState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  SeamState& seam_state = s.seams[seam];
  ++seam_state.hits;
  const auto& t = seam_state.triggers;
  if (!std::binary_search(t.begin(), t.end(), seam_state.hits)) return false;
  obs::metrics().counter("clpp.resil.faults_injected").add(1);
  obs::flight_record("resil.fault",
                     static_cast<std::int64_t>(seam_state.hits));
  if (obs::log_enabled(obs::LogLevel::kWarn)) {
    Json fields = Json::object();
    fields["seam"] = seam;
    fields["arrival"] = static_cast<std::int64_t>(seam_state.hits);
    obs::log_warn("resil", "injecting fault", std::move(fields));
  }
  // An injected fault models a production failure about to unwind the
  // stack: when a dump destination is configured, ship the flight recorder
  // *before* throwing so the artifact exists even if nothing catches.
  obs::dump_flight(std::string("resil.fault:") + seam);
  return true;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& raw : split(spec, ',')) {
    const std::string entry{trim(raw)};
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == entry.size())
      throw InvalidArgument("fault plan entry must be seam:N, got '" + entry + "'");
    const std::string seam{trim(entry.substr(0, colon))};
    const std::string count{trim(entry.substr(colon + 1))};
    std::uint64_t n = 0;
    for (char c : count) {
      if (c < '0' || c > '9')
        throw InvalidArgument("fault plan arrival must be a number, got '" + entry + "'");
      n = n * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (n == 0)
      throw InvalidArgument("fault plan arrivals are 1-based, got '" + entry + "'");
    plan.triggers[seam].push_back(n);
  }
  for (auto& [seam, arrivals] : plan.triggers)
    std::sort(arrivals.begin(), arrivals.end());
  return plan;
}

void set_fault_plan(FaultPlan plan) {
  FaultState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.seams.clear();
  for (auto& [seam, arrivals] : plan.triggers)
    s.seams[seam].triggers = std::move(arrivals);
  g_active.store(!s.seams.empty(), std::memory_order_relaxed);
}

void clear_fault_plan() { set_fault_plan(FaultPlan{}); }

bool fault_injection_active() { return g_active.load(std::memory_order_relaxed); }

std::uint64_t fault_hits(const std::string& seam) {
  FaultState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.seams.find(seam);
  return it == s.seams.end() ? 0 : it->second.hits;
}

void fault_point(const char* seam) {
  if (!fault_injection_active()) return;
  if (arm_seam(seam))
    throw InjectedFault(std::string("injected fault at seam ") + seam);
}

void alloc_fault_point(const char* seam) {
  if (!fault_injection_active()) return;
  if (arm_seam(seam)) throw std::bad_alloc();
}

void init_faults_from_env() {
  const char* spec = std::getenv("CLPP_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return;
  set_fault_plan(FaultPlan::parse(spec));
}

}  // namespace clpp::resil
