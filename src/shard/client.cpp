#include "shard/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "shard/frame.h"
#include "shard/worker.h"
#include "support/json.h"

namespace clpp::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Sends one frame and reads one back; false when either direction fails.
bool round_trip(int fd, std::string payload, std::uint32_t deadline_ms,
                std::string* reply_payload) {
  Frame frame;
  frame.payload = std::move(payload);
  frame.deadline_ms = deadline_ms;
  if (!write_frame_fd(fd, frame)) return false;
  Frame reply;
  std::string error;
  if (read_frame_fd(fd, &reply, &error) != ReadStatus::kFrame) return false;
  *reply_payload = std::move(reply.payload);
  return true;
}

}  // namespace

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Json fetch_stats(std::uint16_t port) {
  const int fd = connect_loopback(port);
  if (fd < 0) return Json();
  Json stats;
  std::string reply;
  if (round_trip(fd, R"({"cmd":"stats"})", 0, &reply)) {
    try {
      stats = Json::parse(reply).at("stats");
    } catch (const std::exception&) {
    }
  }
  ::close(fd);
  return stats;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

ClosedLoopResult run_closed_loop(
    const ClosedLoop& load, std::map<std::string, std::string>& verdict_of) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> shed{0}, errors{0}, lost{0};
  ClosedLoopResult result;
  // Guards verdict_of and the ok-reply fields of `result`: latencies_us
  // (one per ok reply), cached and mismatches.
  std::mutex mu;
  result.latencies_us.reserve(load.requests);
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(load.concurrency);
  for (std::size_t c = 0; c < load.concurrency; ++c) {
    clients.emplace_back([&, c] {
      // The admission-quota key: one token bucket per client thread.
      const std::string client = "loadgen-" + std::to_string(c);
      int fd = connect_loopback(load.port);
      for (;;) {
        const std::size_t r = next.fetch_add(1);
        if (r >= load.requests) break;
        if (fd < 0) fd = connect_loopback(load.port);
        if (fd < 0) {
          ++lost;
          continue;
        }
        const std::string code = load.code_of(r);
        Json request = Json::object();
        request["id"] = static_cast<std::int64_t>(r + 1);
        request["code"] = code;
        request["client"] = client;
        const auto s0 = Clock::now();
        std::string reply;
        if (!round_trip(fd, request.dump(), load.deadline_ms, &reply)) {
          ++lost;
          ::close(fd);
          fd = -1;
          continue;
        }
        try {
          const Json body = Json::parse(reply);
          if (body.contains("error")) {
            ++(body.get_string("error", "") == "overloaded" ? shed : errors);
            continue;
          }
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - s0)
                  .count();
          // Every serving of one snippet — fresh, coalesced, replayed after
          // a crash, or cached — must carry the same verdict fields.
          const std::string verdict = normalized_verdict(body).dump();
          std::lock_guard lock(mu);
          result.latencies_us.push_back(us);
          if (body.get_bool("cached", false)) ++result.cached;
          const auto [it, inserted] = verdict_of.emplace(code, verdict);
          if (!inserted && it->second != verdict) ++result.mismatches;
        } catch (const std::exception&) {
          ++errors;
        }
      }
      if (fd >= 0) ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.ok = result.latencies_us.size();
  result.shed = shed.load();
  result.errors = errors.load();
  result.lost = lost.load();
  std::sort(result.latencies_us.begin(), result.latencies_us.end());
  return result;
}

}  // namespace clpp::shard
