// Client side of the shard front end's frame protocol (DESIGN.md §12): the
// one socket client that `clpp-serve --connect`, `shard_scaling_bench` and
// the shard tests share. It connects to a `--listen` front end on
// 127.0.0.1, fetches its `{"cmd":"stats"}` document, and drives closed-loop
// load: each client thread keeps one framed request in flight on its own
// keep-alive connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace clpp {
class Json;  // support/json.h
}

namespace clpp::shard {

/// A TCP connection to 127.0.0.1:`port`: the fd, or -1 when refused.
int connect_loopback(std::uint16_t port);

/// The front end's `clpp.shard_stats.v1` document over one
/// `{"cmd":"stats"}` round trip on a fresh connection; a null Json when
/// the front end is unreachable or its reply carries no "stats" block.
Json fetch_stats(std::uint16_t port);

/// The element at rank floor(p·(n−1)) of an ascending sample; 0 when empty.
double percentile(const std::vector<double>& sorted, double p);

/// One closed-loop run: `concurrency` threads share `requests` request
/// indices, each thread sending one request and awaiting its reply.
struct ClosedLoop {
  std::uint16_t port = 0;
  std::size_t requests = 0;
  std::size_t concurrency = 1;
  /// Sent in every frame header (0 = none).
  std::uint32_t deadline_ms = 0;
  /// Code text of request r (0-based); called from the client threads.
  std::function<std::string(std::size_t)> code_of;
};

struct ClosedLoopResult {
  std::size_t ok = 0;
  std::size_t shed = 0;    ///< "overloaded" replies
  std::size_t errors = 0;  ///< every other error reply, and unparseable ones
  /// Requests without a reply: no connection, or it broke mid-request. The
  /// client reconnects for the next request.
  std::size_t lost = 0;
  std::size_t cached = 0;      ///< ok replies flagged "cached"
  std::size_t mismatches = 0;  ///< ok replies whose verdict differs
  double seconds = 0.0;
  std::vector<double> latencies_us;  ///< ok replies, ascending
};

/// Runs `load` to completion. `verdict_of` maps code text to the
/// `normalized_verdict` of its first ok reply; every later ok reply for the
/// same code must equal it bitwise or counts as a mismatch. The map is the
/// caller's so several runs can be checked against each other.
ClosedLoopResult run_closed_loop(const ClosedLoop& load,
                                 std::map<std::string, std::string>& verdict_of);

}  // namespace clpp::shard
