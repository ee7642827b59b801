// Shard supervisor: the parent-process side of sharded serving
// (DESIGN.md §12). It forks N worker processes (shard/worker.h), each
// serving the advisor it inherited behind a UNIX socketpair, and runs a
// single-threaded event loop over those pipes:
//
//   submit() — front-end result-cache lookup (a digest hit answers
//     immediately, before admission — see SupervisorConfig::cache), then
//     admission control (token buckets, in-flight ceiling, deadline
//     stamping), then dispatch to a live shard by rendezvous-hashing the
//     snippet digest (so each shard's private result cache sees a disjoint
//     slice of the key space).
//   pump()   — poll the pipes, deliver responses through the completion
//     callback, detect worker death (EOF/POLLHUP + a waitpid sweep),
//     harvest the dead shard's flight-recorder dump, restart it with
//     deterministic exponential backoff, and transparently re-dispatch its
//     accepted-but-unanswered requests to surviving shards.
//
// Replay is always safe: advice is a pure function of the code text, so a
// request served twice (once by the shard that died after reading it, once
// by its replacement) yields bitwise-identical verdicts — the supervisor
// never needs to know how far a dead worker got.
//
// Fork discipline: spawns happen only from the thread that calls start()
// and pump(). Keep the supervisor's thread the only one alive when shards
// can (re)start — the CLI does this by running listener and supervisor in
// one event loop thread.
//
// Ordering contract with the worker: each worker answers frames in arrival
// order, so the k-th response frame on a pipe resolves the k-th
// still-pending dispatch — a per-shard FIFO is the whole correlation state.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "resil/retry.h"
#include "serve/serve.h"
#include "shard/admission.h"
#include "shard/frame.h"

namespace clpp {
class Json;  // support/json.h
}

namespace clpp::core {
class ParallelAdvisor;
}

namespace clpp::shard {

struct SupervisorConfig {
  /// Worker processes to fork. Two or more keeps redispatch local; with one
  /// shard a crash parks pending work in the backlog until restart.
  std::size_t shards = 2;
  /// Per-shard InferenceServer configuration (workers, batching, queue).
  serve::ServeConfig serve;
  AdmissionConfig admission;
  /// Front-end result cache (DESIGN.md §13), shared across every client
  /// connection. A hit is answered *before* admission control, so cached
  /// snippets consume no token-bucket slot and no in-flight slot — cheap
  /// repeat traffic can never be shed, and the quota protects exactly the
  /// expensive (inference) work. Off by default (max_entries == 0);
  /// clpp-serve wires `--cache-cap` into it.
  cache::CacheConfig cache{};
  /// Directory for per-shard flight-recorder dumps ("" = no dumps). Each
  /// worker generation dumps to shard<i>.gen<g>.flight.jsonl on a crash
  /// seam; the supervisor harvests (counts + logs) dumps on death.
  std::string flight_dir;
  /// Restart backoff for crashed shards. max_attempts bounds restarts per
  /// unhealthy streak (a shard that serves a response resets its streak);
  /// max_elapsed_ms bounds the cumulative scheduled backoff the same way
  /// resil::with_retry does. Exhaustion permanently retires the shard and
  /// counts under clpp.resil.retry_exhausted.
  resil::RetryPolicy restart{.max_attempts = 5,
                             .base_delay_ms = 10.0,
                             .multiplier = 2.0,
                             .max_delay_ms = 500.0};
};

class ShardSupervisor {
 public:
  /// Called once per accepted request with the response payload (a JSON
  /// text: either a verdict object or `{"id":...,"error":...}`).
  using Completion =
      std::function<void(std::uint64_t ticket, std::string payload)>;

  /// Keeps a reference to `advisor` — it must outlive the supervisor.
  /// Each worker serves its inherited copy-on-write image of it.
  ShardSupervisor(const core::ParallelAdvisor& advisor,
                  SupervisorConfig config);
  /// Closes pipes and reaps every worker (without draining — call drain()
  /// first for a graceful stop).
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Forks the shard workers. Call from a single-threaded process (fork
  /// safety) before any submit/pump.
  void start();

  void set_on_response(Completion on_response);

  /// Registers an fd the worker must not inherit (e.g. the TCP listen
  /// socket); applied to every subsequent spawn, including restarts.
  void also_close_in_child(int fd);

  /// Admission + dispatch of one request payload. On kAccept, `*ticket_out`
  /// identifies the request in the completion callback. Shed verdicts
  /// (kOverQuota/kOverloaded) carry retry_after_ms and never consume a
  /// ticket. `deadline_ms` is the frame-header budget (0 = config default).
  ///
  /// A front-cache hit completes synchronously too — before admission, so
  /// it consumes no quota token and no in-flight slot; the decision comes
  /// back kAccept with deadline_ns == 0.
  ///
  /// Routing can complete synchronously (expired deadline, every shard
  /// retired): the completion callback then fires *inside* submit. Callers
  /// that key state on the ticket must set it up before routing runs —
  /// `on_accept(ticket)` is invoked exactly then, after the ticket is
  /// assigned and before any dispatch or completion.
  AdmissionDecision submit(
      std::string payload, const std::string& client,
      std::uint32_t deadline_ms, std::uint64_t* ticket_out,
      const std::function<void(std::uint64_t)>& on_accept = nullptr);

  /// One event-loop turn: waits up to `timeout_ms` for pipe activity (or a
  /// due restart), delivers responses, handles deaths and restarts.
  /// Returns the number of completions delivered (responses + expiries).
  std::size_t pump(int timeout_ms);

  /// Graceful stop: sends EOF to every live shard, pumps until all pending
  /// work is answered or every shard is gone, then reaps. Requests still
  /// unanswered after that fail with an "unavailable" error completion.
  void drain();

  /// Parent-side pipe fds of live shards, for embedding pump() in an
  /// external poll loop (poll these for POLLIN, then call pump(0)).
  std::vector<int> pipe_fds() const;

  /// Milliseconds until the next scheduled restart is due (0 = due now,
  /// -1 = none scheduled). Callers cap their poll timeout at this so a
  /// quiet front end never delays a recovery.
  int next_restart_ms() const;

  /// Accepted-but-unanswered requests (pending on pipes + backlog).
  std::size_t inflight() const;
  std::size_t live_shards() const;
  /// Worker pid, or -1 when shard `i` is down (for tests to SIGKILL).
  pid_t shard_pid(std::size_t i) const;

  const AdmissionController::Stats& admission_stats() const {
    return admission_.stats();
  }

  /// `clpp.shard_stats.v1`: per-shard liveness/pid/restarts/served counts,
  /// admission stats, death/redispatch/flight-dump totals.
  Json stats_json() const;

 private:
  struct Pending {
    std::uint64_t ticket = 0;
    std::string payload;
    std::uint64_t deadline_ns = 0;  // absolute, obs::Tracer::now_ns; 0=none
    /// Canonical snippet digest (0 for admin/cmd or unparseable payloads):
    /// the routing key and the front-cache key.
    std::uint64_t digest = 0;
    std::int64_t id = -1;  // request id, parsed once at submit
  };

  struct Shard {
    pid_t pid = -1;
    int fd = -1;  // parent side of the socketpair, O_NONBLOCK
    FrameDecoder decoder;
    std::deque<Pending> pending;  // FIFO: k-th response answers k-th entry
    std::uint64_t generation = 0;  // spawns so far (0 before first start)
    std::uint64_t restarts = 0;    // successful restarts (generation - 1)
    std::uint64_t served = 0;
    std::uint64_t faults = 0;  // deaths with kWorkerFaultExit status
    // Backoff streak state (reset when the shard serves a response).
    int restart_attempt = 0;
    double backoff_elapsed_ms = 0.0;
    std::uint64_t jitter_state = 0;
    std::uint64_t restart_due_ns = 0;  // 0 = not scheduled
    bool retired = false;              // restart budget exhausted
    bool reaped = false;               // waitpid sweep already collected it
    int exit_status = 0;               // raw waitpid status when reaped
  };

  void spawn(std::size_t index);
  /// Drains buffered responses off a dead shard's pipe, reaps the process,
  /// harvests its flight dump, schedules the restart, and re-dispatches its
  /// pending requests.
  void handle_death(std::size_t index);
  /// Routes one pending request to a live shard (rendezvous hashing on the
  /// snippet digest, falling through score order when the winner is down),
  /// the backlog when none is up, or an expiry completion when its deadline
  /// passed.
  void route(Pending pending, bool is_redispatch);
  /// Caches a successful verdict payload under the request's digest.
  void maybe_cache_response(const Pending& pending,
                            const std::string& payload);
  bool dispatch_to(std::size_t index, Pending& pending);
  void complete(std::uint64_t ticket, std::string payload);
  void drain_fd(std::size_t index);
  void flush_backlog();

  const core::ParallelAdvisor& advisor_;
  SupervisorConfig config_;
  AdmissionController admission_;
  /// Cross-connection result cache: response payloads (id stripped of
  /// meaning — it is re-patched per hit) keyed by snippet digest.
  cache::ShardedLruCache<std::string> cache_;
  Completion on_response_;
  std::vector<Shard> shards_;
  std::deque<Pending> backlog_;  // no live shard could take these yet
  std::vector<int> close_in_child_;
  std::uint64_t next_ticket_ = 1;
  std::size_t inflight_ = 0;
  bool started_ = false;
  bool draining_ = false;
  std::size_t turn_completions_ = 0;  // completions in the current pump()

  // Lifetime totals for stats_json.
  std::uint64_t deaths_ = 0;
  std::uint64_t redispatched_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t unavailable_ = 0;
  std::uint64_t flight_dumps_ = 0;
};

}  // namespace clpp::shard
