// Shard worker: the child-process side of the shard supervisor
// (DESIGN.md §12). After fork, the child calls `run_shard_worker` on its
// end of the supervisor socketpair and never returns to the caller's code.
//
// The worker hosts one `serve::InferenceServer` over the advisor it
// inherited across fork() — no copy, so the weight pages stay shared
// copy-on-write with the supervisor — and speaks the frame protocol
// (shard/frame.h): it blocks for one request frame, drains
// whatever else already arrived (up to max_batch — a burst on the pipe
// becomes one micro-batch), submits the lot, and answers in arrival order.
// EOF on the pipe is the graceful-drain signal: the worker serves what it
// already read, shuts the server down, and exits 0.
//
// This header also holds what the worker shares with clpp-serve's
// JSON-lines loop: the reply formats and the request dispatcher, which
// turns one request payload into a pending reply.
//
// Crash seam: `CLPP_FAULTS=shard.batch:N` makes the N-th burst die like a
// real crash — the worker dumps its flight recorder (when a dump path is
// armed) and exits abruptly with `kWorkerFaultExit`, losing every request
// it had accepted. The supervisor's redispatch path is what turns that
// loss back into answers.
#pragma once

#include <cstdint>
#include <future>
#include <string>

#include "serve/serve.h"

namespace clpp {
class Json;  // support/json.h
}

namespace clpp::core {
class ParallelAdvisor;
}

namespace clpp::serve {
class InferenceServer;  // serve/server.h
}

namespace clpp::shard {

/// Exit status of a worker killed by an injected `shard.batch` fault.
inline constexpr int kWorkerFaultExit = 40;
/// Exit status when the worker dies on an unexpected exception.
inline constexpr int kWorkerErrorExit = 41;

struct WorkerOptions {
  serve::ServeConfig serve;
  std::size_t shard_index = 0;
  /// Flight-recorder dump path for this shard ("" = leave process default).
  std::string flight_out;
};

/// Serializes one served verdict as the JSON-lines response object (the
/// same shape clpp-serve prints on stdout: probabilities, suggestion,
/// trace id, queue/batch/infer split).
Json response_json(std::int64_t id, const serve::ServedAdvice& served);

/// `{"id":id,"error":what}` (id omitted when negative).
Json error_json(std::int64_t id, const std::string& what);

/// The verdict fields of a response_json object: everything except
/// per-request bookkeeping (id, client) and per-serving telemetry (trace
/// id, timings, coalesced/cached flags). Two servings of one snippet must
/// agree on this projection bitwise — fresh, coalesced, replayed after a
/// crash, or cached.
Json normalized_verdict(const Json& response);

/// One request between dispatch and reply: `text` holds a reply known at
/// dispatch (an error), `verb` an admin verb ("stats" or "quality") to
/// answer at reply time, else `future` resolves to the verdict.
struct PendingReply {
  std::int64_t id = -1;
  std::string text;
  std::string verb;
  std::future<serve::ServedAdvice> future;
};

/// Dispatches one request payload (a JSON line or a frame payload):
/// `{"cmd":"stats"}` and `{"cmd":"quality"}` record their verb; any other
/// `cmd`, malformed JSON or a missing `code` is an error reply; otherwise
/// `code` is submitted with `deadline_ns` (absolute, 0 = none).
/// `default_id` stands in when the payload carries no "id".
PendingReply dispatch_request(serve::InferenceServer& server,
                              const std::string& payload,
                              std::int64_t default_id,
                              std::uint64_t deadline_ns);

/// The reply text of `pending`, waiting for its verdict if need be. An
/// admin verb snapshots `server` now, so replies resolved in dispatch order
/// count every request dispatched before it. A request dropped at its
/// deadline answers `deadline_exceeded`; any other serving failure answers
/// with its message.
std::string resolve_reply(const serve::InferenceServer& server,
                          PendingReply& pending);

/// Runs the worker loop until EOF (returns 0) or a fatal protocol/IO error
/// (returns kWorkerErrorExit). Injected shard.batch faults exit the
/// process directly with kWorkerFaultExit.
int run_shard_worker(int fd, const core::ParallelAdvisor& advisor,
                     const WorkerOptions& options);

}  // namespace clpp::shard
