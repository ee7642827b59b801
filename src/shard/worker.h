// Shard worker: the child-process side of the shard supervisor
// (DESIGN.md §12). After fork, the child calls `run_shard_worker` on its
// end of the supervisor socketpair and never returns to the caller's code.
//
// The worker hosts one `serve::InferenceServer` replica and speaks the
// frame protocol (shard/frame.h): it blocks for one request frame, drains
// whatever else already arrived (up to max_batch — a burst on the pipe
// becomes one micro-batch), submits the lot, and answers in arrival order.
// EOF on the pipe is the graceful-drain signal: the worker serves what it
// already read, shuts the server down, and exits 0.
//
// Crash seam: `CLPP_FAULTS=shard.batch:N` makes the N-th burst die like a
// real crash — the worker dumps its flight recorder (when a dump path is
// armed) and exits abruptly with `kWorkerFaultExit`, losing every request
// it had accepted. The supervisor's redispatch path is what turns that
// loss back into answers.
#pragma once

#include <cstdint>
#include <string>

#include "serve/serve.h"

namespace clpp {
class Json;  // support/json.h
}

namespace clpp::core {
class ParallelAdvisor;
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

/// Runs the worker loop until EOF (returns 0) or a fatal protocol/IO error
/// (returns kWorkerErrorExit). Injected shard.batch faults exit the
/// process directly with kWorkerFaultExit.
int run_shard_worker(int fd, const core::ParallelAdvisor& advisor,
                     const WorkerOptions& options);

}  // namespace clpp::shard
