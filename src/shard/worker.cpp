#include "shard/worker.h"

#include <poll.h>

#include <cstdio>
#include <cstdlib>
#include <future>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "resil/fault.h"
#include "serve/server.h"
#include "shard/frame.h"
#include "support/json.h"

namespace clpp::shard {

namespace {

std::string trace_id_hex(std::uint64_t trace_id) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(trace_id));
  return hex;
}

bool readable_now(int fd) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  return ::poll(&pfd, 1, 0) > 0;
}

}  // namespace

Json response_json(std::int64_t id, const serve::ServedAdvice& served) {
  const core::Advice& advice = served.advice;
  Json obj = Json::object();
  obj["id"] = id;
  obj["p_directive"] = static_cast<double>(advice.p_directive);
  obj["needs_directive"] = advice.needs_directive;
  if (advice.needs_directive) {
    obj["p_private"] = static_cast<double>(advice.p_private);
    obj["p_reduction"] = static_cast<double>(advice.p_reduction);
    obj["p_dynamic"] = static_cast<double>(advice.p_dynamic);
    obj["needs_private"] = advice.needs_private;
    obj["needs_reduction"] = advice.needs_reduction;
    obj["dynamic_schedule"] = advice.wants_dynamic_schedule;
    obj["suggestion"] = advice.suggestion;
  }
  if (!advice.compar_suggestion.empty()) obj["compar"] = advice.compar_suggestion;
  obj["trace_id"] = trace_id_hex(served.timing.trace_id);
  obj["queue_us"] = static_cast<std::int64_t>(served.timing.queue_us);
  obj["batch_us"] = static_cast<std::int64_t>(served.timing.batch_us);
  obj["infer_us"] = static_cast<std::int64_t>(served.timing.infer_us);
  obj["coalesced"] = served.timing.coalesced;
  obj["cached"] = served.timing.cached;
  return obj;
}

Json error_json(std::int64_t id, const std::string& what) {
  Json obj = Json::object();
  if (id >= 0) obj["id"] = id;
  obj["error"] = what;
  return obj;
}

Json normalized_verdict(const Json& response) {
  static const char* kVolatile[] = {"id",       "client",   "trace_id",
                                    "queue_us", "batch_us", "infer_us",
                                    "coalesced", "cached"};
  Json out = Json::object();
  for (const auto& [key, value] : response.fields()) {
    bool volatile_key = false;
    for (const char* skip : kVolatile)
      if (key == skip) volatile_key = true;
    if (!volatile_key) out[key] = value;
  }
  return out;
}

PendingReply dispatch_request(serve::InferenceServer& server,
                              const std::string& payload,
                              std::int64_t default_id,
                              std::uint64_t deadline_ns) {
  PendingReply pending;
  pending.id = default_id;
  try {
    const Json request = Json::parse(payload);
    pending.id = request.get_int("id", default_id);
    if (request.contains("cmd")) {
      const std::string cmd = request.at("cmd").as_string();
      if (cmd == "stats" || cmd == "quality") {
        pending.verb = cmd;
      } else {
        pending.text = error_json(pending.id, "unknown cmd: " + cmd).dump();
      }
    } else {
      pending.future =
          server.submit(request.at("code").as_string(), deadline_ns);
    }
  } catch (const std::exception& e) {
    pending.text = error_json(pending.id, e.what()).dump();
  }
  return pending;
}

std::string resolve_reply(const serve::InferenceServer& server,
                          PendingReply& pending) {
  if (!pending.verb.empty()) {
    Json reply = Json::object();
    reply["id"] = pending.id;
    reply[pending.verb] =
        pending.verb == "stats" ? server.stats_json() : server.quality_json();
    return reply.dump();
  }
  if (!pending.text.empty()) return std::move(pending.text);
  try {
    return response_json(pending.id, pending.future.get()).dump();
  } catch (const serve::ServeDeadline&) {
    return error_json(pending.id, "deadline_exceeded").dump();
  } catch (const std::exception& e) {
    return error_json(pending.id, e.what()).dump();
  }
}

int run_shard_worker(int fd, const core::ParallelAdvisor& advisor,
                     const WorkerOptions& options) {
  if (!options.flight_out.empty()) obs::set_flight_out(options.flight_out);
  serve::InferenceServer server(advisor, options.serve);
  std::string error;
  bool eof = false;
  while (!eof) {
    Frame first;
    const ReadStatus status = read_frame_fd(fd, &first, &error);
    if (status == ReadStatus::kEof) break;
    if (status == ReadStatus::kError) {
      // The supervisor pipe never carries hostile bytes; a broken frame
      // here means the parent died mid-write. Nothing left to serve.
      std::fprintf(stderr, "shard %zu: %s\n", options.shard_index,
                   error.c_str());
      return kWorkerErrorExit;
    }

    // Drain the burst that already arrived: a pipe full of dispatches
    // becomes one micro-batch instead of max_batch singleton batches.
    std::vector<Frame> burst;
    burst.push_back(std::move(first));
    while (burst.size() < server.config().max_batch && readable_now(fd)) {
      Frame more;
      const ReadStatus s = read_frame_fd(fd, &more, &error);
      if (s == ReadStatus::kEof) {
        eof = true;
        break;
      }
      if (s == ReadStatus::kError) {
        std::fprintf(stderr, "shard %zu: %s\n", options.shard_index,
                     error.c_str());
        return kWorkerErrorExit;
      }
      burst.push_back(std::move(more));
    }

    // The crash seam: one arrival per burst, so CLPP_FAULTS=shard.batch:N
    // kills this worker exactly when its N-th burst lands — after the
    // supervisor has accepted (and counted) every request in it. Exit
    // abruptly like a real crash would; the flight dump is the only
    // forensics the process leaves behind.
    try {
      resil::fault_point("shard.batch");
    } catch (const resil::InjectedFault&) {
      obs::flight_record("shard.fault",
                         static_cast<std::int64_t>(options.shard_index),
                         static_cast<std::int64_t>(burst.size()));
      obs::dump_flight("shard.batch injected fault");
      std::_Exit(kWorkerFaultExit);
    }

    std::vector<PendingReply> replies;
    replies.reserve(burst.size());
    const std::uint64_t now_ns = obs::Tracer::now_ns();
    for (const Frame& frame : burst) {
      const std::uint64_t deadline_ns =
          frame.deadline_ms != 0
              ? now_ns + static_cast<std::uint64_t>(frame.deadline_ms) *
                             1'000'000ULL
              : 0;
      replies.push_back(dispatch_request(server, frame.payload, -1, deadline_ns));
    }
    for (PendingReply& pending : replies) {
      Frame reply;
      reply.payload = resolve_reply(server, pending);
      if (!write_frame_fd(fd, reply)) return kWorkerErrorExit;
    }
  }
  server.shutdown();
  return 0;
}

}  // namespace clpp::shard
