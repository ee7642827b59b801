// clpp-serve: resident micro-batching advisor server (clpp::serve).
//
//   clpp-serve --model advisor.bin                  # JSON-lines on stdin/stdout
//   clpp-serve --random-model                       # demo weights, no training
//   clpp-serve --random-model --loadgen 256 --concurrency 32
//   clpp-serve --random-model --loadgen 256 --sequential    # baseline
//   clpp-serve --random-model --listen --shards 4           # TCP front end
//   clpp-serve --loadgen 256 --connect 7070                 # socket loadgen
//
// JSON-lines protocol: one request object per stdin line,
//     {"id": 7, "code": "for (i = 0; i < n; i++) a[i] = b[i];"}
// and one verdict object per stdout line, in submission order:
//     {"id":7,"p_directive":0.93,...,"suggestion":"#pragma omp parallel for",
//      "trace_id":"9f3c...","queue_us":412,"batch_us":1830,"infer_us":1600,
//      "coalesced":false}
// Every response carries its request-scoped trace id (the same id tags the
// request's spans in a CLPP_TRACE_OUT Chrome trace) and the server-side
// queue/batch/infer time split. `id` defaults to the 1-based line number. A
// malformed line produces an "error" object on stdout and does not kill the
// server. Because requests are submitted as they are read and printed in
// FIFO order by a separate writer thread, a burst of piped lines is served
// in micro-batches while interactive use still answers line by line.
//
// Admin verbs: a line {"cmd":"stats"} answers in order, like any request,
// and counts every request before it: {"id":...,"stats":{...}} — live
// queue depth, batch occupancy, coalesce rate, and streaming latency
// percentiles per task model.
// {"cmd":"quality"} answers with a `clpp.insight.v1` snapshot: per-task
// confidence histograms, online ECE, analyzer-vs-model disagreement counts,
// and the drift score of recent traffic against the training fingerprint.
//
// `--loadgen N` skips the stdin protocol and instead drives the server with
// closed-loop clients (each keeps one request in flight) over a fixed
// snippet mix, then reports throughput, client-side latency percentiles
// (p50/p95/p99), the server-side percentiles, and the queue-wait vs compute
// split. `--sequential` runs the same N requests through plain
// single-request `advise()` for an A/B baseline. `--stats-out PATH` writes
// the whole report as a JSON artifact (consumed by scripts/check_slo.sh).
//
// `--listen` runs the sharded fault-tolerant front end instead
// (DESIGN.md §12): a loopback TCP listener speaking length-prefixed JSON
// frames in front of --shards forked worker processes, with crash recovery
// (dead shards restart with backoff; their accepted requests replay on
// survivors) and admission control (--quota-rps/--quota-burst per client,
// --max-inflight globally, --deadline-ms default request budget).
// `--connect PORT` flips the load generator onto that socket protocol and
// writes a `clpp.shard_loadgen.v1` artifact (consumed by
// scripts/check_shard.sh, which gates "a shard crash loses no accepted
// request").
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "insight/drift.h"
#include "serve/server.h"
#include "shard/client.h"
#include "shard/listener.h"
#include "shard/supervisor.h"
#include "shard/worker.h"
#include "support/cli.h"
#include "support/json.h"

namespace {

using namespace clpp;
using Clock = std::chrono::steady_clock;

const std::vector<std::string>& demo_mix() {
  static const std::vector<std::string> mix = {
      "for (i = 0; i < n; i++) a[i] = b[i];",
      "for (i = 0; i < n; i++) c[i] = a[i] + b[i];",
      "for (i = 0; i < n; i++) sum += a[i] * b[i];",
      "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;",
      "for (i = 0; i < n; i++) { t = a[i] * 0.5; b[i] = t + a[i]; }",
      "for (i = 0; i < n; i++) { if (a[i] > 0.5) a[i] = evolve(a[i]); }",
      "for (i = 0; i < n; i++) { for (j = 0; j < m; j++) c[i] += a[i] * b[j]; }",
      "for (i = 0; i < n; i++) best = a[i] > best ? a[i] : best;",
  };
  return mix;
}

/// A snippet mix from a different population than demo_mix(): pointer
/// chasing, hash buckets, while-style loops — a disjoint token universe so
/// the drift monitor sees a high population-stability score. Drives the
/// check_slo.sh drift canary (`--drift`).
const std::vector<std::string>& drifted_mix() {
  static const std::vector<std::string> mix = {
      "for (node = head; node != NULL; node = node->next) total += node->weight;",
      "for (k = 0; k < nbuckets; k++) { entry = table[hash(k)]; while (entry) { visit(entry); entry = entry->chain; } }",
      "for (p = begin; p != end; ++p) *p = transform(*p, scale, offset);",
      "for (round = 0; round < rounds; round++) state = mix64(state ^ seeds[round & 7]);",
      "for (e = graph->edges; e; e = e->succ) { relax(dist, e->from, e->to, e->cost); }",
      "for (depth = 0; depth < max_depth; depth++) { cursor = cursor->child[path[depth]]; if (!cursor) break; }",
  };
  return mix;
}

/// Untrained advisor on the default encoder shape: lets the binary run (and
/// the load generator measure batching) without a training run first.
core::ParallelAdvisor random_advisor() {
  core::PipelineConfig defaults;
  core::PragFormerConfig config;
  config.encoder = defaults.encoder;
  core::ParallelAdvisor advisor = core::ParallelAdvisor::untrained(
      demo_mix(), config, defaults.max_len, 2023);
  // Fingerprint the demo mix as the "training corpus" so drift detection is
  // armed even without a real training run: serving demo_mix() scores ~0,
  // serving --drift traffic trips the SLO budget.
  insight::FingerprintBuilder fingerprint;
  for (const std::string& code : demo_mix()) fingerprint.observe(code);
  advisor.set_fingerprint(fingerprint.build());
  return advisor;
}

int run_jsonl(serve::InferenceServer& server) {
  std::mutex mu;
  std::condition_variable ready;
  std::deque<shard::PendingReply> inflight;
  bool done = false;

  // Writer: resolves replies in submission order, so output order matches
  // input order (admin verbs and errors included) and a pipe full of
  // requests still gets micro-batched.
  std::thread writer([&] {
    for (;;) {
      shard::PendingReply next;
      {
        std::unique_lock lock(mu);
        ready.wait(lock, [&] { return !inflight.empty() || done; });
        if (inflight.empty()) return;
        next = std::move(inflight.front());
        inflight.pop_front();
      }
      const std::string line = shard::resolve_reply(server, next);
      std::fputs(line.c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
    }
  });

  std::string line;
  std::int64_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    if (line.empty()) continue;
    shard::PendingReply pending =
        shard::dispatch_request(server, line, line_number, 0);
    {
      std::lock_guard lock(mu);
      inflight.push_back(std::move(pending));
    }
    ready.notify_one();
  }
  {
    std::lock_guard lock(mu);
    done = true;
  }
  ready.notify_one();
  writer.join();
  server.shutdown();

  const serve::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "served %llu requests in %llu batches (%.1f rows/batch, "
               "%llu coalesced, %llu failed)\n",
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.batches),
               stats.mean_batch_rows(),
               static_cast<unsigned long long>(stats.coalesced),
               static_cast<unsigned long long>(stats.failed));
  return 0;
}

/// Prints the client-side summary line and returns it as the "client" block
/// of the --stats-out artifact.
Json report_loadgen(const char* label, std::size_t total, double seconds,
                    std::vector<double> latencies_us) {
  std::sort(latencies_us.begin(), latencies_us.end());
  const double p50 = shard::percentile(latencies_us, 0.50);
  const double p95 = shard::percentile(latencies_us, 0.95);
  const double p99 = shard::percentile(latencies_us, 0.99);
  std::fprintf(stderr,
               "%s: %zu requests in %.3f s -> %.1f req/s "
               "(latency p50 %.0f us, p95 %.0f us, p99 %.0f us)\n",
               label, total, seconds, static_cast<double>(total) / seconds,
               p50, p95, p99);
  Json client = Json::object();
  client["p50_us"] = p50;
  client["p95_us"] = p95;
  client["p99_us"] = p99;
  return client;
}

void write_stats_artifact(const std::string& path, const Json& report) {
  write_cli_output(path, report.dump() + "\n");
  std::fprintf(stderr, "loadgen stats written to %s\n", path.c_str());
}

int run_loadgen(const core::ParallelAdvisor& advisor, serve::ServeConfig config,
                std::size_t total, std::size_t concurrency, bool sequential,
                bool drift, const std::string& stats_out) {
  const auto& mix = drift ? drifted_mix() : demo_mix();
  Json report = Json::object();
  report["schema"] = "clpp.serve_loadgen.v1";
  report["requests"] = static_cast<std::int64_t>(total);

  if (sequential) {
    // Baseline: one advise() call at a time, no batching.
    std::vector<double> latencies;
    latencies.reserve(total);
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < total; ++r) {
      const auto s0 = Clock::now();
      advisor.advise(mix[r % mix.size()], config.options);
      latencies.push_back(std::chrono::duration<double, std::micro>(Clock::now() - s0).count());
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    report["mode"] = "sequential";
    report["seconds"] = seconds;
    report["throughput_rps"] = static_cast<double>(total) / seconds;
    report["client"] = report_loadgen("sequential", total, seconds, std::move(latencies));
    if (!stats_out.empty()) write_stats_artifact(stats_out, report);
    return 0;
  }

  serve::InferenceServer server(advisor, config);
  std::atomic<std::size_t> next{0};
  std::mutex lat_mu;
  std::vector<double> latencies;
  latencies.reserve(total);
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (std::size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t r = next.fetch_add(1);
        if (r >= total) return;
        const auto s0 = Clock::now();
        try {
          server.submit(mix[r % mix.size()]).get();
        } catch (const serve::ServeOverload&) {
          continue;  // shed; the run still counts the request as issued
        }
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - s0).count();
        std::lock_guard lock(lat_mu);
        latencies.push_back(us);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  // Snapshot server-side telemetry before shutdown resets nothing but
  // *after* all client futures resolved, so the histograms cover every
  // request of the run.
  const Json server_stats = server.stats_json();
  const Json quality = server.quality_json();
  server.shutdown();

  report["mode"] = "serve";
  report["seconds"] = seconds;
  report["throughput_rps"] = static_cast<double>(total) / seconds;
  report["client"] = report_loadgen("serve", total, seconds, std::move(latencies));
  report["server"] = server_stats;
  report["quality"] = quality;

  const serve::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "  %llu batches, %.1f rows/batch, %llu coalesced, %llu rejected\n",
               static_cast<unsigned long long>(stats.batches), stats.mean_batch_rows(),
               static_cast<unsigned long long>(stats.coalesced),
               static_cast<unsigned long long>(stats.rejected));
  // Server-side view: where a request's life went. queue-wait is time spent
  // waiting for a worker + batch window; the remainder of the latency is
  // compute (encode + model forwards + extras).
  const Json& lat = server_stats.at("latency_us");
  const Json& wait = server_stats.at("queue_wait_us");
  const double mean_latency = lat.at("mean").as_double();
  const double mean_wait = wait.at("mean").as_double();
  const double wait_share = mean_latency > 0.0 ? mean_wait / mean_latency : 0.0;
  std::fprintf(stderr,
               "  server latency p50 %.0f us, p95 %.0f us, p99 %.0f us; "
               "queue-wait %.0f%% of latency (wait %.0f us, compute %.0f us mean)\n",
               lat.at("p50").as_double(), lat.at("p95").as_double(),
               lat.at("p99").as_double(), wait_share * 100.0, mean_wait,
               mean_latency - mean_wait);
  if (!stats_out.empty()) write_stats_artifact(stats_out, report);
  return 0;
}

shard::SocketListener* g_listener = nullptr;

void stop_listener(int) {
  if (g_listener != nullptr) g_listener->stop();
}

int run_listen(const core::ParallelAdvisor& advisor,
               shard::SupervisorConfig sup_config,
               shard::ListenerConfig listen_config) {
  shard::ShardSupervisor supervisor(advisor, sup_config);
  shard::SocketListener listener(supervisor, listen_config);
  // Order matters: start() registers the listen fd for child-side close
  // before the first fork, and the supervisor forks while this is still the
  // only thread.
  listener.start();
  supervisor.start();
  g_listener = &listener;
  std::signal(SIGINT, stop_listener);
  std::signal(SIGTERM, stop_listener);
  std::fprintf(stderr, "clpp-serve: listening on 127.0.0.1:%u with %zu shards\n",
               static_cast<unsigned>(listener.port()), sup_config.shards);
  listener.run();
  g_listener = nullptr;
  supervisor.drain();
  // stdout is unused in listen mode (requests ride the socket), so the
  // final supervisor stats go there as one bare clpp.shard_stats.v1
  // document — check_schemas.sh captures and validates it.
  const Json stats = supervisor.stats_json();
  std::printf("%s\n", stats.dump().c_str());
  return 0;
}

/// Closed-loop socket load generator against a --listen front end
/// (shard::run_closed_loop). A connection that breaks mid-request (it never
/// should — the client talks to the supervisor, which survives shard
/// crashes) counts the unanswered request as `lost`; check_shard.sh gates
/// lost == 0 while killing a shard mid-run.
int run_socket_loadgen(std::uint16_t port, std::size_t total,
                       std::size_t concurrency, std::uint32_t deadline_ms,
                       bool drift, const std::string& stats_out) {
  const auto& mix = drift ? drifted_mix() : demo_mix();
  std::map<std::string, std::string> verdict_of;
  shard::ClosedLoopResult run = shard::run_closed_loop(
      {.port = port,
       .requests = total,
       .concurrency = concurrency,
       .deadline_ms = deadline_ms,
       .code_of = [&](std::size_t r) { return mix[r % mix.size()]; }},
      verdict_of);

  Json report = Json::object();
  report["schema"] = "clpp.shard_loadgen.v1";
  report["requests"] = static_cast<std::int64_t>(total);
  report["ok"] = static_cast<std::int64_t>(run.ok);
  report["shed"] = static_cast<std::int64_t>(run.shed);
  report["errors"] = static_cast<std::int64_t>(run.errors);
  report["lost"] = static_cast<std::int64_t>(run.lost);
  report["cached_responses"] = static_cast<std::int64_t>(run.cached);
  report["verdict_mismatches"] = static_cast<std::int64_t>(run.mismatches);
  report["seconds"] = run.seconds;
  report["throughput_rps"] = static_cast<double>(total) / run.seconds;
  report["client"] = report_loadgen("socket", total, run.seconds,
                                    std::move(run.latencies_us));

  // The supervisor-level stats block (per-shard liveness, restarts,
  // admission counters) makes the artifact self-contained for
  // check_shard.sh.
  Json server = shard::fetch_stats(port);
  if (!server.is_null()) report["server"] = std::move(server);
  std::fprintf(stderr,
               "socket loadgen: %zu ok (%zu cached), %zu shed, %zu errors, "
               "%zu lost, %zu verdict mismatches\n",
               run.ok, run.cached, run.shed, run.errors, run.lost,
               run.mismatches);
  if (!stats_out.empty()) write_stats_artifact(stats_out, report);
  return run.lost == 0 && run.mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("clpp-serve",
                   "micro-batching advisor server: JSON-lines on stdin/stdout, "
                   "or a closed-loop load generator (--loadgen)");
  parser.add_string("model", "", "path of a saved advisor (clpp_cli train --out ...)");
  parser.add_flag("random-model", "use untrained demo weights instead of --model");
  parser.add_int("max-batch", static_cast<std::int64_t>(core::kDefaultInferBatch),
                 "largest micro-batch per inference pass");
  parser.add_int("max-delay-us", 2000, "longest a batch waits for company");
  parser.add_int("workers", 1, "worker threads (all serve the one advisor)");
  parser.add_int("queue-capacity", 1024, "bounded request-queue size");
  parser.add_flag("reject", "shed load when the queue is full instead of blocking");
  parser.add_flag("no-analysis", "skip dependence-analyzer clause naming");
  parser.add_flag("no-compar", "skip the ComPar comparison column");
  parser.add_int("cache-cap", 0,
                 "result-cache entries (front end + per shard; 0 disables)");
  parser.add_int("loadgen", 0, "run a load generator for N requests instead of stdin");
  parser.add_int("concurrency", 32, "closed-loop clients for --loadgen");
  parser.add_flag("sequential", "loadgen baseline: single-request advise() loop");
  parser.add_flag("drift",
                  "loadgen drives an out-of-distribution snippet mix "
                  "(exercises the insight drift monitor)");
  parser.add_string("stats-out", "",
                    "write the --loadgen report (client+server percentiles) "
                    "as a JSON artifact");
  parser.add_flag("listen",
                  "run the sharded TCP front end (loopback, framed JSON) "
                  "instead of stdin/stdout");
  parser.add_int("port", 0, "--listen port on 127.0.0.1 (0 = ephemeral)");
  parser.add_string("port-file", "",
                    "--listen writes its bound port here (for scripts)");
  parser.add_int("shards", 2, "--listen worker processes to fork");
  parser.add_double("quota-rps", 0.0,
                    "per-client admission quota in requests/s (0 = off)");
  parser.add_double("quota-burst", 16.0, "per-client token-bucket burst");
  parser.add_int("max-inflight", 1024,
                 "--listen global accepted-but-unanswered ceiling");
  parser.add_int("deadline-ms", 0,
                 "--listen: default request deadline; --connect: deadline "
                 "sent in every frame header (0 = none)");
  parser.add_string("flight-dir", "",
                    "--listen: directory for per-shard flight-recorder dumps");
  parser.add_int("connect", 0,
                 "drive the --loadgen over the socket protocol against a "
                 "--listen front end on this port");

  try {
    if (!parser.parse(argc, argv)) return 0;

    serve::ServeConfig config;
    config.max_batch = static_cast<std::size_t>(parser.get_int("max-batch"));
    config.max_delay_us = static_cast<std::uint64_t>(parser.get_int("max-delay-us"));
    config.workers = static_cast<std::size_t>(parser.get_int("workers"));
    config.queue_capacity = static_cast<std::size_t>(parser.get_int("queue-capacity"));
    config.overflow = parser.get_flag("reject") ? serve::OverflowPolicy::kReject
                                                : serve::OverflowPolicy::kBlock;
    config.options.with_analysis = !parser.get_flag("no-analysis");
    config.options.with_compar = !parser.get_flag("no-compar");
    // One knob, two cache sites: the same capacity configures the in-process
    // (per-shard) result cache and, in --listen mode, the supervisor's
    // cross-connection front-end cache.
    const std::int64_t cache_cap = parser.get_int("cache-cap");
    if (cache_cap < 0) throw InvalidArgument("--cache-cap must be >= 0");
    config.cache.max_entries = static_cast<std::size_t>(cache_cap);
    config.validate();

    const auto total = static_cast<std::size_t>(parser.get_int("loadgen"));
    const auto connect_port =
        static_cast<std::uint16_t>(parser.get_int("connect"));
    if (connect_port != 0) {
      // Socket loadgen needs no local model: the --listen process serves.
      if (total == 0)
        throw InvalidArgument("--connect needs --loadgen N");
      return run_socket_loadgen(
          connect_port, total,
          static_cast<std::size_t>(parser.get_int("concurrency")),
          static_cast<std::uint32_t>(parser.get_int("deadline-ms")),
          parser.get_flag("drift"), parser.get_string("stats-out"));
    }

    const std::string model = parser.get_string("model");
    if (model.empty() && !parser.get_flag("random-model"))
      throw InvalidArgument("pass --model <path> or --random-model");
    const core::ParallelAdvisor advisor =
        model.empty() ? random_advisor() : core::ParallelAdvisor::load(model);

    if (parser.get_flag("listen")) {
      shard::SupervisorConfig sup;
      sup.shards = static_cast<std::size_t>(parser.get_int("shards"));
      sup.serve = config;
      sup.admission.quota_rps = parser.get_double("quota-rps");
      sup.admission.quota_burst = parser.get_double("quota-burst");
      sup.admission.max_inflight =
          static_cast<std::size_t>(parser.get_int("max-inflight"));
      sup.admission.default_deadline_ms =
          static_cast<std::uint32_t>(parser.get_int("deadline-ms"));
      sup.cache = config.cache;
      sup.flight_dir = parser.get_string("flight-dir");
      shard::ListenerConfig listen;
      listen.port = static_cast<std::uint16_t>(parser.get_int("port"));
      listen.port_file = parser.get_string("port-file");
      return run_listen(advisor, std::move(sup), std::move(listen));
    }

    if (total > 0) {
      return run_loadgen(advisor, config, total,
                         static_cast<std::size_t>(parser.get_int("concurrency")),
                         parser.get_flag("sequential"), parser.get_flag("drift"),
                         parser.get_string("stats-out"));
    }
    serve::InferenceServer server(advisor, config);
    return run_jsonl(server);
  } catch (const std::exception& e) {
    return report_cli_error("clpp-serve", e);
  }
}
