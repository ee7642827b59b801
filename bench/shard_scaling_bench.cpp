// Closed-loop shard-scaling + cache-effectiveness bench (DESIGN.md §13).
//
// For each shard count in --points, forks a real sharded front end (the
// same ShardSupervisor + SocketListener stack clpp-serve --listen runs) and
// drives it with a multi-threaded closed-loop socket load generator over a
// distinct-snippet mix, measuring throughput and client latency
// percentiles. Then, at the largest point, measures an 80%-duplicate mix
// twice — result cache on and off — to quantify the cross-request cache
// win. Every response's verdict fields are recorded per snippet across ALL
// runs (fresh, coalesced, cached, different shard counts), so the artifact
// also certifies that caching never changes an answer.
//
// Emits one clpp.shard_scaling.v1 JSON document (--out) with per-point
// series plus derived `scaling` and `cache_win` blocks; check_scaling.sh
// gates on it via the `scaling` budget block of `clpp-report slo`.
//
// The bench runs with OMP_NUM_THREADS=1, re-executing itself once with the
// variable set when it is not already 1: it measures scale-out across shard
// *processes*, so per-shard inference must not silently fan out over the
// same cores the other shards need. Scaling is therefore judged against
// min(shards, ncores) — a 2-core runner is expected to scale to 2 shards
// and flatline beyond, not to 8.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "core/advisor.h"
#include "prof/sampler.h"
#include "shard/client.h"
#include "shard/listener.h"
#include "shard/supervisor.h"
#include "support/cli.h"
#include "support/json.h"

namespace {

using namespace clpp;

// ------------------------------------------------------------ snippet mixes

/// Hot set for duplicate-rate mixes: realistic parallelizable/serial loops,
/// distinct from one another so the front cache holds `hot_set` entries.
std::string hot_snippet(std::size_t k) {
  std::ostringstream out;
  out << "for (i = 0; i < n; i++) { h" << k << "[i] = x" << k
      << "[i] * 2.0f + y" << k << "[i]; hsum" << k << " += h" << k << "[i]; }";
  return out.str();
}

/// Unique per global request index: never repeats across the whole bench,
/// so a distinct mix is a guaranteed 100% cache-miss workload.
std::string distinct_snippet(std::size_t r) {
  std::ostringstream out;
  out << "for (i = 0; i < n; i++) { u" << r << "[i] = v" << r
      << "[i] * 3.0f + w[i]; acc" << r << " += u" << r << "[i]; }";
  return out.str();
}

/// Untrained advisor on the default encoder shape (same construction as
/// clpp-serve --random-model): scaling and cache behaviour are independent
/// of model quality, and skipping training keeps the bench self-contained.
core::ParallelAdvisor bench_advisor() {
  std::vector<std::string> snippets;
  for (std::size_t k = 0; k < 32; ++k) snippets.push_back(hot_snippet(k));
  snippets.push_back(distinct_snippet(0));
  core::PipelineConfig defaults;
  core::PragFormerConfig config;
  config.encoder = defaults.encoder;
  return core::ParallelAdvisor::untrained(snippets, config, defaults.max_len,
                                          2023);
}

// ------------------------------------------------------------- front end

shard::SocketListener* g_listener = nullptr;
void stop_listener(int) {
  if (g_listener != nullptr) g_listener->stop();
}

/// Child-process body: run a sharded front end until SIGTERM, then drain
/// and exit without returning (the child must never fall back into the
/// bench's main()).
[[noreturn]] void run_front_end(const core::ParallelAdvisor& advisor,
                                std::size_t shards, std::size_t cache_entries,
                                int port_fd) {
  shard::SupervisorConfig sup;
  sup.shards = shards;
  sup.serve.workers = 1;
  sup.serve.options.with_analysis = false;
  sup.serve.options.with_compar = false;
  sup.serve.cache.max_entries = cache_entries;
  sup.cache.max_entries = cache_entries;
  shard::ListenerConfig listen;
  listen.port = 0;
  shard::ShardSupervisor supervisor(advisor, sup);
  shard::SocketListener listener(supervisor, listen);
  listener.start();
  supervisor.start();
  g_listener = &listener;
  std::signal(SIGTERM, stop_listener);
  const std::uint16_t port = listener.port();
  // Hand the ephemeral port to the parent over the pipe.
  char line[16];
  const int len = std::snprintf(line, sizeof line, "%u\n",
                                static_cast<unsigned>(port));
  if (::write(port_fd, line, static_cast<std::size_t>(len)) != len)
    std::_Exit(2);
  ::close(port_fd);
  listener.run();
  supervisor.drain();
  std::_Exit(0);
}

// ------------------------------------------------------------- one point

struct PointResult {
  std::size_t shards = 0;
  double dup_rate = 0.0;
  std::size_t cache_cap = 0;
  std::size_t requests = 0;
  shard::ClosedLoopResult run;
  double throughput_rps = 0.0;
  Json server = Json::object();
};

PointResult run_point(const core::ParallelAdvisor& advisor, std::size_t shards,
                      std::size_t cache_entries, std::size_t requests,
                      std::size_t concurrency, double dup_rate,
                      std::size_t hot_set,
                      std::map<std::string, std::string>* verdict_of,
                      std::size_t* mismatches) {
  int port_pipe[2];
  if (::pipe(port_pipe) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  // Fork while single-threaded: the loadgen threads of the previous point
  // are already joined, so the child (and its shard forks) start clean.
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(port_pipe[0]);
    run_front_end(advisor, shards, cache_entries, port_pipe[1]);
  }
  ::close(port_pipe[1]);
  char buf[16] = {0};
  std::size_t got = 0;
  while (got + 1 < sizeof buf) {
    const ssize_t rc = ::read(port_pipe[0], buf + got, sizeof buf - 1 - got);
    if (rc <= 0) break;
    got += static_cast<std::size_t>(rc);
    if (std::memchr(buf, '\n', got) != nullptr) break;
  }
  ::close(port_pipe[0]);
  const auto port = static_cast<std::uint16_t>(std::atoi(buf));
  if (port == 0) {
    std::fprintf(stderr, "shard_scaling_bench: front end reported no port\n");
    ::kill(pid, SIGKILL);
    std::exit(1);
  }

  PointResult result;
  result.shards = shards;
  result.dup_rate = dup_rate;
  result.cache_cap = cache_entries;
  result.requests = requests;
  // The duplicate decision is a pure function of the request index, so the
  // cache-on and cache-off runs of a mix replay the identical multiset of
  // snippets regardless of how threads interleave.
  const auto dup_cut = static_cast<std::size_t>(dup_rate * 100.0);
  result.run = shard::run_closed_loop(
      {.port = port,
       .requests = requests,
       .concurrency = concurrency,
       .code_of =
           [&](std::size_t r) {
             return (r % 100) < dup_cut ? hot_snippet(r % hot_set)
                                        : distinct_snippet(r);
           }},
      *verdict_of);
  *mismatches += result.run.mismatches;

  // Server-side stats (per-shard served counts, front-cache hit/miss), then
  // stop the front end.
  Json stats = shard::fetch_stats(port);
  if (!stats.is_null()) result.server = std::move(stats);
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);

  result.throughput_rps =
      result.run.seconds > 0.0
          ? static_cast<double>(result.requests) / result.run.seconds
          : 0.0;
  std::fprintf(stderr,
               "point: shards=%zu dup=%.0f%% cache=%zu -> %.1f req/s "
               "(p50 %.0f us, p99 %.0f us, %zu cached, %zu lost)\n",
               shards, dup_rate * 100.0, cache_entries, result.throughput_rps,
               shard::percentile(result.run.latencies_us, 0.50),
               shard::percentile(result.run.latencies_us, 0.99),
               result.run.cached, result.run.lost);
  return result;
}

Json point_json(const PointResult& point) {
  const shard::ClosedLoopResult& run = point.run;
  Json row = Json::object();
  row["shards"] = static_cast<std::int64_t>(point.shards);
  row["dup_rate"] = point.dup_rate;
  row["cache_cap"] = static_cast<std::int64_t>(point.cache_cap);
  row["requests"] = static_cast<std::int64_t>(point.requests);
  row["ok"] = static_cast<std::int64_t>(run.ok);
  row["shed"] = static_cast<std::int64_t>(run.shed);
  row["errors"] = static_cast<std::int64_t>(run.errors);
  row["lost"] = static_cast<std::int64_t>(run.lost);
  row["cached_responses"] = static_cast<std::int64_t>(run.cached);
  row["seconds"] = run.seconds;
  row["throughput_rps"] = point.throughput_rps;
  Json latency = Json::object();
  latency["p50"] = shard::percentile(run.latencies_us, 0.50);
  latency["p95"] = shard::percentile(run.latencies_us, 0.95);
  latency["p99"] = shard::percentile(run.latencies_us, 0.99);
  row["latency_us"] = std::move(latency);
  row["server"] = point.server;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Scale-out across shard processes is the measurement; per-shard OpenMP
  // fan-out would let a single shard consume every core and flatten the
  // curve for reasons that have nothing to do with the serving stack. The
  // OpenMP runtime read the variable when it loaded, and
  // omp_set_num_threads() would reach only this thread, not the shard
  // workers' server threads: so set it and start over.
  const char* omp_threads = std::getenv("OMP_NUM_THREADS");
  if (omp_threads == nullptr || std::strcmp(omp_threads, "1") != 0) {
    ::setenv("OMP_NUM_THREADS", "1", 1);
    // ITIMER_PROF survives exec: disarm the sampler CLPP_FLAME_OUT started,
    // or a SIGPROF could kill the new image before it installs a handler.
    prof::Sampler::instance().stop();
    ::execv("/proc/self/exe", argv);
    std::perror("shard_scaling_bench: re-exec with OMP_NUM_THREADS=1");
    return 1;
  }

  ArgParser parser("shard_scaling_bench",
                   "closed-loop scaling + cache-effectiveness bench over the "
                   "sharded serving front end (clpp.shard_scaling.v1)");
  parser.add_string("points", "1 2 4",
                    "shard counts for the distinct-mix scaling series");
  parser.add_int("requests", 96, "requests per distinct-mix point");
  parser.add_int("dup-requests", 256, "requests per duplicate-mix point");
  parser.add_int("concurrency", 8, "closed-loop client threads");
  parser.add_double("dup-rate", 0.8, "duplicate fraction of the hot mix");
  parser.add_int("hot-set", 16, "distinct snippets behind the duplicates");
  parser.add_int("cache-cap", 4096, "result-cache entries when enabled");
  parser.add_string("out", "", "write the clpp.shard_scaling.v1 artifact here");
  try {
    if (!parser.parse(argc, argv)) return 0;
    std::vector<std::size_t> points;
    {
      std::istringstream in(parser.get_string("points"));
      std::size_t value = 0;
      while (in >> value)
        if (value > 0) points.push_back(value);
    }
    if (points.empty()) points = {1, 2, 4};
    std::sort(points.begin(), points.end());
    const auto requests = static_cast<std::size_t>(parser.get_int("requests"));
    const auto dup_requests =
        static_cast<std::size_t>(parser.get_int("dup-requests"));
    const auto concurrency =
        static_cast<std::size_t>(parser.get_int("concurrency"));
    const double dup_rate = parser.get_double("dup-rate");
    const auto hot_set = static_cast<std::size_t>(parser.get_int("hot-set"));
    const auto cache_cap =
        static_cast<std::size_t>(parser.get_int("cache-cap"));

    const core::ParallelAdvisor advisor = bench_advisor();
    std::map<std::string, std::string> verdict_of;
    std::size_t mismatches = 0;

    // Distinct-mix scaling series (cache irrelevant: every snippet unique,
    // so hits are structurally impossible — run it cache-on to prove the
    // lookup overhead is in the measurement).
    std::vector<PointResult> series;
    for (const std::size_t shards : points)
      series.push_back(run_point(advisor, shards, cache_cap, requests,
                                 concurrency, 0.0, hot_set, &verdict_of,
                                 &mismatches));

    // Cache win at the largest point: same duplicate-heavy mix, cache on
    // vs off. The off run replays snippets the on run already recorded, so
    // the verdict map cross-checks cached against fresh servings.
    const std::size_t top = points.back();
    const PointResult dup_on =
        run_point(advisor, top, cache_cap, dup_requests, concurrency, dup_rate,
                  hot_set, &verdict_of, &mismatches);
    const PointResult dup_off =
        run_point(advisor, top, 0, dup_requests, concurrency, dup_rate,
                  hot_set, &verdict_of, &mismatches);

    const unsigned ncores = std::max(1u, std::thread::hardware_concurrency());
    const double base_rps = series.front().throughput_rps;
    const double top_rps = series.back().throughput_rps;
    const std::size_t effective =
        std::min<std::size_t>(top, ncores);
    // Judge the curve at the largest point the machine can actually
    // parallelize: throughput at `effective` shards over 1-shard
    // throughput, normalized per shard.
    double effective_rps = base_rps;
    for (const PointResult& point : series)
      if (point.shards <= effective) effective_rps = point.throughput_rps;
    const double speedup = base_rps > 0.0 ? top_rps / base_rps : 0.0;
    const double per_core_speedup =
        base_rps > 0.0 && effective > 0
            ? (effective_rps / base_rps) / static_cast<double>(effective)
            : 0.0;
    const double cache_speedup = dup_off.throughput_rps > 0.0
                                     ? dup_on.throughput_rps /
                                           dup_off.throughput_rps
                                     : 0.0;
    const double hit_rate =
        dup_on.run.ok > 0
            ? static_cast<double>(dup_on.run.cached) /
                  static_cast<double>(dup_on.run.ok)
            : 0.0;
    std::size_t lost_total = dup_on.run.lost + dup_off.run.lost;
    for (const PointResult& point : series) lost_total += point.run.lost;

    Json report = Json::object();
    report["schema"] = "clpp.shard_scaling.v1";
    report["concurrency"] = static_cast<std::int64_t>(concurrency);
    report["hot_set"] = static_cast<std::int64_t>(hot_set);
    report["cache_cap"] = static_cast<std::int64_t>(cache_cap);
    Json rows = Json::array();
    for (const PointResult& point : series) rows.push_back(point_json(point));
    rows.push_back(point_json(dup_on));
    rows.push_back(point_json(dup_off));
    report["points"] = std::move(rows);
    Json scaling = Json::object();
    scaling["ncores"] = static_cast<std::int64_t>(ncores);
    scaling["base_shards"] = static_cast<std::int64_t>(points.front());
    scaling["top_shards"] = static_cast<std::int64_t>(top);
    scaling["effective_shards"] = static_cast<std::int64_t>(effective);
    scaling["base_rps"] = base_rps;
    scaling["top_rps"] = top_rps;
    scaling["speedup"] = speedup;
    scaling["per_core_speedup"] = per_core_speedup;
    report["scaling"] = std::move(scaling);
    Json cache_win = Json::object();
    cache_win["shards"] = static_cast<std::int64_t>(top);
    cache_win["dup_rate"] = dup_rate;
    cache_win["on_rps"] = dup_on.throughput_rps;
    cache_win["off_rps"] = dup_off.throughput_rps;
    cache_win["speedup"] = cache_speedup;
    cache_win["hit_rate"] = hit_rate;
    cache_win["cached_responses"] =
        static_cast<std::int64_t>(dup_on.run.cached);
    report["cache_win"] = std::move(cache_win);
    report["lost"] = static_cast<std::int64_t>(lost_total);
    report["verdicts_identical"] = mismatches == 0;
    report["verdict_mismatches"] = static_cast<std::int64_t>(mismatches);

    std::fprintf(stderr,
                 "scaling: %.1f -> %.1f req/s (%.2fx, %.2f/core over %zu "
                 "effective); cache: %.1f vs %.1f req/s (%.2fx, hit rate "
                 "%.2f); verdicts %s\n",
                 base_rps, top_rps, speedup, per_core_speedup, effective,
                 dup_on.throughput_rps, dup_off.throughput_rps, cache_speedup,
                 hit_rate, mismatches == 0 ? "identical" : "DIVERGED");
    const std::string text = report.dump();
    const std::string out = parser.get_string("out");
    if (!out.empty()) {
      write_cli_output(out, text + "\n");
    } else {
      std::printf("%s\n", text.c_str());
    }
    return mismatches == 0 && lost_total == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard_scaling_bench: %s\n", e.what());
    return 1;
  }
}
