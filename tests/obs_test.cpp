// clpp::obs — counters/gauges/histograms, concurrent recording through
// parallel_for, span nesting, Chrome-trace JSON well-formedness, the
// structured logger, the disabled-flag fast path, request trace contexts,
// the flight recorder, and the live metrics streamer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/stream.h"
#include "obs/trace.h"
#include "support/json.h"
#include "support/parallel.h"

namespace {

using namespace clpp;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::metrics().reset();
    obs::Tracer::instance().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_log_level(obs::LogLevel::kWarn);
    obs::set_log_path("");
  }

  /// Spins until the trace clock advances, so spans have nonzero duration.
  static void burn() {
    const std::uint64_t t0 = obs::Tracer::now_ns();
    volatile double sink = 0.0;
    while (obs::Tracer::now_ns() == t0) sink = sink + std::sqrt(2.0);
  }
};

TEST_F(ObsTest, CounterSemantics) {
  obs::Counter& c = obs::metrics().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(5);
  EXPECT_EQ(c.value(), 6u);
  // Same name resolves to the same object.
  obs::metrics().counter("test.counter").add(4);
  EXPECT_EQ(c.value(), 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeSemantics) {
  obs::Gauge& g = obs::metrics().gauge("test.gauge");
  EXPECT_EQ(g.set_count(), 0u);
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
  EXPECT_EQ(g.set_count(), 2u);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(g.set_count(), 0u);
}

TEST_F(ObsTest, HistogramSemantics) {
  obs::Histogram& h = obs::metrics().histogram("test.hist", {1.0, 2.0, 5.0});
  h.record(0.5);   // bucket 0: <= 1
  h.record(1.5);   // bucket 1: <= 2
  h.record(100.0); // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 102.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.mean(), 34.0, 1e-9);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST_F(ObsTest, HistogramQuantiles) {
  obs::Histogram& h = obs::metrics().histogram("test.hist.quantiles");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  // Bucket-interpolated estimates: loose bounds, strict monotonicity.
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p50, 200.0);
  EXPECT_LT(p50, 1000.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.quantile(0.0));  // no NaN
}

TEST_F(ObsTest, ConcurrentRecordingFromParallelFor) {
  obs::Counter& c = obs::metrics().counter("test.concurrent.counter");
  obs::Histogram& h = obs::metrics().histogram("test.concurrent.hist", {10.0, 100.0});
  constexpr std::size_t kN = 100000;
  parallel_for(
      kN,
      [&](std::size_t i) {
        c.add(1);
        h.record(static_cast<double>(i % 200));
      },
      /*grain=*/1);
  EXPECT_EQ(c.value(), kN);
  EXPECT_EQ(h.count(), kN);
  // The parallel_for hook itself recorded the dispatch.
  EXPECT_GE(obs::metrics().counter("clpp.parallel.loops_parallel").value() +
                obs::metrics().counter("clpp.parallel.loops_serial").value(),
            1u);
}

TEST_F(ObsTest, ConcurrentSpansFromParallelFor) {
  constexpr std::size_t kN = 4096;
  parallel_for(
      kN, [&](std::size_t) { CLPP_TRACE_SPAN("loop.body"); }, /*grain=*/1);
  const Json doc = obs::Tracer::instance().chrome_trace();
  std::size_t found = 0;
  const Json& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events.at(i).at("name").as_string() == "loop.body") ++found;
  EXPECT_EQ(found, kN);
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);
}

TEST_F(ObsTest, SpanNesting) {
  {
    CLPP_TRACE_SPAN("outer");
    burn();
    {
      CLPP_TRACE_SPAN_ARG("inner", 7);
      burn();
    }
    burn();
  }
  const Json doc = obs::Tracer::instance().chrome_trace();
  const Json& events = doc.at("traceEvents");
  const Json* outer = nullptr;
  const Json* inner = nullptr;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("name").as_string() == "outer") outer = &e;
    if (e.at("name").as_string() == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  const double outer_begin = outer->at("ts").as_double();
  const double outer_end = outer_begin + outer->at("dur").as_double();
  const double inner_begin = inner->at("ts").as_double();
  const double inner_end = inner_begin + inner->at("dur").as_double();
  EXPECT_GE(inner_begin, outer_begin);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_GT(outer->at("dur").as_double(), 0.0);
  // Same thread, and the span argument survived the trip.
  EXPECT_EQ(inner->at("tid").as_int(), outer->at("tid").as_int());
  EXPECT_EQ(inner->at("args").at("v").as_int(), 7);
}

TEST_F(ObsTest, ChromeTraceJsonRoundTrip) {
  {
    CLPP_TRACE_SPAN("roundtrip");
    burn();
  }
  const std::string text = obs::Tracer::instance().chrome_trace().dump();
  const Json parsed = Json::parse(text);  // throws on malformed output
  const Json& events = parsed.at("traceEvents");
  ASSERT_GE(events.size(), 1u);
  bool found = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    EXPECT_EQ(e.at("pid").as_int(), 1);
    if (e.at("ph").as_string() == "M") continue;  // thread_name metadata
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    if (e.at("name").as_string() == "roundtrip") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");
}

TEST_F(ObsTest, TraceRingBufferDropsOldest) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_thread_capacity(8);
  tracer.reset();  // this thread re-registers with the new capacity
  for (int i = 0; i < 20; ++i) {
    CLPP_TRACE_SPAN("ring");
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const Json doc = tracer.chrome_trace();
  const Json& events = doc.at("traceEvents");
  std::size_t spans = 0;
  for (std::size_t i = 0; i < events.size(); ++i)
    spans += events.at(i).at("ph").as_string() == "X";
  EXPECT_EQ(spans, 8u);
  tracer.set_thread_capacity(1 << 17);
  tracer.reset();
}

TEST_F(ObsTest, DisabledFlagFastPath) {
  obs::set_enabled(false);
  obs::Counter& c = obs::metrics().counter("test.disabled.counter");
  obs::Gauge& g = obs::metrics().gauge("test.disabled.gauge");
  obs::Histogram& h = obs::metrics().histogram("test.disabled.hist");
  c.add(5);
  g.set(1.0);
  h.record(3.0);
  {
    CLPP_TRACE_SPAN("disabled.span");
  }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.set_count(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(obs::Tracer::instance().recorded(), 0u);
}

TEST_F(ObsTest, MetricsJsonSnapshot) {
  obs::metrics().counter("clpp.test.calls").add(3);
  obs::metrics().gauge("clpp.test.loss").set(0.25);
  obs::Histogram& h = obs::metrics().histogram("clpp.test.latency_us");
  h.record(10.0);
  h.record(20.0);
  const Json parsed = Json::parse(obs::metrics().to_json().dump());
  EXPECT_EQ(parsed.at("counters").at("clpp.test.calls").as_int(), 3);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("clpp.test.loss").as_double(), 0.25);
  const Json& hist = parsed.at("histograms").at("clpp.test.latency_us");
  EXPECT_EQ(hist.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_double(), 30.0);
  EXPECT_DOUBLE_EQ(hist.at("min").as_double(), 10.0);
  EXPECT_DOUBLE_EQ(hist.at("max").as_double(), 20.0);
  // All three interpolated quantiles ship in the snapshot, monotonically.
  EXPECT_TRUE(hist.contains("p50"));
  EXPECT_TRUE(hist.contains("p95"));
  EXPECT_TRUE(hist.contains("p99"));
  EXPECT_LE(hist.at("p50").as_double(), hist.at("p95").as_double());
  EXPECT_LE(hist.at("p95").as_double(), hist.at("p99").as_double());
}

TEST_F(ObsTest, SummaryIncludesP95Column) {
  obs::Histogram& h = obs::metrics().histogram("clpp.test.latency_us");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const std::string summary = obs::metrics().summary();
  EXPECT_NE(summary.find("p95"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceNamesThreads) {
  {
    CLPP_TRACE_SPAN("named.span");
    burn();
  }
  const Json doc = obs::Tracer::instance().chrome_trace();
  const Json& events = doc.at("traceEvents");
  bool main_named = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("ph").as_string() != "M") continue;
    EXPECT_EQ(e.at("name").as_string(), "thread_name");
    if (e.at("args").at("name").as_string() == "main") main_named = true;
  }
  EXPECT_TRUE(main_named);

  obs::Tracer::instance().set_thread_name("renamed");
  const Json doc2 = obs::Tracer::instance().chrome_trace();
  const Json& events2 = doc2.at("traceEvents");
  bool renamed = false;
  for (std::size_t i = 0; i < events2.size(); ++i) {
    const Json& e = events2.at(i);
    if (e.at("ph").as_string() == "M" &&
        e.at("args").at("name").as_string() == "renamed")
      renamed = true;
  }
  EXPECT_TRUE(renamed);
  obs::Tracer::instance().set_thread_name("main");
}

TEST_F(ObsTest, SummaryTablesRender) {
  obs::metrics().counter("clpp.test.calls").add(1);
  obs::metrics().gauge("clpp.test.loss").set(0.5);
  obs::metrics().histogram("clpp.test.latency_us").record(42.0);
  const std::string summary = obs::metrics().summary();
  EXPECT_NE(summary.find("clpp.test.calls"), std::string::npos);
  EXPECT_NE(summary.find("clpp.test.loss"), std::string::npos);
  EXPECT_NE(summary.find("clpp.test.latency_us"), std::string::npos);
  {
    CLPP_TRACE_SPAN("summary.span");
    burn();
  }
  EXPECT_NE(obs::Tracer::instance().summary().find("summary.span"),
            std::string::npos);
}

TEST_F(ObsTest, StructuredLoggerWritesJsonLines) {
  const std::string path = "obs_test_log.jsonl";
  std::remove(path.c_str());
  obs::set_log_path(path);
  obs::set_log_level(obs::LogLevel::kInfo);
  Json fields = Json::object();
  fields["epoch"] = 3;
  obs::log_info("obs_test", "hello", std::move(fields));
  obs::log_debug("obs_test", "filtered out");  // below threshold
  obs::set_log_path("");  // flush + release the file

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<Json> lines;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(Json::parse(line));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].at("level").as_string(), "info");
  EXPECT_EQ(lines[0].at("component").as_string(), "obs_test");
  EXPECT_EQ(lines[0].at("msg").as_string(), "hello");
  EXPECT_EQ(lines[0].at("epoch").as_int(), 3);
  EXPECT_GT(lines[0].at("ts").as_double(), 0.0);
  std::remove(path.c_str());
}

TEST_F(ObsTest, TraceContextMintAndChild) {
  const obs::TraceContext a = obs::TraceContext::mint();
  const obs::TraceContext b = obs::TraceContext::mint();
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_NE(a.trace_id, 0u);
  EXPECT_NE(a.trace_id, b.trace_id);
  // Root context: the trace IS the root span.
  EXPECT_EQ(a.span_id, a.trace_id);
  EXPECT_EQ(a.parent_span_id, 0u);

  const obs::TraceContext hop = a.child();
  EXPECT_EQ(hop.trace_id, a.trace_id);  // same request
  EXPECT_NE(hop.span_id, a.span_id);
  EXPECT_EQ(hop.parent_span_id, a.span_id);

  const std::string hex = a.trace_hex();
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_NE(hex, b.trace_hex());
}

TEST_F(ObsTest, FlightRecorderRecordsAndDumps) {
  obs::reset_flight();
  obs::flight_record("test.alpha", 11, 22);
  obs::flight_record("test.beta", -3);
  EXPECT_EQ(obs::flight_recorded(), 2u);
  EXPECT_EQ(obs::flight_dropped(), 0u);

  const Json doc = obs::flight_json("unit-test");
  EXPECT_EQ(doc.at("schema").as_string(), "clpp.flight.v1");
  EXPECT_EQ(doc.at("reason").as_string(), "unit-test");
  const Json& events = doc.at("events");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.at(0).at("kind").as_string(), "test.alpha");
  EXPECT_EQ(events.at(0).at("a").as_int(), 11);
  EXPECT_EQ(events.at(0).at("b").as_int(), 22);
  EXPECT_EQ(events.at(1).at("kind").as_string(), "test.beta");
  EXPECT_EQ(events.at(1).at("a").as_int(), -3);
  // Oldest-first within the thread's ring.
  EXPECT_LE(events.at(0).at("ts_us").as_double(),
            events.at(1).at("ts_us").as_double());

  const std::string path = ::testing::TempDir() + "clpp_obs_flight_test.json";
  std::remove(path.c_str());
  const std::string saved = obs::flight_out();
  obs::set_flight_out(path);
  EXPECT_TRUE(obs::flight_dump_on_fault());
  EXPECT_TRUE(obs::dump_flight("unit-test"));
  obs::set_flight_out(saved);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const Json reparsed = Json::parse(text);
  EXPECT_EQ(reparsed.at("schema").as_string(), "clpp.flight.v1");
  EXPECT_EQ(reparsed.at("events").size(), 2u);
  std::remove(path.c_str());

  obs::reset_flight();
  EXPECT_EQ(obs::flight_recorded(), 0u);
  EXPECT_EQ(obs::flight_json("empty").at("events").size(), 0u);
}

TEST_F(ObsTest, FlightRecorderRingKeepsNewestAndCountsDrops) {
  obs::reset_flight();
  const std::size_t total = obs::kFlightCapacity + 16;
  for (std::size_t i = 0; i < total; ++i)
    obs::flight_record("test.wrap", static_cast<std::int64_t>(i));
  EXPECT_EQ(obs::flight_recorded(), total);
  EXPECT_EQ(obs::flight_dropped(), 16u);
  const Json doc = obs::flight_json("wrap");
  const Json& events = doc.at("events");
  ASSERT_EQ(events.size(), obs::kFlightCapacity);
  // The ring keeps the newest events: the oldest 16 were overwritten.
  EXPECT_EQ(events.at(0).at("a").as_int(), 16);
  EXPECT_EQ(events.at(events.size() - 1).at("a").as_int(),
            static_cast<std::int64_t>(total) - 1);
  obs::reset_flight();
}

TEST_F(ObsTest, MetricsStreamerEmitsDeltaLines) {
  const std::string path = ::testing::TempDir() + "clpp_obs_stream_test.jsonl";
  std::remove(path.c_str());
  obs::MetricsStreamer& streamer = obs::MetricsStreamer::instance();
  const std::uint64_t before = streamer.emitted();
  streamer.start(path, /*interval_ms=*/10);
  EXPECT_TRUE(streamer.running());
  obs::metrics().counter("clpp.test.stream.ticks").add(7);
  // Poll until at least one line lands (generous deadline; 10ms interval).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (streamer.emitted() == before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  streamer.stop();  // flushes the final delta line
  EXPECT_FALSE(streamer.running());
  EXPECT_GT(streamer.emitted(), before);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_delta = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const Json parsed = Json::parse(line);  // throws on malformed output
    EXPECT_EQ(parsed.at("schema").as_string(), "clpp.metrics_stream.v1");
    EXPECT_GE(parsed.at("seq").as_int(), 0);
    if (parsed.contains("counters") &&
        parsed.at("counters").contains("clpp.test.stream.ticks") &&
        parsed.at("counters").at("clpp.test.stream.ticks").as_int() == 7)
      saw_delta = true;
  }
  EXPECT_TRUE(saw_delta) << "no stream line carried the counter delta";
  std::remove(path.c_str());
}

TEST_F(ObsTest, HistogramSnapshotsAreConsistentUnderConcurrentWriters) {
  obs::Histogram& h = obs::metrics().histogram("clpp.test.load.latency_us");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&h, &stop, t] {
      // Record at least once even if the stop flag lands before this
      // thread is first scheduled (single-core machines).
      std::uint64_t i = 0;
      do {
        h.record(static_cast<double>((t * 131 + i++) % 1000));
      } while (!stop.load(std::memory_order_relaxed));
    });
  // Snapshot while the writers hammer the shards: counts must only grow,
  // and every read (count/mean/quantile/to_json) must stay self-consistent.
  std::uint64_t last_count = 0;
  for (int round = 0; round < 50; ++round) {
    std::this_thread::yield();
    const std::uint64_t count = h.count();
    EXPECT_GE(count, last_count);
    last_count = count;
    if (count > 0) {
      EXPECT_GE(h.mean(), 0.0);
      const double p50 = h.quantile(0.50);
      const double p99 = h.quantile(0.99);
      EXPECT_LE(p50, p99);
      EXPECT_FALSE(std::isnan(p50));
    }
    const Json snap = obs::metrics().to_json();
    EXPECT_TRUE(snap.at("histograms").contains("clpp.test.load.latency_us"));
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(h.count(), h.count());  // quiesced: stable final count
  EXPECT_GT(h.count(), 0u);
}

TEST_F(ObsTest, MetricsStreamerSnapshotsHistogramUnderConcurrentWriters) {
  const std::string path =
      ::testing::TempDir() + "clpp_obs_stream_concurrent_test.jsonl";
  std::remove(path.c_str());
  obs::Histogram& h = obs::metrics().histogram("clpp.test.stream.latency_us");
  obs::MetricsStreamer& streamer = obs::MetricsStreamer::instance();
  const std::uint64_t before = streamer.emitted();
  streamer.start(path, /*interval_ms=*/5);

  // record_always bypasses the enabled() gate (always-on serve telemetry),
  // so the streamer snapshots shards that are being written this instant.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&h, &stop, t] {
      std::uint64_t i = 0;
      do {
        h.record_always(static_cast<double>((t * 271 + i++) % 1000));
      } while (!stop.load(std::memory_order_relaxed));
    });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (streamer.emitted() < before + 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  for (std::thread& w : writers) w.join();
  streamer.stop();  // final flush captures the quiesced totals

  // Every line must parse; histogram lines carry the per-interval delta
  // count plus cumulative quantiles, so the deltas must be positive, the
  // quantiles ordered, and the deltas must sum to the quiesced total — a
  // torn snapshot would lose or double-count an interval.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  double delta_sum = 0.0;
  std::int64_t lines_with_hist = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const Json parsed = Json::parse(line);
    EXPECT_EQ(parsed.at("schema").as_string(), "clpp.metrics_stream.v1");
    if (!parsed.contains("histograms") ||
        !parsed.at("histograms").contains("clpp.test.stream.latency_us"))
      continue;
    ++lines_with_hist;
    const Json& stats = parsed.at("histograms").at("clpp.test.stream.latency_us");
    EXPECT_GT(stats.at("count").as_double(), 0.0);
    delta_sum += stats.at("count").as_double();
    EXPECT_GE(stats.at("p99").as_double(), stats.at("p50").as_double());
  }
  EXPECT_GT(lines_with_hist, 0);
  EXPECT_DOUBLE_EQ(delta_sum, static_cast<double>(h.count()));
  std::remove(path.c_str());
}

TEST_F(ObsTest, AsyncSafeFlightDumpWritesParseableArtifact) {
  const std::string path =
      ::testing::TempDir() + "clpp_obs_flight_async_test.json";
  std::remove(path.c_str());
  obs::reset_flight();
  obs::set_flight_out(path);
  obs::flight_record("test.async", 7, 9);
  obs::flight_record("test.async", 8);
  // Not called from a signal handler here, but the artifact must be the
  // same shape the crash path produces (write(2)-only serializer).
  ASSERT_TRUE(obs::dump_flight_async_safe("unit_test"));
  obs::set_flight_out("clpp_flight.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Json doc = Json::parse(buffer.str());
  EXPECT_EQ(doc.at("schema").as_string(), "clpp.flight.v1");
  EXPECT_EQ(doc.at("reason").as_string(), "unit_test");
  EXPECT_GE(doc.at("recorded").as_int(), 2);
  bool saw_event = false;
  const Json& events = doc.at("events");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("kind").as_string() != "test.async" || e.at("a").as_int() != 7)
      continue;
    saw_event = true;
    EXPECT_EQ(e.at("b").as_int(), 9);
    EXPECT_GE(e.at("ts_us").as_int(), 0);
  }
  EXPECT_TRUE(saw_event);
  std::remove(path.c_str());
}

TEST_F(ObsTest, ChromeTraceEmitsFlowEventsForFlowedSpans) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const obs::TraceContext ctx = obs::TraceContext::mint();
  const std::uint64_t t0 = obs::Tracer::now_ns();
  burn();
  const std::uint64_t t1 = obs::Tracer::now_ns();
  tracer.record("flow.begin", t0, t1, obs::kNoArg, ctx.trace_id,
                obs::FlowPhase::kStart);
  tracer.record("flow.mid", t1, t1 + 10, obs::kNoArg, ctx.trace_id,
                obs::FlowPhase::kStep);
  tracer.record("flow.end", t1 + 10, t1 + 20, obs::kNoArg, ctx.trace_id,
                obs::FlowPhase::kEnd);
  tracer.record("flow.none", t1 + 20, t1 + 30);  // no linkage

  const std::string text = tracer.chrome_trace().dump();
  const Json doc = Json::parse(text);  // flow events keep the JSON valid
  const Json& events = doc.at("traceEvents");
  const std::string hex = ctx.trace_hex();
  bool saw_start = false, saw_step = false, saw_finish = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const std::string ph = e.get_string("ph", "");
    if (ph != "s" && ph != "t" && ph != "f") continue;
    EXPECT_EQ(e.at("id").as_string(), hex);
    EXPECT_EQ(e.at("cat").as_string(), "clpp.flow");
    if (ph == "s") saw_start = true;
    if (ph == "t") saw_step = true;
    if (ph == "f") {
      saw_finish = true;
      // Binding point "enclosing slice": the arrow lands on the span.
      EXPECT_EQ(e.at("bp").as_string(), "e");
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_finish);
}

TEST_F(ObsTest, LogLevelParsing) {
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_EQ(obs::parse_log_level("bogus"), obs::LogLevel::kWarn);
}

}  // namespace
