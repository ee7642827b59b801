// Tests for clpp::shard — the sharded fault-tolerant serving stack
// (DESIGN.md §12): frame codec hostility, admission control, the shard
// supervisor's crash-recovery contract ("a crash of one shard loses no
// accepted request"), and the socket listener's survive-bad-input rules.
//
// Crash tests script worker death deterministically through the
// `shard.batch` fault seam (resil::FaultPlan is installed process-wide
// before fork, so every first-generation worker inherits it), or kill a
// live worker with SIGKILL. Both paths must end with every accepted
// request answered by a verdict bitwise-identical to a direct advise()
// call — advice is a pure function of the code text, which is what makes
// replay-on-crash safe in the first place.
//
// Fork discipline: the supervisor forks worker processes, so these tests
// drive everything (submission, pumping, the listener event loop) from the
// gtest main thread and never start helper threads while a (re)spawn can
// happen.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "obs/trace.h"
#include "resil/fault.h"
#include "shard/admission.h"
#include "shard/client.h"
#include "shard/frame.h"
#include "shard/listener.h"
#include "shard/supervisor.h"
#include "shard/worker.h"
#include "support/json.h"
#include "support/rng.h"

namespace clpp::shard {
namespace {

using core::Advice;
using core::ParallelAdvisor;

const std::vector<std::string>& snippets() {
  static const std::vector<std::string> list = {
      "for (i = 0; i < n; i++) a[i] = b[i];",
      "for (i = 0; i < n; i++) c[i] = a[i] + b[i];",
      "for (i = 0; i < n; i++) sum += a[i];",
      "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;",
      "for (i = 0; i < n; i++) { t = a[i] * 0.5; b[i] = t + a[i]; }",
      "for (i = 0; i < n; i++) printf(\"%d\", a[i]);",
      "for (i = 0; i < n; i++) { if (a[i] > 0.5) a[i] = evolve(a[i]); }",
      "for (i = 0; i < n; i++) best = a[i] > best ? a[i] : best;",
  };
  return list;
}

/// Small untrained advisor (identical construction to serve_test: verdict
/// correctness is independent of model quality, and skipping training keeps
/// the crash-recovery suite fast enough for the TSan job).
std::unique_ptr<ParallelAdvisor> tiny_advisor() {
  constexpr std::size_t kMaxLen = 48;
  core::PragFormerConfig config;
  config.encoder.max_seq = kMaxLen;
  config.encoder.dim = 16;
  config.encoder.heads = 2;
  config.encoder.layers = 1;
  config.encoder.ffn_dim = 32;
  return std::make_unique<ParallelAdvisor>(
      ParallelAdvisor::untrained(snippets(), config, kMaxLen, 4242));
}

std::string request_payload(std::int64_t id, const std::string& code) {
  Json request = Json::object();
  request["id"] = id;
  request["code"] = code;
  return request.dump();
}

/// Asserts a response payload is the verdict a direct advise() produces —
/// bitwise: Json serializes doubles at round-trip precision, so equality of
/// the parsed doubles proves the float verdicts match exactly.
void expect_verdict_matches(const std::string& payload, const Advice& expect) {
  const Json body = Json::parse(payload);
  ASSERT_FALSE(body.contains("error")) << payload;
  EXPECT_EQ(body.at("p_directive").as_double(),
            static_cast<double>(expect.p_directive))
      << payload;
  ASSERT_EQ(body.at("needs_directive").as_bool(), expect.needs_directive);
  if (expect.needs_directive) {
    EXPECT_EQ(body.at("p_private").as_double(),
              static_cast<double>(expect.p_private));
    EXPECT_EQ(body.at("p_reduction").as_double(),
              static_cast<double>(expect.p_reduction));
    EXPECT_EQ(body.at("suggestion").as_string(), expect.suggestion);
  }
}

// ------------------------------------------------------------- frame codec

TEST(FrameCodec, RoundTripsThroughArbitrarySplits) {
  Frame frame;
  frame.payload = R"({"id":7,"code":"for (i = 0; i < n; i++) a[i] = 0;"})";
  frame.deadline_ms = 1234;
  const std::string wire = encode_frame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + frame.payload.size());

  // Feed the wire bytes in every possible two-chunk split: the decoder
  // must reassemble regardless of where the kernel happened to cut reads.
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(wire.data(), cut);
    Frame out;
    std::string error;
    if (cut < wire.size()) {
      ASSERT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kNeedMore);
      decoder.feed(wire.data() + cut, wire.size() - cut);
    }
    ASSERT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.payload, frame.payload);
    EXPECT_EQ(out.deadline_ms, frame.deadline_ms);
    EXPECT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kNeedMore);
  }
}

TEST(FrameCodec, DecodesBackToBackFramesFromOneFeed) {
  Frame a, b;
  a.payload = R"({"id":1})";
  b.payload = R"({"id":2,"code":"x"})";
  b.deadline_ms = 9;
  const std::string wire = encode_frame(a) + encode_frame(b);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  Frame out;
  std::string error;
  ASSERT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.payload, a.payload);
  ASSERT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.payload, b.payload);
  EXPECT_EQ(out.deadline_ms, 9u);
  EXPECT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kNeedMore);
}

TEST(FrameCodec, TruncatedHeaderNeedsMore) {
  FrameDecoder decoder;
  const char partial[5] = {0x10, 0x00, 0x00, 0x00, 0x00};
  decoder.feed(partial, sizeof partial);
  Frame out;
  std::string error;
  EXPECT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kNeedMore);
}

TEST(FrameCodec, OversizedAndZeroLengthPrefixesAreBadFrames) {
  const std::uint32_t bad_lengths[] = {
      0, static_cast<std::uint32_t>(kMaxFramePayload) + 1, 0xffffffffu};
  for (const std::uint32_t bad_len : bad_lengths) {
    FrameDecoder decoder;
    char header[kFrameHeaderBytes] = {};
    std::memcpy(header, &bad_len, 4);  // little-endian test hosts only
    decoder.feed(header, sizeof header);
    Frame out;
    std::string error;
    EXPECT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kBadFrame)
        << bad_len;
    EXPECT_NE(error.find("bad frame length"), std::string::npos) << error;
    // The decoder reset itself: a valid frame fed afterwards decodes.
    Frame good;
    good.payload = "{}";
    const std::string wire = encode_frame(good);
    decoder.feed(wire.data(), wire.size());
    EXPECT_EQ(decoder.next(&out, &error), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.payload, "{}");
  }
}

TEST(FrameCodec, FdReaderReportsCleanEofTruncationAndMidFrameCut) {
  {  // clean EOF before any byte
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ::close(fds[1]);
    Frame out;
    std::string error;
    EXPECT_EQ(read_frame_fd(fds[0], &out, &error), ReadStatus::kEof);
    ::close(fds[0]);
  }
  {  // EOF inside the length prefix
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const char partial[3] = {0x10, 0x00, 0x00};
    ASSERT_EQ(::write(fds[1], partial, sizeof partial), 3);
    ::close(fds[1]);
    Frame out;
    std::string error;
    EXPECT_EQ(read_frame_fd(fds[0], &out, &error), ReadStatus::kError);
    EXPECT_NE(error.find("truncated frame header"), std::string::npos)
        << error;
    ::close(fds[0]);
  }
  {  // header promises 100 bytes, stream dies after 10
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Frame promise;
    promise.payload.assign(100, 'x');
    const std::string wire = encode_frame(promise);
    ASSERT_EQ(::write(fds[1], wire.data(), kFrameHeaderBytes + 10),
              static_cast<ssize_t>(kFrameHeaderBytes + 10));
    ::close(fds[1]);
    Frame out;
    std::string error;
    EXPECT_EQ(read_frame_fd(fds[0], &out, &error), ReadStatus::kError);
    EXPECT_NE(error.find("EOF mid-frame"), std::string::npos) << error;
    ::close(fds[0]);
  }
}

TEST(FrameCodec, SurvivesRandomByteFlips) {
  // Same adversary as checkpoint_test's flipped-byte corruption pass: take
  // a valid multi-frame stream, flip one random byte, and require the
  // decoder to classify every byte without crashing — each frame either
  // decodes, waits for more input, or is rejected as a bad frame.
  std::vector<Frame> frames;
  std::string wire;
  for (int i = 0; i < 6; ++i) {
    Frame frame;
    frame.payload = request_payload(i, snippets()[i % snippets().size()]);
    frame.deadline_ms = static_cast<std::uint32_t>(i);
    wire += encode_frame(frame);
    frames.push_back(std::move(frame));
  }
  Rng rng(20230807);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupt = wire;
    const std::size_t at = rng.index(corrupt.size());
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << rng.index(8)));
    FrameDecoder decoder;
    decoder.feed(corrupt.data(), corrupt.size());
    Frame out;
    std::string error;
    std::size_t decoded = 0;
    for (;;) {
      const FrameDecoder::Result result = decoder.next(&out, &error);
      if (result == FrameDecoder::Result::kFrame) {
        ++decoded;
        ASSERT_LE(out.payload.size(), kMaxFramePayload);
        ASSERT_LE(decoded, frames.size() + 1) << "runaway decode";
        continue;
      }
      if (result == FrameDecoder::Result::kBadFrame) {
        EXPECT_FALSE(error.empty());
      }
      break;
    }
  }
}

// ----------------------------------------------------------- response codec

TEST(ResponseJson, NormalizedVerdictDropsBookkeepingAndTelemetryOnly) {
  serve::ServedAdvice fresh;
  fresh.advice.p_directive = 0.75f;
  fresh.advice.needs_directive = true;
  fresh.advice.suggestion = "#pragma omp parallel for";
  fresh.timing.trace_id = 0x2a;
  fresh.timing.queue_us = 12;
  serve::ServedAdvice cached = fresh;
  cached.timing.trace_id = 0x2b;
  cached.timing.queue_us = 0;
  cached.timing.cached = true;

  Json fresh_json = response_json(7, fresh);
  fresh_json["client"] = "loadgen-0";
  EXPECT_EQ(fresh_json.at("trace_id").as_string(), "000000000000002a");
  const Json verdict = normalized_verdict(fresh_json);
  EXPECT_EQ(verdict.dump(), normalized_verdict(response_json(8, cached)).dump());
  for (const char* key : {"id", "client", "trace_id", "queue_us", "batch_us",
                          "infer_us", "coalesced", "cached"})
    EXPECT_FALSE(verdict.contains(key)) << key;
  EXPECT_EQ(verdict.at("suggestion").as_string(), "#pragma omp parallel for");
  EXPECT_TRUE(verdict.at("needs_directive").as_bool());

  cached.advice.needs_directive = false;
  EXPECT_NE(verdict.dump(), normalized_verdict(response_json(8, cached)).dump());
}

// --------------------------------------------------------------- admission

TEST(TokenBucketTest, BurstThenRefill) {
  const std::uint64_t t0 = 1'000'000'000ULL;
  TokenBucket bucket(/*rate_per_s=*/1000.0, /*burst=*/2.0, t0);
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_FALSE(bucket.try_take(t0));
  const std::uint64_t wait = bucket.retry_after_ms(t0);
  EXPECT_GE(wait, 1u);
  // One refill interval later (1ms at 1000 rps) a token is back.
  const std::uint64_t t1 = t0 + 1'000'000ULL;
  EXPECT_EQ(bucket.retry_after_ms(t1), 0u);
  EXPECT_TRUE(bucket.try_take(t1));
  EXPECT_FALSE(bucket.try_take(t1));
}

TEST(TokenBucketTest, ZeroRateNeverRefills) {
  const std::uint64_t t0 = 5'000ULL;
  TokenBucket bucket(/*rate_per_s=*/0.0, /*burst=*/1.0, t0);
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_FALSE(bucket.try_take(t0 + 60'000'000'000ULL));
  EXPECT_GT(bucket.retry_after_ms(t0 + 60'000'000'000ULL), 0u);
}

TEST(AdmissionTest, PerClientQuotasAreIndependent) {
  AdmissionConfig config;
  config.quota_rps = 1.0;
  config.quota_burst = 2.0;
  AdmissionController admission(config);
  const std::uint64_t now = 42'000'000'000ULL;
  EXPECT_EQ(admission.admit("alice", 0, now, 0).verdict, Admit::kAccept);
  EXPECT_EQ(admission.admit("alice", 0, now, 0).verdict, Admit::kAccept);
  const AdmissionDecision shed = admission.admit("alice", 0, now, 0);
  EXPECT_EQ(shed.verdict, Admit::kOverQuota);
  EXPECT_GT(shed.retry_after_ms, 0u);
  // A different client id has its own untouched bucket.
  EXPECT_EQ(admission.admit("bob", 0, now, 0).verdict, Admit::kAccept);
  EXPECT_EQ(admission.stats().accepted, 3u);
  EXPECT_EQ(admission.stats().over_quota, 1u);
}

TEST(AdmissionTest, InflightCeilingShedsBeforeQuota) {
  AdmissionConfig config;
  config.max_inflight = 4;
  AdmissionController admission(config);
  const std::uint64_t now = 7'000'000'000ULL;
  EXPECT_EQ(admission.admit("c", 0, now, 3).verdict, Admit::kAccept);
  const AdmissionDecision shed = admission.admit("c", 0, now, 4);
  EXPECT_EQ(shed.verdict, Admit::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0u);
  EXPECT_EQ(admission.stats().overloaded, 1u);
}

TEST(AdmissionTest, DeadlineStampingUsesRequestThenDefault) {
  AdmissionConfig config;
  config.default_deadline_ms = 100;
  AdmissionController admission(config);
  const std::uint64_t now = 9'000'000'000ULL;
  // Frame-carried budget wins.
  EXPECT_EQ(admission.admit("c", 250, now, 0).deadline_ns,
            now + 250'000'000ULL);
  // No budget in the frame: the configured default applies.
  EXPECT_EQ(admission.admit("c", 0, now, 0).deadline_ns,
            now + 100'000'000ULL);
  // No default either: no deadline at all.
  AdmissionController no_default{AdmissionConfig{}};
  EXPECT_EQ(no_default.admit("c", 0, now, 0).deadline_ns, 0u);
}

// -------------------------------------------------------------- supervisor

/// Pumps until every ticket in `expected` has a response or `budget_ms`
/// elapses. Returns the responses collected so far.
void pump_until_done(ShardSupervisor& supervisor, std::size_t expected,
                     const std::map<std::uint64_t, std::string>& responses,
                     int budget_ms = 60000) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (responses.size() < expected &&
         std::chrono::steady_clock::now() < give_up)
    supervisor.pump(50);
}

TEST(ShardSupervisorTest, ServesAndDrainsWithoutFaults) {
  const auto advisor = tiny_advisor();
  SupervisorConfig config;
  config.shards = 2;
  config.serve.workers = 1;
  ShardSupervisor supervisor(*advisor, config);
  std::map<std::uint64_t, std::string> responses;
  supervisor.set_on_response([&](std::uint64_t ticket, std::string payload) {
    responses[ticket] = std::move(payload);
  });
  supervisor.start();
  EXPECT_EQ(supervisor.live_shards(), 2u);

  std::map<std::uint64_t, std::string> code_of;
  std::int64_t id = 0;
  for (const std::string& code : snippets()) {
    std::uint64_t ticket = 0;
    const AdmissionDecision decision =
        supervisor.submit(request_payload(++id, code), "t", 0, &ticket);
    ASSERT_EQ(decision.verdict, Admit::kAccept);
    code_of[ticket] = code;
  }
  pump_until_done(supervisor, code_of.size(), responses);
  ASSERT_EQ(responses.size(), code_of.size());
  for (const auto& [ticket, payload] : responses)
    expect_verdict_matches(payload, advisor->advise(code_of.at(ticket)));

  supervisor.drain();
  EXPECT_EQ(supervisor.live_shards(), 0u);
  EXPECT_EQ(supervisor.inflight(), 0u);
  const Json stats = supervisor.stats_json();
  EXPECT_EQ(stats.at("schema").as_string(), "clpp.shard_stats.v1");
  EXPECT_EQ(stats.at("deaths").as_int(), 0);
  EXPECT_EQ(stats.at("admission").at("accepted").as_int(),
            static_cast<std::int64_t>(code_of.size()));
}

TEST(ShardSupervisorTest, CrashedShardLosesNoAcceptedRequest) {
  // The headline robustness contract: arm the shard.batch seam so every
  // first-generation worker dies abruptly on its SECOND burst — after the
  // supervisor accepted (and is accountable for) the requests it was
  // carrying. All three shards crash, their pending work replays on
  // whatever is alive (or parks in the backlog until a restart), and every
  // accepted request still ends in a verdict bitwise-identical to a direct
  // advise() call.
  const auto advisor = tiny_advisor();
  resil::set_fault_plan(resil::FaultPlan::parse("shard.batch:2"));
  SupervisorConfig config;
  config.shards = 3;
  config.serve.workers = 1;
  config.serve.max_batch = 4;  // several bursts per shard → burst 2 exists
  config.flight_dir = ::testing::TempDir();
  config.restart.base_delay_ms = 5.0;
  config.restart.max_delay_ms = 50.0;
  ShardSupervisor supervisor(*advisor, config);
  std::map<std::uint64_t, std::string> responses;
  supervisor.set_on_response([&](std::uint64_t ticket, std::string payload) {
    responses[ticket] = std::move(payload);
  });
  supervisor.start();
  // The children inherited the plan at fork; the parent never hits the
  // seam, but drop its copy so nothing else in-process can trip it.
  resil::clear_fault_plan();

  std::map<std::uint64_t, std::string> code_of;
  std::int64_t id = 0;
  for (int round = 0; round < 6; ++round) {
    for (const std::string& code : snippets()) {
      std::uint64_t ticket = 0;
      const AdmissionDecision decision =
          supervisor.submit(request_payload(++id, code), "t", 0, &ticket);
      ASSERT_EQ(decision.verdict, Admit::kAccept);
      code_of[ticket] = code;
    }
  }
  pump_until_done(supervisor, code_of.size(), responses);
  ASSERT_EQ(responses.size(), code_of.size()) << "lost accepted requests";
  for (const auto& [ticket, payload] : responses)
    expect_verdict_matches(payload, advisor->advise(code_of.at(ticket)));

  const Json stats = supervisor.stats_json();
  // Every gen-1 worker inherited the plan, so all three died...
  EXPECT_EQ(stats.at("deaths").as_int(), 3);
  // ...dumped flight forensics on the way down...
  EXPECT_EQ(stats.at("flight_dumps").as_int(), 3);
  // ...had their orphaned requests replayed...
  EXPECT_GT(stats.at("redispatched").as_int(), 0);
  // ...and came back (restarted generations cleared the inherited plan).
  std::int64_t restarts = 0;
  for (const Json& row : stats.at("per_shard").items()) {
    restarts += row.at("restarts").as_int();
    EXPECT_EQ(row.at("faults").as_int(), 1);
    EXPECT_FALSE(row.at("retired").as_bool());
  }
  EXPECT_EQ(restarts, 3);
  EXPECT_EQ(stats.at("unavailable").as_int(), 0);
  supervisor.drain();
}

TEST(ShardSupervisorTest, SigkilledShardRequestsAreReplayed) {
  const auto advisor = tiny_advisor();
  SupervisorConfig config;
  config.shards = 2;
  config.serve.workers = 1;
  config.serve.max_batch = 4;
  config.restart.base_delay_ms = 5.0;
  ShardSupervisor supervisor(*advisor, config);
  std::map<std::uint64_t, std::string> responses;
  supervisor.set_on_response([&](std::uint64_t ticket, std::string payload) {
    responses[ticket] = std::move(payload);
  });
  supervisor.start();

  std::map<std::uint64_t, std::string> code_of;
  std::int64_t id = 0;
  for (int round = 0; round < 4; ++round) {
    for (const std::string& code : snippets()) {
      std::uint64_t ticket = 0;
      supervisor.submit(request_payload(++id, code), "t", 0, &ticket);
      code_of[ticket] = code;
    }
  }
  // Kill shard 0 while its dispatches are (at most partially) answered —
  // the supervisor must notice via EOF/waitpid and replay on shard 1.
  const pid_t victim = supervisor.shard_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  pump_until_done(supervisor, code_of.size(), responses);
  ASSERT_EQ(responses.size(), code_of.size()) << "lost accepted requests";
  for (const auto& [ticket, payload] : responses)
    expect_verdict_matches(payload, advisor->advise(code_of.at(ticket)));
  const Json stats = supervisor.stats_json();
  EXPECT_GE(stats.at("deaths").as_int(), 1);
  supervisor.drain();
}

TEST(ShardSupervisorTest, RetiresShardAfterRestartBudgetExhausts) {
  // One shard, a plan that kills EVERY generation's first burst… except
  // restarts clear the inherited plan, so to exhaust the budget we instead
  // SIGKILL the worker repeatedly and cap max_attempts low.
  const auto advisor = tiny_advisor();
  SupervisorConfig config;
  config.shards = 1;
  config.serve.workers = 1;
  config.restart.max_attempts = 2;  // one restart, then retire
  config.restart.base_delay_ms = 1.0;
  config.restart.max_delay_ms = 5.0;
  ShardSupervisor supervisor(*advisor, config);
  std::map<std::uint64_t, std::string> responses;
  supervisor.set_on_response([&](std::uint64_t ticket, std::string payload) {
    responses[ticket] = std::move(payload);
  });
  supervisor.start();

  for (int generation = 0; generation < 2; ++generation) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    pid_t pid = -1;
    while ((pid = supervisor.shard_pid(0)) <= 0 &&
           std::chrono::steady_clock::now() < give_up)
      supervisor.pump(20);
    if (pid <= 0) break;  // already retired
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    supervisor.pump(50);
  }
  // Let any last scheduled restart play out, then check the terminal state.
  const auto settle =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < settle &&
         supervisor.next_restart_ms() >= 0)
    supervisor.pump(20);
  supervisor.pump(20);
  const Json stats = supervisor.stats_json();
  EXPECT_TRUE(stats.at("per_shard").at(0).at("retired").as_bool())
      << stats.dump();
  // With every shard retired, new submissions still get *answers* (the
  // unavailable error), never silence.
  std::uint64_t ticket = 0;
  const AdmissionDecision decision =
      supervisor.submit(request_payload(99, snippets()[0]), "t", 0, &ticket);
  EXPECT_EQ(decision.verdict, Admit::kAccept);
  ASSERT_TRUE(responses.count(ticket));
  EXPECT_EQ(Json::parse(responses.at(ticket)).get_string("error", ""),
            "unavailable");
  supervisor.drain();
}

// ---------------------------------------------------------------- listener

/// Turns the listener's event loop until a frame is readable on `fd`, then
/// reads it. The test thread plays both client and server, so the client
/// never blocks without first giving the listener a turn.
Frame await_frame(SocketListener& listener, int fd, int max_turns = 2000) {
  for (int turn = 0; turn < max_turns; ++turn) {
    listener.poll_once(10);
    struct pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0) {
      Frame reply;
      std::string error;
      EXPECT_EQ(read_frame_fd(fd, &reply, &error), ReadStatus::kFrame)
          << error;
      return reply;
    }
  }
  ADD_FAILURE() << "no frame arrived";
  return {};
}

Frame roundtrip(SocketListener& listener, int fd, const std::string& payload,
                std::uint32_t deadline_ms = 0) {
  Frame frame;
  frame.payload = payload;
  frame.deadline_ms = deadline_ms;
  EXPECT_TRUE(write_frame_fd(fd, frame));
  return await_frame(listener, fd);
}

struct ListenerHarness {
  explicit ListenerHarness(const ParallelAdvisor& advisor,
                           SupervisorConfig config = make_config())
      : supervisor(advisor, config) {
    listener =
        std::make_unique<SocketListener>(supervisor, ListenerConfig{});
    // Order matters: the listen fd must be registered for child-side close
    // before the first fork.
    listener->start();
    supervisor.start();
  }
  ~ListenerHarness() { supervisor.drain(); }

  static SupervisorConfig make_config() {
    SupervisorConfig config;
    config.shards = 2;
    config.serve.workers = 1;
    return config;
  }

  ShardSupervisor supervisor;
  std::unique_ptr<SocketListener> listener;
};

TEST(SocketListenerTest, ServesKeepAliveFramedRequests) {
  const auto advisor = tiny_advisor();
  ListenerHarness harness(*advisor);
  const int fd = connect_loopback(harness.listener->port());
  ASSERT_GE(fd, 0);
  // Two requests on one connection: keep-alive works and ids round-trip.
  for (int i = 1; i <= 2; ++i) {
    const std::string code = snippets()[i];
    const Frame reply =
        roundtrip(*harness.listener, fd, request_payload(i, code));
    const Json body = Json::parse(reply.payload);
    EXPECT_EQ(body.get_int("id", -1), i);
    expect_verdict_matches(reply.payload, advisor->advise(code));
  }
  ::close(fd);
}

TEST(SocketListenerTest, StatsVerbReportsShardsAndListener) {
  const auto advisor = tiny_advisor();
  ListenerHarness harness(*advisor);
  const int fd = connect_loopback(harness.listener->port());
  ASSERT_GE(fd, 0);
  const Frame reply =
      roundtrip(*harness.listener, fd, R"({"id":5,"cmd":"stats"})");
  const Json body = Json::parse(reply.payload);
  EXPECT_EQ(body.get_int("id", -1), 5);
  const Json& stats = body.at("stats");
  EXPECT_EQ(stats.at("schema").as_string(), "clpp.shard_stats.v1");
  EXPECT_EQ(stats.at("live").as_int(), 2);
  EXPECT_EQ(stats.at("per_shard").size(), 2u);
  EXPECT_GE(stats.at("listener").at("active_conns").as_int(), 1);
  ::close(fd);
}

TEST(SocketListenerTest, MalformedPayloadGetsErrorAndConnectionSurvives) {
  const auto advisor = tiny_advisor();
  ListenerHarness harness(*advisor);
  const int fd = connect_loopback(harness.listener->port());
  ASSERT_GE(fd, 0);
  // Intact framing, hostile payload: one error response, connection lives.
  const Frame error_reply =
      roundtrip(*harness.listener, fd, "this is not json");
  EXPECT_NE(Json::parse(error_reply.payload).get_string("error", "").find(
                "bad_request"),
            std::string::npos);
  // The SAME connection still serves a valid request afterwards.
  const Frame ok =
      roundtrip(*harness.listener, fd, request_payload(2, snippets()[0]));
  expect_verdict_matches(ok.payload, advisor->advise(snippets()[0]));
  ::close(fd);
}

TEST(SocketListenerTest, GarbageLengthPrefixClosesOnlyThatConnection) {
  const auto advisor = tiny_advisor();
  ListenerHarness harness(*advisor);
  const int bad_fd = connect_loopback(harness.listener->port());
  ASSERT_GE(bad_fd, 0);
  // 8 bytes of 0xff: a length prefix beyond the cap. The stream cannot
  // resync, so the listener answers once and closes only this connection.
  const char garbage[8] = {'\xff', '\xff', '\xff', '\xff',
                           '\xff', '\xff', '\xff', '\xff'};
  ASSERT_EQ(::write(bad_fd, garbage, sizeof garbage), 8);
  const Frame error_reply = await_frame(*harness.listener, bad_fd);
  EXPECT_NE(Json::parse(error_reply.payload)
                .get_string("error", "")
                .find("bad_frame"),
            std::string::npos);
  // The next read sees EOF: the server hung up on us (and only us).
  for (int turn = 0; turn < 100; ++turn) {
    harness.listener->poll_once(10);
    struct pollfd pfd{bad_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0) break;
  }
  Frame out;
  std::string error;
  EXPECT_EQ(read_frame_fd(bad_fd, &out, &error), ReadStatus::kEof);
  ::close(bad_fd);

  const int good_fd = connect_loopback(harness.listener->port());
  ASSERT_GE(good_fd, 0);
  const Frame ok = roundtrip(*harness.listener, good_fd,
                             request_payload(1, snippets()[1]));
  expect_verdict_matches(ok.payload, advisor->advise(snippets()[1]));
  ::close(good_fd);
}

TEST(SocketListenerTest, PipelinedFramesFromDeadPeerDontCorruptTheLoop) {
  // Regression: read_ready used to hold a Connection reference across
  // handle_frame. A peer that pipelines several malformed-payload frames
  // and hangs up makes the reply writes fail mid-drain (EPIPE), which
  // closes and erases the Connection while frames are still queued in its
  // decoder — the old code then called next() on the dangling reference.
  const auto advisor = tiny_advisor();
  ListenerHarness harness(*advisor);
  const int fd = connect_loopback(harness.listener->port());
  ASSERT_GE(fd, 0);
  Frame frame;
  frame.payload = "not json";
  std::string wire;
  for (int i = 0; i < 6; ++i) wire += encode_frame(frame);
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  ::close(fd);
  for (int turn = 0; turn < 50; ++turn) harness.listener->poll_once(10);
  // The event loop survived and a fresh connection still serves.
  const int good_fd = connect_loopback(harness.listener->port());
  ASSERT_GE(good_fd, 0);
  const Frame ok = roundtrip(*harness.listener, good_fd,
                             request_payload(1, snippets()[0]));
  expect_verdict_matches(ok.payload, advisor->advise(snippets()[0]));
  ::close(good_fd);
}

TEST(SocketListenerTest, SynchronousCompletionStillAnswersTheClient) {
  // Regression: the ticket->connection mapping used to be registered after
  // submit() returned, but with every shard retired submit completes
  // synchronously — the "unavailable" reply was then dropped as an orphan
  // and the client hung forever, violating the "every accepted request
  // gets an answer" contract.
  const auto advisor = tiny_advisor();
  SupervisorConfig config = ListenerHarness::make_config();
  config.shards = 1;
  config.restart.max_attempts = 1;  // first death retires the only shard
  ListenerHarness harness(*advisor, config);
  const pid_t victim = harness.supervisor.shard_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.supervisor.live_shards() > 0 &&
         std::chrono::steady_clock::now() < give_up)
    harness.listener->poll_once(10);
  ASSERT_EQ(harness.supervisor.live_shards(), 0u);

  const int fd = connect_loopback(harness.listener->port());
  ASSERT_GE(fd, 0);
  const Frame reply =
      roundtrip(*harness.listener, fd, request_payload(7, snippets()[0]));
  const Json body = Json::parse(reply.payload);
  EXPECT_EQ(body.get_string("error", ""), "unavailable");
  EXPECT_EQ(body.get_int("id", -1), 7);
  ::close(fd);
}

TEST(SocketListenerTest, CachedSnippetsAnswerQuotaExhaustedClients) {
  // The front-end result cache sits BEFORE admission (DESIGN.md §13): a
  // client that has burned its whole token budget still gets answers for
  // snippets the cache already holds — hits cost no inference, so they
  // consume no quota — while fresh snippets from the same client shed.
  const auto advisor = tiny_advisor();
  SupervisorConfig config = ListenerHarness::make_config();
  config.admission.quota_rps = 0.001;  // effectively no refill in-test
  config.admission.quota_burst = 2.0;
  config.cache.max_entries = 64;
  ListenerHarness harness(*advisor, config);
  const int fd = connect_loopback(harness.listener->port());
  ASSERT_GE(fd, 0);
  auto with_client = [](std::int64_t id, const std::string& code) {
    Json request = Json::object();
    request["id"] = id;
    request["code"] = code;
    request["client"] = "greedy";
    return request.dump();
  };
  // Both tokens go on two distinct snippets; their responses populate the
  // cache on the way back to the client.
  for (int i = 0; i < 2; ++i) {
    const Frame reply = roundtrip(*harness.listener, fd,
                                  with_client(i + 1, snippets()[i]));
    const Json body = Json::parse(reply.payload);
    EXPECT_FALSE(body.contains("error")) << reply.payload;
    EXPECT_FALSE(body.get_bool("cached", false)) << reply.payload;
  }
  // Quota exhausted: repeats of the cached snippets are still answered —
  // flagged cached, with the requester's own id and the identical verdict.
  for (int i = 0; i < 2; ++i) {
    const Frame reply = roundtrip(*harness.listener, fd,
                                  with_client(10 + i, snippets()[i]));
    const Json body = Json::parse(reply.payload);
    EXPECT_EQ(body.get_int("id", -1), 10 + i);
    EXPECT_TRUE(body.get_bool("cached", false)) << reply.payload;
    expect_verdict_matches(reply.payload, advisor->advise(snippets()[i]));
  }
  // A fresh snippet from the same client still sheds on quota.
  const Frame shed =
      roundtrip(*harness.listener, fd, with_client(20, snippets()[3]));
  const Json body = Json::parse(shed.payload);
  EXPECT_EQ(body.get_string("error", ""), "overloaded");
  EXPECT_EQ(body.get_string("reason", ""), "quota");
  ::close(fd);
}

TEST(SocketListenerTest, QuotaShedsWithRetryAfterHint) {
  const auto advisor = tiny_advisor();
  SupervisorConfig config = ListenerHarness::make_config();
  config.admission.quota_rps = 0.001;  // effectively no refill in-test
  config.admission.quota_burst = 2.0;
  ListenerHarness harness(*advisor, config);
  const int fd = connect_loopback(harness.listener->port());
  ASSERT_GE(fd, 0);
  // The payload's "client" field keys the bucket: two accepted, third shed.
  auto with_client = [](std::int64_t id, const std::string& code) {
    Json request = Json::object();
    request["id"] = id;
    request["code"] = code;
    request["client"] = "greedy";
    return request.dump();
  };
  for (int i = 1; i <= 2; ++i) {
    const Frame reply = roundtrip(*harness.listener, fd,
                                  with_client(i, snippets()[i]));
    EXPECT_FALSE(Json::parse(reply.payload).contains("error"))
        << reply.payload;
  }
  const Frame shed =
      roundtrip(*harness.listener, fd, with_client(3, snippets()[3]));
  const Json body = Json::parse(shed.payload);
  EXPECT_EQ(body.get_string("error", ""), "overloaded");
  EXPECT_EQ(body.get_string("reason", ""), "quota");
  EXPECT_GT(body.get_int("retry_after_ms", 0), 0);
  ::close(fd);
}

// ------------------------------------------------------------ shared client

TEST(ShardClientTest, ClosedLoopCountsOkCachedAndMismatches) {
  const auto advisor = tiny_advisor();
  SupervisorConfig config = ListenerHarness::make_config();
  config.cache.max_entries = 64;
  ListenerHarness harness(*advisor, config);
  const std::uint16_t port = harness.listener->port();
  // The client blocks on its sockets, so the event loop gets a thread of
  // its own. The shards are already forked and none dies here, so no fork
  // happens while threads run.
  std::thread loop([&] { harness.listener->run(); });

  // Request 0 is the only one for snippets()[7], whose seeded verdict is
  // wrong: exactly one mismatch. The other 23 repeat four snippets, so
  // with at most four in flight some find the front cache filled.
  std::map<std::string, std::string> verdict_of;
  verdict_of[snippets()[7]] = R"({"p_directive":2})";
  const ClosedLoopResult run = run_closed_loop(
      {.port = port,
       .requests = 24,
       .concurrency = 4,
       .code_of =
           [](std::size_t r) { return snippets()[r == 0 ? 7 : r % 4]; }},
      verdict_of);
  const Json stats = fetch_stats(port);
  harness.listener->stop();
  loop.join();

  EXPECT_EQ(run.ok, 24u);
  EXPECT_EQ(run.lost, 0u);
  EXPECT_EQ(run.shed + run.errors, 0u);
  EXPECT_GT(run.cached, 0u);
  EXPECT_EQ(run.mismatches, 1u);
  ASSERT_EQ(run.latencies_us.size(), 24u);
  EXPECT_TRUE(std::is_sorted(run.latencies_us.begin(), run.latencies_us.end()));
  ASSERT_EQ(verdict_of.size(), 5u);
  EXPECT_EQ(stats.at("schema").as_string(), "clpp.shard_stats.v1");
}

TEST(ShardClientTest, ClosedPortLosesEveryRequestWithoutHanging) {
  // Bound but never listening: the port stays reserved and refuses every
  // connect.
  const int reserved = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(reserved, 0);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(reserved, reinterpret_cast<struct sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::getsockname(reserved, reinterpret_cast<struct sockaddr*>(&addr),
                          &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::map<std::string, std::string> verdict_of;
  const ClosedLoopResult run = run_closed_loop(
      {.port = port,
       .requests = 6,
       .concurrency = 2,
       .code_of = [](std::size_t r) { return snippets()[r % 4]; }},
      verdict_of);
  EXPECT_TRUE(fetch_stats(port).is_null());
  ::close(reserved);

  EXPECT_EQ(run.lost, 6u);
  EXPECT_EQ(run.ok, 0u);
  EXPECT_TRUE(run.latencies_us.empty());
  EXPECT_TRUE(verdict_of.empty());
}

}  // namespace
}  // namespace clpp::shard
