// perfbench_probe: the benchmark's in-process helper (perfbench/run.py).
//
//   perfbench_probe corpus    --seed S --size N [--buggy R] [--simd]
//       codegen records as JSON lines, each with its snippet digest
//   perfbench_probe reference --model M --in PLAN --out REFS
//       shard::response_json of ParallelAdvisor::advise (default options)
//       for every distinct snippet text of PLAN, one JSON line each
//   perfbench_probe lintref   --out REFS FILE...
//       what clpp-lint --json prints per file, computed in-process with the
//       library's default linter
//   perfbench_probe auditref  --size N --seed S --buggy R
//       what clpp-lint --audit --json prints for that corpus, in-process
//   perfbench_probe loadgen   --port P --plan PLAN --mode scan|ide
//                             --conns C --seconds T --out RESULTS [--spans F]
//       drives a clpp-serve --listen front end over the socket protocol
//   perfbench_probe layers    --model M --plan PLAN --cache-cap C
//                             --conns C [--files LIST] [--spans F]
//       replays PLAN through each layer's public functions and prints the
//       per-layer metrics as one JSON object
//
// PLAN is JSON lines {"code": text, "group": g, "due_us": t}: `group` is the
// file a scan request belongs to, `due_us` an ide request's scheduled send
// offset. Spans (name, start, end, parent, request) are kept in memory and
// written as JSON lines at exit when --spans is given.
#include <poll.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/cache.h"
#include "cache/digest.h"
#include "codegen/generator.h"
#include "core/advisor.h"
#include "core/pragformer.h"
#include "frontend/parser.h"
#include "analysis/depend.h"
#include "analysis/sideeffects.h"
#include "insight/insight.h"
#include "lint/audit.h"
#include "lint/linter.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/checkpoint.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/transformer.h"
#include "s2s/compar.h"
#include "s2s/compiler.h"
#include "serve/server.h"
#include "shard/frame.h"
#include "shard/worker.h"
#include "support/json.h"
#include "support/rng.h"
#include "tensor/io.h"
#include "tensor/ops.h"
#include "tokenize/representation.h"
#include "tokenize/vocabulary.h"

namespace {

using namespace clpp;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- arguments

struct Args {
  std::map<std::string, std::string> named;
  std::vector<std::string> positional;

  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = named.find(key);
    if (it == named.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : std::stod(it->second);
  }
  bool flag(const std::string& key) const { return named.count(key) > 0; }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
        args.named[key] = argv[++i];
      else
        args.named[key] = "1";
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Json> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<Json> out;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(Json::parse(line));
  return out;
}

struct PlanEntry {
  std::string code;
  std::int64_t group = 0;
  std::int64_t due_us = 0;
};

std::vector<PlanEntry> read_plan(const std::string& path) {
  std::vector<PlanEntry> plan;
  for (const Json& row : read_jsonl(path)) {
    PlanEntry entry;
    entry.code = row.at("code").as_string();
    entry.group = row.get_int("group", 0);
    entry.due_us = row.get_int("due_us", 0);
    plan.push_back(std::move(entry));
  }
  if (plan.empty()) throw std::runtime_error("empty plan " + path);
  return plan;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -------------------------------------------------------------------- spans

/// One timed interval. `parent` indexes the enclosing span (-1 = root);
/// `request` ties the spans of one request together.
struct Span {
  const char* name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// In-memory span store of this process; single-threaded by construction
/// (every traced path in the probe runs on the main thread).
class Spans {
 public:
  std::int64_t open(const char* name, std::int64_t request) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.start = now_ns();
    spans_.push_back(span);
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }
  /// A span recorded after the fact (the load generator's round trips,
  /// whose start and end happen on different event-loop turns).
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::int64_t parent, std::int64_t request) {
    spans_.push_back(Span{name, start, end, parent, request});
  }
  const std::vector<Span>& all() const { return spans_; }

  /// Summed duration per span name, in ns.
  std::map<std::string, double> totals() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += double(s.end - s.start);
    return out;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%llu,\"end\":%llu,\"parent\":%lld,"
                   "\"request\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end),
                   static_cast<long long>(s.parent), static_cast<long long>(s.request));
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

Spans g_spans;

class Scoped {
 public:
  Scoped(const char* name, std::int64_t request = -1)
      : index_(g_spans.open(name, request)) {}
  ~Scoped() { g_spans.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::int64_t index_;
};

/// Nearest-rank median, the rule perfbench/stats.py uses. Tails are left
/// to stats.py: the probe writes the raw samples of every tail it reports.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() + 1) / 2 - 1];
}

Json samples_json(const std::vector<double>& v) {
  Json out = Json::array();
  for (double x : v) out.push_back(Json{x});
  return out;
}

// ------------------------------------------------------------------- corpus

int cmd_corpus(const Args& args) {
  codegen::GeneratorConfig config;
  config.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  config.size = static_cast<std::size_t>(args.num("size", 100));
  config.label_noise = 0.0;
  config.buggy_directive_rate = args.num("buggy", 0.0);
  config.simd_families = args.flag("simd");
  const corpus::Corpus corpus = codegen::generate_corpus(config);
  for (const corpus::Record& record : corpus.records()) {
    Json row = record.to_json();
    row["digest"] = hex64(cache::snippet_digest(record.code));
    std::printf("%s\n", row.dump().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- reference

Json reference_verdict(const core::ParallelAdvisor& advisor, const std::string& code) {
  serve::ServedAdvice served;
  served.advice = advisor.advise(code);
  return shard::response_json(0, served);
}

int cmd_reference(const Args& args) {
  const core::ParallelAdvisor advisor = core::ParallelAdvisor::load(args.need("model"));
  std::FILE* out = std::fopen(args.need("out").c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + args.need("out"));
  for (const Json& row : read_jsonl(args.need("in"))) {
    Json line = Json::object();
    line["code"] = row.at("code").as_string();
    line["response"] = reference_verdict(advisor, row.at("code").as_string());
    std::fprintf(out, "%s\n", line.dump().c_str());
  }
  std::fclose(out);
  return 0;
}

/// What clpp-lint --json prints for each file, computed in-process with
/// the library's default linter.
int cmd_lintref(const Args& args) {
  const lint::Linter linter;
  std::FILE* out = std::fopen(args.need("out").c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + args.need("out"));
  for (const std::string& path : args.positional)
    std::fprintf(out, "%s\n", linter.lint_source(read_file(path), path).to_json().dump().c_str());
  std::fclose(out);
  return 0;
}

/// What `clpp-lint --audit --json --size N --seed S --buggy R` prints,
/// computed in-process: lint::audit_labels over the same generated corpus.
int cmd_auditref(const Args& args) {
  codegen::GeneratorConfig config;
  config.size = static_cast<std::size_t>(args.num("size", 400));
  config.seed = static_cast<std::uint64_t>(args.num("seed", 2023));
  config.label_noise = 0.0;
  config.buggy_directive_rate = args.num("buggy", 0.15);
  config.simd_families = true;
  std::printf("%s\n", lint::audit_labels(codegen::generate_corpus(config)).to_json().dump().c_str());
  return 0;
}

// ------------------------------------------------------------------ loadgen

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One request the load generator sent (or was due to send). Times are ns
/// since the run started.
struct Sent {
  std::size_t plan_index = 0;
  std::size_t conn = 0;
  std::int64_t file = -1;  // scan: which file instance carried it
  std::uint64_t due = 0;   // scan: the send time
  std::uint64_t send = 0;
  std::uint64_t sent = 0;  // the frame fully written
  std::uint64_t recv = 0;  // 0 = unanswered
  std::uint64_t decoded = 0;
  std::string status = "lost";
  std::string payload;
};

struct Conn {
  int fd = -1;
  bool alive = true;
  shard::FrameDecoder decoder;
  std::size_t outstanding = 0;
  std::uint64_t idle_since = 0;  // scan: when its previous file completed
};

/// Closed loop (scan: each connection pipelines one file, waits for all of
/// it, then takes the next file) or open loop (ide: requests leave at their
/// scheduled offsets, round-robin over the connections). Single-threaded:
/// one poll loop owns every socket, so the generator adds one thread. A
/// connection the server drops loses what it had outstanding and takes no
/// more requests; an ide request due on it is lost unsent.
int cmd_loadgen(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.num("port", 0));
  const std::vector<PlanEntry> plan = read_plan(args.need("plan"));
  const bool open_loop = args.need("mode") == "ide";
  const auto conns_n = static_cast<std::size_t>(args.num("conns", 4));
  const auto run_ns = static_cast<std::uint64_t>(args.num("seconds", 10) * 1e9);
  // How long answers may still arrive after the last send: a closed-loop
  // scan can have four whole files in flight on a slow server.
  constexpr std::uint64_t grace_ns = 60'000'000'000ull;

  std::vector<Conn> conns(conns_n);
  for (Conn& c : conns) {
    c.fd = connect_loopback(port);
    if (c.fd < 0) throw std::runtime_error("cannot connect to port " + std::to_string(port));
  }

  // Scan files: consecutive plan entries sharing a group.
  std::vector<std::pair<std::size_t, std::size_t>> files;  // [begin, end)
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i == 0 || plan[i].group != plan[i - 1].group) files.emplace_back(i, i);
    files.back().second = i + 1;
  }

  std::vector<Sent> sent;
  sent.reserve(open_loop ? plan.size() : 1 << 16);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> file_times;  // scan
  std::vector<double> late_ms;
  std::size_t settled = 0;  // answered, or lost with a dropped connection
  const std::uint64_t t0 = now_ns();
  auto since = [&] { return now_ns() - t0; };

  auto send_one = [&](std::size_t plan_index, std::size_t c, std::uint64_t due,
                      std::int64_t file) {
    Sent s;
    s.plan_index = plan_index;
    s.conn = c;
    s.file = file;
    s.due = due;
    s.send = since();
    if (!conns[c].alive) {
      ++settled;
      sent.push_back(std::move(s));
      return;
    }
    Json request = Json::object();
    request["id"] = static_cast<std::int64_t>(sent.size() + 1);
    request["code"] = plan[plan_index].code;
    request["client"] = "perfbench-" + std::to_string(c);
    shard::Frame frame;
    frame.payload = request.dump();
    if (shard::write_frame_fd(conns[c].fd, frame)) {
      conns[c].outstanding += 1;
    } else {
      ++settled;  // the write half is gone: lost unsent
    }
    s.sent = since();
    sent.push_back(std::move(s));
  };

  std::size_t next_file = 0;
  auto start_file = [&](std::size_t c) {
    const auto [begin, end] = files[next_file % files.size()];
    ++next_file;
    const std::uint64_t at = since();
    if (conns[c].idle_since != 0) late_ms.push_back(double(at - conns[c].idle_since) / 1e6);
    const auto file = static_cast<std::int64_t>(file_times.size());
    file_times.emplace_back(at, at);
    for (std::size_t i = begin; i < end; ++i) send_one(i, c, since(), file);
  };

  std::size_t next_due = 0;  // ide: next plan entry to send
  if (!open_loop)
    for (std::size_t c = 0; c < conns_n; ++c) start_file(c);

  std::vector<pollfd> pfds(conns_n);
  for (;;) {
    const std::uint64_t now = since();
    if (open_loop) {
      while (next_due < plan.size() &&
             static_cast<std::uint64_t>(plan[next_due].due_us) * 1000 <= now) {
        const std::uint64_t due = static_cast<std::uint64_t>(plan[next_due].due_us) * 1000;
        send_one(next_due, next_due % conns_n, due, -1);
        late_ms.push_back(double(sent.back().send - due) / 1e6);
        ++next_due;
      }
    }
    const bool any_alive = std::any_of(conns.begin(), conns.end(),
                                       [](const Conn& c) { return c.alive; });
    const bool sending_done =
        open_loop ? next_due >= plan.size() : (now >= run_ns || !any_alive);
    if (sending_done && settled == sent.size()) break;
    if (sending_done && now >= run_ns + grace_ns) break;

    int timeout_ms = 50;
    if (open_loop && next_due < plan.size()) {
      const std::uint64_t due = static_cast<std::uint64_t>(plan[next_due].due_us) * 1000;
      const std::uint64_t wait = due > now ? due - now : 0;
      timeout_ms = static_cast<int>(std::min<std::uint64_t>(wait / 1000000, 50));
    }
    for (std::size_t c = 0; c < conns_n; ++c)
      pfds[c] = pollfd{conns[c].alive ? conns[c].fd : -1, POLLIN, 0};
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < conns_n; ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      const ssize_t n = ::recv(conns[c].fd, buf, sizeof buf, 0);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0) {
        conns[c].alive = false;
        settled += conns[c].outstanding;
        conns[c].outstanding = 0;
        continue;
      }
      const std::uint64_t recv_at = since();
      conns[c].decoder.feed(buf, static_cast<std::size_t>(n));
      shard::Frame frame;
      std::string error;
      for (;;) {
        const auto result = conns[c].decoder.next(&frame, &error);
        if (result == shard::FrameDecoder::Result::kNeedMore) break;
        if (result == shard::FrameDecoder::Result::kBadFrame)
          throw std::runtime_error("bad frame from server: " + error);
        const Json body = Json::parse(frame.payload);
        const std::int64_t id = body.get_int("id", 0);
        if (id < 1 || static_cast<std::size_t>(id) > sent.size())
          throw std::runtime_error("response with unknown id: " + frame.payload);
        Sent& s = sent[static_cast<std::size_t>(id - 1)];
        if (s.recv != 0) throw std::runtime_error("duplicate response for id " + std::to_string(id));
        s.recv = recv_at;
        s.decoded = since();
        const std::string err = body.get_string("error", "");
        s.status = err.empty() ? "ok" : (err == "overloaded" ? "overloaded" : "error");
        s.payload = frame.payload;
        ++settled;
        Conn& conn = conns[s.conn];
        conn.outstanding -= 1;
        if (!open_loop && conn.outstanding == 0) {
          file_times[static_cast<std::size_t>(s.file)].second = recv_at;
          conn.idle_since = recv_at;
          if (since() < run_ns) start_file(s.conn);
        }
      }
    }
  }
  const std::uint64_t wall = since();
  for (Conn& c : conns) ::close(c.fd);

  if (args.flag("spans")) {
    // Scan files parent their requests' round trips; each round trip
    // parents the frame write and the answer's decode.
    for (const auto& [begin, end] : file_times) g_spans.add("loadgen.file", t0 + begin, t0 + end, -1, -1);
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const Sent& s = sent[i];
      if (s.recv == 0) continue;
      const auto req = static_cast<std::int64_t>(i);
      const auto rtt = static_cast<std::int64_t>(g_spans.all().size());
      g_spans.add("loadgen.rtt", t0 + s.due, t0 + s.recv, s.file, req);
      g_spans.add("loadgen.encode", t0 + s.send, t0 + s.sent, rtt, req);
      g_spans.add("loadgen.decode", t0 + s.recv, t0 + s.decoded, rtt, req);
    }
  }

  std::FILE* out = std::fopen(args.need("out").c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write results");
  for (const Sent& s : sent) {
    Json row = Json::object();
    row["i"] = s.plan_index;
    row["conn"] = s.conn;
    row["due_ns"] = static_cast<double>(s.due);
    row["send_ns"] = static_cast<double>(s.send);
    row["recv_ns"] = static_cast<double>(s.recv);
    row["status"] = s.status;
    row["payload"] = s.payload;
    std::fprintf(out, "%s\n", row.dump().c_str());
  }
  Json summary = Json::object();
  summary["wall_ns"] = static_cast<double>(wall);
  summary["late_ms"] = samples_json(late_ms);
  summary["files_started"] = next_file;
  Json tail = Json::object();
  tail["summary"] = summary;
  std::fprintf(out, "%s\n", tail.dump().c_str());
  std::fclose(out);
  g_spans.write(args.str("spans"));
  return 0;
}

// ------------------------------------------------------------------- layers

/// The served advisor's vocabulary, input length and directive model, read
/// back from the advisor's own serialization (the layout
/// ParallelAdvisor::serialize writes), so the replay runs at exactly the
/// shape and with the weights clpp-serve serves. Fails unless every task
/// model has the directive model's shape: the per-loop nn times stand for
/// all four forwards of an advice.
struct ServedModel {
  tokenize::Vocabulary vocab;
  std::size_t max_len = 0;
  core::PragFormerConfig config;
  std::unique_ptr<core::PragFormer> directive;
};

ServedModel read_served_model(const core::ParallelAdvisor& advisor) {
  std::istringstream in(advisor.serialize());
  const std::string magic = read_string(in);
  if (magic != "CLPPADV2" && magic != "CLPPADV1")
    throw std::runtime_error("unknown advisor layout " + magic);
  if (tokenize::representation_from(read_string(in)) != tokenize::Representation::kText)
    throw std::runtime_error("the served advisor is not a Text advisor");
  ServedModel served;
  served.max_len = read_u64(in);
  const int tasks = read_u64(in) != 0 ? 4 : 3;
  if (magic == "CLPPADV2") (void)read_string(in);  // training fingerprint
  std::vector<std::string> tokens(read_u64(in));
  for (std::string& token : tokens) token = read_string(in);
  served.vocab = tokenize::Vocabulary::from_tokens(std::move(tokens));
  std::string shape;
  for (int task = 0; task < tasks; ++task) {
    const std::string config = read_string(in);
    if (task > 0 && config != shape)
      throw std::runtime_error("task model " + std::to_string(task) +
                               " differs in shape from the directive model");
    std::map<std::string, Tensor> weights;
    for (std::uint64_t i = read_u64(in); i > 0; --i) {
      std::string name = read_string(in);
      weights.emplace(std::move(name), read_tensor(in));
    }
    if (task > 0) continue;
    shape = config;
    const Json c = Json::parse(config);
    auto size = [&](const char* key) { return static_cast<std::size_t>(c.at(key).as_int()); };
    served.config.encoder.vocab_size = size("vocab_size");
    served.config.encoder.max_seq = size("max_seq");
    served.config.encoder.dim = size("dim");
    served.config.encoder.heads = size("heads");
    served.config.encoder.layers = size("layers");
    served.config.encoder.ffn_dim = size("ffn_dim");
    served.config.encoder.dropout = static_cast<float>(c.at("dropout").as_double());
    served.config.head_hidden = size("head_hidden");
    served.config.head_dropout = static_cast<float>(c.at("head_dropout").as_double());
    Rng rng(0);
    served.directive = std::make_unique<core::PragFormer>(served.config, rng);
    if (nn::restore_parameters(weights, served.directive->parameters(), true) !=
        served.directive->parameters().size())
      throw std::runtime_error("the served directive model did not restore completely");
  }
  return served;
}

/// Per-layer timing of one model forward. nn.encoder is the served
/// directive model's own TransformerEncoder::forward and nn.block a real
/// nn::TransformerEncoderLayer::forward per layer, built from the served
/// EncoderConfig. The parts inside those single public calls (embedding,
/// layer norms, Q/K/V and output projections, attention, FFN) and the
/// classification head inside PragFormer::logits come from standalone
/// calls of the same shape on the same activations.
struct EncoderParts {
  struct Block {
    nn::TransformerEncoderLayer layer;
    nn::LayerNorm ln;
    nn::MultiHeadSelfAttention attn;
    nn::Linear q, k, v, o;
    nn::Linear ffn1, ffn2;
    nn::Gelu gelu;
  };
  Rng rng{77};
  nn::SequenceEmbedding embedding;
  std::vector<std::unique_ptr<Block>> blocks;
  nn::LayerNorm final_ln;
  nn::Linear head1, head2;
  nn::ReLU relu;

  explicit EncoderParts(const core::PragFormerConfig& config)
      : embedding("emb", config.encoder.vocab_size, config.encoder.max_seq, config.encoder.dim, rng),
        final_ln("final_ln", config.encoder.dim),
        head1("head1", config.encoder.dim, hidden(config), rng),
        head2("head2", hidden(config), 2, rng) {
    const nn::EncoderConfig& c = config.encoder;
    for (std::size_t l = 0; l < c.layers; ++l)
      blocks.push_back(std::unique_ptr<Block>(new Block{
          nn::TransformerEncoderLayer("block", c, rng), nn::LayerNorm("ln", c.dim),
          nn::MultiHeadSelfAttention("attn", c.dim, c.heads, rng),
          nn::Linear("q", c.dim, c.dim, rng), nn::Linear("k", c.dim, c.dim, rng),
          nn::Linear("v", c.dim, c.dim, rng), nn::Linear("o", c.dim, c.dim, rng),
          nn::Linear("ffn1", c.dim, c.ffn_dim, rng), nn::Linear("ffn2", c.ffn_dim, c.dim, rng),
          nn::Gelu()}));
  }

  static std::size_t hidden(const core::PragFormerConfig& config) {
    return config.head_hidden == 0 ? config.encoder.dim : config.head_hidden;
  }

  /// One traced forward over `batch`.
  void forward(const nn::TokenBatch& batch, core::PragFormer& served) {
    Tensor h;
    {
      Scoped s("nn.embedding");
      h = embedding.forward(batch);
    }
    for (auto& b : blocks) {
      Tensor next;
      {
        Scoped s("nn.block");
        next = b->layer.forward(h, batch.batch, batch.seq, batch.lengths, false);
      }
      // The block's parts, on the block's own input: two layer norms, the
      // attention (whose projections are timed apart below) and the FFN.
      Tensor a;
      {
        Scoped s("nn.layernorm");
        a = b->ln.forward(h, false);
      }
      {
        Scoped s("nn.attention");
        (void)b->attn.forward(a, batch.batch, batch.seq, batch.lengths, false);
      }
      {
        Scoped s("nn.qkv");
        (void)b->q.forward(a, false);
        (void)b->k.forward(a, false);
        (void)b->v.forward(a, false);
      }
      {
        Scoped s("nn.attn_out");
        (void)b->o.forward(a, false);
      }
      {
        Scoped s("nn.layernorm");
        (void)b->ln.forward(next, false);
      }
      {
        Scoped s("nn.ffn");
        Tensor f = b->ffn1.forward(a, false);
        f = b->gelu.forward(f, false);
        (void)b->ffn2.forward(f, false);
      }
      h = std::move(next);
    }
    {
      Scoped s("nn.layernorm");
      (void)final_ln.forward(h, false);
    }
    Tensor encoded;
    {
      Scoped s("nn.encoder");
      encoded = served.encoder().forward(batch, false);
    }
    {
      Scoped s("nn.head");
      Tensor z = head1.forward(nn::pooled_cls(encoded, batch.batch, batch.seq), false);
      z = relu.forward(z, false);
      (void)nn::positive_probabilities(head2.forward(z, false));
    }
  }
};

/// Model FLOPs of one forward of a length-`len` snippet (linear layers as
/// 2·m·n·k, the attention core as the kernel's own accounting, the head on
/// the CLS row only).
double forward_flops(const nn::EncoderConfig& c, std::size_t len) {
  const double s = double(len), d = double(c.dim), f = double(c.ffn_dim);
  const double dh = d / double(c.heads);
  const double linear = 4 * 2 * s * d * d + 2 * 2 * s * d * f;
  const double core = double(c.heads) * s * s * (4 * dh + 5);
  return double(c.layers) * (linear + core) + 2 * d * d + 2 * d * 2;
}

double gemm_gflops(std::size_t m, std::size_t k, std::size_t n, bool trans_b, Rng& rng) {
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = trans_b ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  std::vector<double> rates;
  for (int rep = 0; rep < 7; ++rep) {
    std::int64_t span = g_spans.open(trans_b ? "tensor.gemm_nt" : "tensor.gemm_nn", -1);
    const std::uint64_t begin = now_ns();
    int calls = 0;
    do {
      gemm(a, b, c, false, trans_b);
      ++calls;
    } while (now_ns() - begin < 2000000);
    const double ns = double(now_ns() - begin);
    g_spans.close(span);
    rates.push_back(2.0 * double(m) * double(k) * double(n) * calls / ns);
  }
  return median(rates);
}

/// Median ns per call of `fn` over `items`, from `reps` timed passes.
template <typename T, typename Fn>
double ns_per_item(const std::vector<T>& items, int reps, Fn fn) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t begin = now_ns();
    for (const T& item : items) fn(item);
    per.push_back(double(now_ns() - begin) / double(std::max<std::size_t>(items.size(), 1)));
  }
  return median(per);
}

int cmd_layers(const Args& args) {
  const std::string model_path = args.need("model");
  const std::vector<PlanEntry> plan = read_plan(args.need("plan"));
  const auto cache_cap = static_cast<std::size_t>(args.num("cache-cap", 256));
  const auto conns = static_cast<std::size_t>(args.num("conns", 4));
  // Replay budget: the first kMaxLoops distinct loops through the model
  // layers, at most kReplaySeconds of arrivals through the InferenceServer.
  constexpr std::size_t kMaxLoops = 240;
  constexpr double kReplaySeconds = 3.0;
  Json m = Json::object();

  // Distinct snippet texts in first-send order, grouped as they were sent.
  std::vector<std::string> loops;
  std::vector<std::vector<std::size_t>> groups;
  {
    std::unordered_map<std::string, std::size_t> seen;
    std::int64_t last_group = -1;
    for (const PlanEntry& e : plan) {
      if (seen.count(e.code) || loops.size() >= kMaxLoops) continue;
      seen.emplace(e.code, loops.size());
      if (e.group != last_group || groups.empty()) groups.emplace_back();
      last_group = e.group;
      groups.back().push_back(loops.size());
      loops.push_back(e.code);
    }
  }
  const double n_loops = double(loops.size());

  // core: load and clone (set-up components), then batched advice with the
  // per-stage split, file by file as the scan front end batches them.
  std::vector<double> load_ms, clone_ms;
  std::unique_ptr<core::ParallelAdvisor> advisor;
  for (int rep = 0; rep < 3; ++rep) {
    Scoped s("core.load");
    const std::uint64_t begin = now_ns();
    advisor = std::make_unique<core::ParallelAdvisor>(core::ParallelAdvisor::load(model_path));
    load_ms.push_back(double(now_ns() - begin) / 1e6);
  }
  for (int rep = 0; rep < 3; ++rep) {
    Scoped s("core.clone");
    const std::uint64_t begin = now_ns();
    auto replica = advisor->clone();
    clone_ms.push_back(double(now_ns() - begin) / 1e6);
  }
  m["core.load_ms"] = median(load_ms);
  m["core.clone_ms"] = median(clone_ms);

  std::vector<core::Advice> advices(loops.size());
  core::BatchTiming timing_sum;
  double advise_ns = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<std::string> codes;
    for (std::size_t i : groups[g]) codes.push_back(loops[i]);
    core::BatchTiming t;
    std::int64_t span = g_spans.open("core.advise_batch", static_cast<std::int64_t>(g));
    const std::uint64_t begin = now_ns();
    const std::vector<core::Advice> out = advisor->advise_batch(codes, core::AdviseOptions{}, &t);
    advise_ns += double(now_ns() - begin);
    g_spans.close(span);
    for (std::size_t j = 0; j < out.size(); ++j) advices[groups[g][j]] = out[j];
    timing_sum.encode_ns += t.encode_ns;
    timing_sum.directive_ns += t.directive_ns;
    timing_sum.private_ns += t.private_ns;
    timing_sum.reduction_ns += t.reduction_ns;
    timing_sum.schedule_ns += t.schedule_ns;
    timing_sum.extras_ns += t.extras_ns;
  }
  std::size_t positives = 0;
  for (const core::Advice& a : advices) positives += a.needs_directive ? 1 : 0;
  m["core.advise_us"] = advise_ns / 1e3 / n_loops;
  m["core.encode_us"] = double(timing_sum.encode_ns) / 1e3 / n_loops;
  m["core.predict_us.directive"] = double(timing_sum.directive_ns) / 1e3 / n_loops;
  m["core.predict_us.private"] = double(timing_sum.private_ns) / 1e3 / n_loops;
  m["core.predict_us.reduction"] = double(timing_sum.reduction_ns) / 1e3 / n_loops;
  m["core.predict_us.schedule"] = double(timing_sum.schedule_ns) / 1e3 / n_loops;
  m["core.extras_us"] = double(timing_sum.extras_ns) / 1e3 / n_loops;
  m["core.positive_share"] = double(positives) / n_loops;

  // tokenize: Text tokenization plus encoding against the served advisor's
  // own vocabulary and input length.
  ServedModel served = read_served_model(*advisor);
  const tokenize::Vocabulary& vocab = served.vocab;
  std::vector<std::vector<std::int32_t>> encoded(loops.size());
  {
    const std::uint64_t begin = now_ns();
    for (std::size_t i = 0; i < loops.size(); ++i) {
      Scoped s("tokenize.encode", static_cast<std::int64_t>(i));
      encoded[i] = vocab.encode(tokenize::tokenize(loops[i], tokenize::Representation::kText),
                                served.max_len);
    }
    m["tokenize.encode_us"] = double(now_ns() - begin) / 1e3 / n_loops;
  }

  // The traffic's token lengths, request by request as sent.
  {
    std::vector<double> tokens;
    std::size_t truncated = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(plan.size(), 20000); ++i) {
      const std::size_t n = tokenize::tokenize(plan[i].code, tokenize::Representation::kText).size();
      tokens.push_back(double(n));
      truncated += n + 1 > served.max_len ? 1 : 0;  // +1: the <cls> token
    }
    m["traffic.tokens_p50"] = median(tokens);
    m["traffic.truncated_share"] = double(truncated) / double(tokens.size());
  }

  // nn and tensor: the served model's forward and its parts, over the same
  // length buckets advise_batch forms (exact length, per file), once for
  // every loop and three more times for the positives (the clause models).
  // The directive forward must reproduce the served advice's p_directive,
  // which proves the replay runs the served shape and weights.
  const nn::EncoderConfig& enc = served.config.encoder;
  EncoderParts parts(served.config);
  double flops = 0.0;
  std::vector<double> batch_rows;  // batch * seq of every forward
  for (const auto& group : groups) {
    std::map<std::size_t, std::vector<std::size_t>> buckets;
    for (std::size_t i : group) buckets[encoded[i].size()].push_back(i);
    for (const auto& [len, rows] : buckets) {
      std::vector<std::size_t> pos;
      for (std::size_t i : rows)
        if (advices[i].needs_directive) pos.push_back(i);
      for (int task = 0; task < 4; ++task) {
        const std::vector<std::size_t>& members = task == 0 ? rows : pos;
        if (members.empty()) continue;
        nn::TokenBatch batch;
        batch.batch = members.size();
        batch.seq = len;
        for (std::size_t i : members) {
          batch.ids.insert(batch.ids.end(), encoded[i].begin(), encoded[i].end());
          batch.lengths.push_back(static_cast<int>(len));
        }
        parts.forward(batch, *served.directive);
        if (task == 0) {
          const std::vector<float> p = served.directive->predict_proba(batch);
          for (std::size_t j = 0; j < members.size(); ++j)
            if (std::fabs(p[j] - advices[members[j]].p_directive) > 1e-5f)
              throw std::runtime_error("the replayed directive model does not reproduce the "
                                       "served p_directive");
        }
        flops += double(members.size()) * forward_flops(enc, len);
        batch_rows.push_back(double(members.size() * len));
      }
    }
  }
  const auto totals = g_spans.totals();
  auto total_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second / 1e3 / n_loops;
  };
  const double attention = total_us("nn.attention");
  const double qkv = total_us("nn.qkv");
  const double attn_out = total_us("nn.attn_out");
  m["nn.embedding_us"] = total_us("nn.embedding");
  m["nn.layernorm_us"] = total_us("nn.layernorm");
  m["nn.qkv_us"] = qkv;
  m["nn.attn_core_us"] = std::max(0.0, attention - qkv - attn_out);  // derived
  m["nn.attn_out_us"] = attn_out;
  m["nn.ffn_us"] = total_us("nn.ffn");
  m["nn.block_us"] = total_us("nn.block");
  m["nn.encoder_us"] = total_us("nn.encoder");
  m["nn.head_us"] = total_us("nn.head");
  m["tensor.flops_per_advice"] = flops / n_loops;
  {
    // Achieved GEMM rate at the served linear shape (rows = the typical
    // bucket's batch*seq, dim x dim): forward linears are NN today, NT is
    // the transposed-weight form.
    const auto typical = static_cast<std::size_t>(median(batch_rows));
    Rng rng(5);
    m["tensor.gemm_nn_gflops"] = gemm_gflops(std::max<std::size_t>(typical, 1), enc.dim, enc.dim, false, rng);
    m["tensor.gemm_nt_gflops"] = gemm_gflops(std::max<std::size_t>(typical, 1), enc.dim, enc.dim, true, rng);
  }

  // Static stack, loop by loop, with the analyzer personality advise uses.
  {
    double parse_ns = 0, analyze_ns = 0, compar_ns = 0;
    const s2s::ComPar compar;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      frontend::NodePtr unit;
      std::uint64_t begin = now_ns();
      try {
        Scoped s("frontend.parse", static_cast<std::int64_t>(i));
        unit = frontend::parse_snippet(loops[i]);
      } catch (const ParseError&) {
      }
      parse_ns += double(now_ns() - begin);
      if (unit) {
        begin = now_ns();
        Scoped s("analysis.analyze", static_cast<std::int64_t>(i));
        const frontend::Node* loop = s2s::find_target_loop(*unit);
        if (loop != nullptr) {
          analysis::SideEffectOracle oracle(*unit);
          analysis::AnalyzerOptions options;
          options.assume_unknown_calls_pure = true;
          options.bail_on_struct_access = false;
          options.recognize_minmax_reduction = true;
          (void)analysis::DependenceAnalyzer(oracle, options).analyze(*loop);
        }
        analyze_ns += double(now_ns() - begin);
      }
      begin = now_ns();
      {
        Scoped s("s2s.compar", static_cast<std::int64_t>(i));
        (void)compar.process_source(loops[i]);
      }
      compar_ns += double(now_ns() - begin);
    }
    m["frontend.parse_us"] = parse_ns / 1e3 / n_loops;
    m["analysis.analyze_us"] = analyze_ns / 1e3 / n_loops;
    m["s2s.compar_us"] = compar_ns / 1e3 / n_loops;
  }
  {
    // lint: the workload's files when it has them, else each group's loops
    // as one unannotated file.
    std::vector<std::string> files;
    if (args.flag("files")) {
      for (const Json& row : read_jsonl(args.str("files"))) files.push_back(read_file(row.as_string()));
    } else {
      for (const auto& group : groups) {
        std::string text;
        for (std::size_t i : group) text += loops[i] + "\n";
        files.push_back(text);
      }
    }
    const lint::Linter linter;
    std::size_t k = 0;
    m["lint.file_us"] = ns_per_item(files, 1, [&](const std::string& text) {
      Scoped s("lint.file", static_cast<std::int64_t>(k++));
      (void)linter.lint_source(text);
    }) / 1e3;
  }

  // insight: one observation per advised loop.
  {
    insight::InsightTracker tracker;
    tracker.set_reference(advisor->fingerprint());
    std::size_t k = 0;
    m["insight.observe_us"] = ns_per_item(advices, 1, [&](const core::Advice& a) {
      insight::VerdictSample sample;
      sample.p_directive = a.p_directive;
      sample.p_private = a.p_private;
      sample.p_reduction = a.p_reduction;
      sample.p_dynamic = a.p_dynamic;
      sample.positive = a.needs_directive;
      sample.clauses_scored = a.needs_directive;
      sample.proof = a.proof;
      Scoped s("insight.observe", static_cast<std::int64_t>(k));
      (void)tracker.observe(loops[k++], sample);
    }) / 1e3;
  }

  // cache and shard codec, over the request stream as sent. The front
  // cache replay also yields the stream that reaches the shards.
  std::vector<std::string> payloads;
  std::vector<std::uint64_t> digests;
  const std::size_t stream_n = std::min<std::size_t>(plan.size(), 20000);
  for (std::size_t i = 0; i < stream_n; ++i) {
    Json request = Json::object();
    request["id"] = static_cast<std::int64_t>(i + 1);
    request["code"] = plan[i].code;
    payloads.push_back(request.dump());
    digests.push_back(cache::snippet_digest(plan[i].code));
  }
  m["cache.digest_ns"] = ns_per_item(plan.size() > stream_n
                                         ? std::vector<PlanEntry>(plan.begin(), plan.begin() + stream_n)
                                         : plan,
                                     5, [](const PlanEntry& e) { (void)cache::snippet_digest(e.code); });
  m["shard.frame_codec_ns"] = ns_per_item(payloads, 5, [](const std::string& p) {
    shard::Frame frame;
    frame.payload = p;
    const std::string bytes = shard::encode_frame(frame);
    shard::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    shard::Frame out;
    std::string error;
    (void)decoder.next(&out, &error);
  });
  std::vector<std::size_t> front_misses;
  {
    cache::CacheConfig config;
    config.max_entries = cache_cap;
    cache::ShardedLruCache<std::string> front("perfbench", config);
    const std::string stored(220, 'x');  // a verdict payload's typical size
    double get_ns = 0, put_ns = 0;
    std::size_t gets = 0, puts = 0;
    std::uint64_t overhead = ~0ull;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t a = now_ns();
      overhead = std::min(overhead, now_ns() - a);
    }
    for (std::size_t i = 0; i < digests.size(); ++i) {
      std::string value;
      std::uint64_t begin = now_ns();
      const bool hit = front.get(digests[i], &value);
      get_ns += double(now_ns() - begin - overhead);
      ++gets;
      if (!hit) {
        front_misses.push_back(i);
        begin = now_ns();
        front.put(digests[i], stored, stored.size());
        put_ns += double(now_ns() - begin - overhead);
        ++puts;
      }
    }
    m["cache.get_ns"] = get_ns / double(std::max<std::size_t>(gets, 1));
    m["cache.put_ns"] = put_ns / double(std::max<std::size_t>(puts, 1));
  }

  // serve: an in-process InferenceServer (clpp-serve's per-shard defaults,
  // result cache on) fed the front-cache misses in the workload's pattern:
  // scan keeps `conns` files in flight, ide submits at the scheduled times.
  {
    serve::ServeConfig config;
    config.cache.max_entries = cache_cap;
    serve::InferenceServer server(*advisor, config);
    std::vector<double> queue_us;
    const std::uint64_t t0 = now_ns();
    const auto budget = static_cast<std::uint64_t>(kReplaySeconds * 1e9);
    const bool open_loop = args.str("mode") == "ide";
    if (open_loop) {
      std::deque<std::future<serve::ServedAdvice>> inflight;
      for (std::size_t i : front_misses) {
        const auto due = static_cast<std::uint64_t>(plan[i].due_us) * 1000;
        if (due > budget) break;
        while (now_ns() - t0 < due) std::this_thread::sleep_for(std::chrono::microseconds(50));
        inflight.push_back(server.submit(plan[i].code));
      }
      for (auto& f : inflight) queue_us.push_back(double(f.get().timing.queue_us));
    } else {
      // Misses grouped back into the files they came from.
      std::vector<std::vector<std::size_t>> files;
      for (std::size_t i : front_misses) {
        if (files.empty() || plan[i].group != plan[files.back().front()].group) files.emplace_back();
        files.back().push_back(i);
      }
      std::deque<std::vector<std::future<serve::ServedAdvice>>> inflight;
      std::size_t next = 0;
      while ((next < files.size() && now_ns() - t0 < budget) || !inflight.empty()) {
        while (inflight.size() < conns && next < files.size() && now_ns() - t0 < budget) {
          std::vector<std::future<serve::ServedAdvice>> file;
          for (std::size_t i : files[next]) file.push_back(server.submit(plan[i].code));
          inflight.push_back(std::move(file));
          ++next;
        }
        for (auto& f : inflight.front()) queue_us.push_back(double(f.get().timing.queue_us));
        inflight.pop_front();
      }
    }
    server.shutdown();
    const serve::ServeStats stats = server.stats();
    Json samples = Json::object();
    samples["serve.queue_wait_us"] = samples_json(queue_us);
    m["samples"] = samples;
    m["serve.batch_rows"] = stats.mean_batch_rows();
    m["serve.coalesce_rate"] =
        stats.completed > 0 ? double(stats.coalesced) / double(stats.completed) : 0.0;
    m["cache.shard_hit_rate"] =
        stats.submitted > 0 ? double(stats.cache_hits) / double(stats.submitted) : 0.0;
  }

  std::printf("%s\n", m.dump().c_str());
  g_spans.write(args.str("spans"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe <corpus|reference|lintref|auditref|loadgen|layers> ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    if (command == "corpus") return cmd_corpus(args);
    if (command == "reference") return cmd_reference(args);
    if (command == "lintref") return cmd_lintref(args);
    if (command == "auditref") return cmd_auditref(args);
    if (command == "loadgen") return cmd_loadgen(args);
    if (command == "layers") return cmd_layers(args);
    std::fprintf(stderr, "perfbench_probe: unknown command %s\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
