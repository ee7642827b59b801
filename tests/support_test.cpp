// Unit tests for clpp::support (rng, strings, cli, json, csv, table, plot).
#include <gtest/gtest.h>

#include <set>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/cli.h"
#include "support/csv.h"
#include "support/json.h"
#include "support/parallel.h"
#include "support/plot.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/strings.h"
#include "support/table.h"

namespace clpp {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, RangeRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.range(3, 2), InvalidArgument);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(6);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(7);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.weighted(w), 1u);
}

TEST(Rng, WeightedProportions) {
  Rng rng(8);
  const std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ones += (rng.weighted(w) == 1);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.03);
}

TEST(Rng, WeightedRejectsAllZero) {
  Rng rng(9);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(w), InvalidArgument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.split();
  EXPECT_NE(parent(), child());
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  for  (i=0;  \n i<n; ) ");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "for");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, TrimBothSides) { EXPECT_EQ(trim("  x \t\n"), "x"); }

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("#pragma omp", "#pragma"));
  EXPECT_FALSE(starts_with("omp", "#pragma"));
  EXPECT_TRUE(ends_with("loop.c", ".c"));
  EXPECT_FALSE(ends_with(".c", "loop.c"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(28374), "28,374");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
  EXPECT_EQ(with_commas(999), "999");
}

TEST(Strings, PadHelpers) {
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

TEST(Cli, ParsesTypedOptions) {
  ArgParser parser("prog", "test");
  parser.add_string("scale", "quick", "scale");
  parser.add_int("seed", 2023, "seed");
  parser.add_double("lr", 0.001, "learning rate");
  parser.add_flag("verbose", "verbosity");
  const char* argv[] = {"prog", "--scale=paper", "--seed", "7", "--verbose"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_string("scale"), "paper");
  EXPECT_EQ(parser.get_int("seed"), 7);
  EXPECT_DOUBLE_EQ(parser.get_double("lr"), 0.001);
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(Cli, RejectsUnknownOption) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(parser.parse(2, argv), InvalidArgument);
}

TEST(Cli, RejectsBadInteger) {
  ArgParser parser("prog", "test");
  parser.add_int("n", 1, "count");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_THROW(parser.parse(3, argv), InvalidArgument);
}

TEST(Cli, CollectsPositional) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "file1.c", "file2.c"};
  ASSERT_TRUE(parser.parse(3, argv));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "file1.c");
}

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e1").as_double(), -25.0);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, ObjectRoundTrip) {
  Json obj = Json::object();
  obj["name"] = Json{"for (i=0;i<n;i++) a[i]=i;"};
  obj["label"] = Json{true};
  obj["count"] = Json{13139};
  const Json parsed = Json::parse(obj.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "for (i=0;i<n;i++) a[i]=i;");
  EXPECT_TRUE(parsed.at("label").as_bool());
  EXPECT_EQ(parsed.at("count").as_int(), 13139);
}

TEST(Json, NestedArrays) {
  const Json v = Json::parse(R"([1, [2, 3], {"k": [4]}])");
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(1).at(1).as_int(), 3);
  EXPECT_EQ(v.at(2).at("k").at(0).as_int(), 4);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]2"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("01x"), ParseError);
}

TEST(Json, EscapesControlCharacters) {
  const std::string dumped = Json{std::string("a\tb\"c")}.dump();
  EXPECT_EQ(Json::parse(dumped).as_string(), "a\tb\"c");
}

TEST(Json, DumpSpellsNumbers) {
  // Integral values below 9e15 print as integers, everything else with 17
  // significant digits (the %.17g spelling).
  const std::vector<std::pair<double, std::string>> cases = {
      {0.0, "0"},
      {42.0, "42"},
      {-7.0, "-7"},
      {-0.0, "0"},
      {2.5, "2.5"},
      {-2.5, "-2.5"},
      {0.1, "0.10000000000000001"},
      {1e20, "1e+20"},
      {9e15 - 1, "8999999999999999"},
      {9e15, "9000000000000000"},
      {-(9e15 - 1), "-8999999999999999"},
      {-9e15, "-9000000000000000"},
      {1.0 / 3, "0.33333333333333331"},
      {1e-7, "9.9999999999999995e-08"},
  };
  for (const auto& [value, spelled] : cases) EXPECT_EQ(Json{value}.dump(), spelled);
  EXPECT_EQ(Json{std::int64_t{-5}}.dump(), "-5");
  EXPECT_EQ(Json{std::size_t{13139}}.dump(), "13139");
  Json doc = Json::object();
  doc["n"] = Json{1.0 / 3};
  doc["list"] = Json::array();
  doc["list"].push_back(Json{-0.0});
  doc["list"].push_back(Json{1e20});
  EXPECT_EQ(doc.dump(), R"({"list":[0,1e+20],"n":0.33333333333333331})");
}

TEST(Json, GettersWithFallback) {
  const Json obj = Json::parse(R"({"a": 1})");
  EXPECT_EQ(obj.get_int("a", 9), 1);
  EXPECT_EQ(obj.get_int("missing", 9), 9);
  EXPECT_EQ(obj.get_string("missing", "d"), "d");
}

TEST(Csv, QuotesSpecialFields) {
  CsvWriter csv({"code", "label"});
  csv.add_row({"for (i=0, j=1;;)", "yes"});
  csv.add_row({"say \"hi\"", "no"});
  const std::string text = csv.str();
  EXPECT_NE(text.find("\"for (i=0, j=1;;)\""), std::string::npos);
  EXPECT_NE(text.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, RejectsArityMismatch) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, AlignsColumns) {
  TextTable t({"", "Precision", "Recall", "F1"});
  t.add_row({"PragFormer", "0.84", "0.85", "0.84"});
  t.add_row({"ComPar", "0.35", "0.52", "0.43"});
  const std::string text = t.str();
  EXPECT_NE(text.find("| PragFormer "), std::string::npos);
  EXPECT_NE(text.find("|---"), std::string::npos);
  // Every line has equal width.
  const auto lines = split(text, '\n');
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), lines[0].size());
    }
  }
}

TEST(Plot, RendersAllSeries) {
  AsciiPlot plot("Accuracy", "epoch", "val acc");
  plot.add_series("Text", {0.5, 0.7, 0.87});
  plot.add_series("AST", {0.5, 0.6, 0.82});
  const std::string text = plot.str();
  EXPECT_NE(text.find("*=Text"), std::string::npos);
  EXPECT_NE(text.find("o=AST"), std::string::npos);
}

TEST(Plot, RejectsLengthMismatch) {
  AsciiPlot plot("t", "x", "y");
  plot.add_series("a", {1, 2});
  EXPECT_THROW(plot.add_series("b", {1}), InvalidArgument);
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
               /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SerialBelowGrain) {
  // Below the grain the helper must run inline on the calling thread in
  // order (we detect order by writing an increasing counter).
  std::vector<int> order;
  parallel_for(8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               /*grain=*/1024);
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Parallel, ZeroIterationsIsANoop) {
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

/// Pins the OpenMP team size for one test and restores it after.
class TeamSize {
 public:
  explicit TeamSize([[maybe_unused]] int threads) {
#if defined(_OPENMP)
    omp_set_num_threads(threads);
#endif
  }
  ~TeamSize() {
#if defined(_OPENMP)
    omp_set_num_threads(saved_);
#endif
  }

 private:
  int saved_ = hardware_threads();
};

TEST(ParallelDynamic, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 4}) {
    const TeamSize team(threads);
    std::vector<std::atomic<int>> hits(300);
    parallel_for_dynamic(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(ParallelDynamic, FewerThanTwoIndicesRunInline) {
  const TeamSize team(4);
  obs::set_enabled(true);
  obs::metrics().reset();
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for_dynamic(0, [&](std::size_t) { ++calls; });
  parallel_for_dynamic(1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
#if defined(_OPENMP)
    EXPECT_FALSE(omp_in_parallel());
#endif
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(obs::metrics().counter("clpp.parallel.loops_serial").value(), 2u);
  EXPECT_EQ(obs::metrics().counter("clpp.parallel.loops_parallel").value(), 0u);
  // Two indices are enough to start a team of two or more.
  parallel_for_dynamic(2, [](std::size_t) {});
  EXPECT_EQ(obs::metrics().counter("clpp.parallel.loops_parallel").value(),
            dynamic_team_size() > 1 ? 1u : 0u);
  obs::set_enabled(false);
}

TEST(ParallelDynamic, TeamLeavesOneProcessorFree) {
#if !defined(_OPENMP)
  EXPECT_EQ(dynamic_team_size(), 1);
#else
  const int procs = omp_get_num_procs();
  const int cap = std::max(1, procs - 1);
  {
    const TeamSize team(procs + 1);
    EXPECT_EQ(dynamic_team_size(), cap);
    std::mutex mu;
    std::set<std::thread::id> members;
    parallel_for_dynamic(64, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::lock_guard<std::mutex> lock(mu);
      members.insert(std::this_thread::get_id());
    });
    EXPECT_LE(members.size(), static_cast<std::size_t>(cap));
  }
  // A one-thread OpenMP default still runs serially.
  const TeamSize one(1);
  EXPECT_EQ(dynamic_team_size(), 1);
#endif
}

TEST(ParallelDynamic, RethrowsTheLowestIndexExceptionAfterEveryIndexRan) {
  for (const int threads : {1, 4}) {
    const TeamSize team(threads);
    std::vector<std::atomic<int>> hits(64);
    try {
      parallel_for_dynamic(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
        // Index 2 throws last in time on a team, yet its exception wins.
        if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (i == 2 || i == 9 || i == 63) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception rethrown at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "2") << threads << " threads";
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch timer;
  const double t0 = timer.seconds();
  EXPECT_GE(t0, 0.0);
  // Busy-wait a hair; elapsed must be monotonic.
  std::atomic<long> sink{0};
  for (int i = 0; i < 100000; ++i) sink.fetch_add(i, std::memory_order_relaxed);
  EXPECT_GT(sink.load(), 0);
  EXPECT_GE(timer.seconds(), t0);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
  EXPECT_GE(timer.millis(), 0.0);
}

TEST(Table, NumFormatsFixedDigits) {
  EXPECT_EQ(TextTable::num(0.845, 2), "0.84");
  EXPECT_EQ(TextTable::num(0.5, 1), "0.5");
  EXPECT_EQ(TextTable::num(2.0), "2.00");
}

}  // namespace
}  // namespace clpp
