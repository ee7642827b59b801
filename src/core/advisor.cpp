#include "core/advisor.h"

#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "analysis/depend.h"
#include "frontend/parser.h"
#include "nn/checkpoint.h"
#include "obs/trace.h"
#include "resil/container.h"
#include "support/json.h"
#include "tensor/io.h"

namespace clpp::core {

ParallelAdvisor::ParallelAdvisor(std::unique_ptr<PragFormer> directive_model,
                                 std::unique_ptr<PragFormer> private_model,
                                 std::unique_ptr<PragFormer> reduction_model,
                                 tokenize::Vocabulary vocabulary,
                                 tokenize::Representation rep, std::size_t max_len)
    : directive_model_(std::move(directive_model)),
      private_model_(std::move(private_model)),
      reduction_model_(std::move(reduction_model)),
      vocab_(std::move(vocabulary)),
      rep_(rep),
      max_len_(max_len) {
  CLPP_CHECK(directive_model_ && private_model_ && reduction_model_);
}

void ParallelAdvisor::set_schedule_model(std::unique_ptr<PragFormer> schedule_model) {
  schedule_model_ = std::move(schedule_model);
}

Advice ParallelAdvisor::advise(const std::string& code) const {
  return advise(code, AdviseOptions{});
}

Advice ParallelAdvisor::advise(const std::string& code,
                               const AdviseOptions& options) const {
  return advise_batch({code}, options).front();
}

std::vector<Advice> ParallelAdvisor::advise_batch(const std::vector<std::string>& codes,
                                                  const AdviseOptions& options) const {
  return advise_batch(codes, options, nullptr);
}

std::vector<Advice> ParallelAdvisor::advise_batch(const std::vector<std::string>& codes,
                                                  const AdviseOptions& options,
                                                  BatchTiming* timing) const {
  std::vector<Advice> out(codes.size());
  if (codes.empty()) return out;
  CLPP_TRACE_SPAN_ARG("advise.batch", codes.size());

  // Stage stopwatch: reads the tracer's steady clock only when the caller
  // asked for a timing breakdown, so the plain path pays nothing.
  const auto stage_clock = [&]() -> std::uint64_t {
    return timing != nullptr ? obs::Tracer::now_ns() : 0;
  };
  const auto charge = [&](std::uint64_t BatchTiming::*slot, std::uint64_t begin_ns) {
    if (timing != nullptr) timing->*slot += obs::Tracer::now_ns() - begin_ns;
  };

  // Coalesce duplicate snippets before any tokenization or inference: advice
  // is a pure function of the code text, so identical requests in one batch
  // share a single forward pass (and a single analyzer/ComPar run) and all
  // receive copies of the same verdict. Concurrent advisor traffic is
  // duplicate-heavy — the same idiomatic loop forms recur across a codebase —
  // so this is the dominant batching win on a single core, where the
  // per-row transformer FLOPs themselves cannot be amortized.
  std::vector<std::size_t> unique_of(codes.size());
  std::vector<std::size_t> uniques;  // first-occurrence index per distinct code
  {
    std::unordered_map<std::string_view, std::size_t> first;
    first.reserve(codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      const auto [it, inserted] = first.try_emplace(codes[i], uniques.size());
      if (inserted) uniques.push_back(i);
      unique_of[i] = it->second;
    }
  }
  if (timing != nullptr) {
    timing->unique_rows = uniques.size();
    timing->coalesced = codes.size() - uniques.size();
    timing->coalesced_of.assign(codes.size(), 0);
    for (std::size_t i = 0; i < codes.size(); ++i)
      if (uniques[unique_of[i]] != i) timing->coalesced_of[i] = 1;
  }
  std::vector<Advice> advices(uniques.size());

  // Encode every distinct snippet once, then bucket by exact encoded length:
  // a bucket packs into a TokenBatch with zero padding, so no FLOPs are
  // spent on pad positions and — because every NN kernel computes batch rows
  // independently, in the same order — each row's verdict is bitwise equal
  // to a batch-of-one forward.
  std::vector<std::vector<std::int32_t>> encoded(uniques.size());
  const std::uint64_t encode_begin = stage_clock();
  for (std::size_t u = 0; u < uniques.size(); ++u)
    encoded[u] = vocab_.encode(tokenize::tokenize(codes[uniques[u]], rep_), max_len_);
  charge(&BatchTiming::encode_ns, encode_begin);

  // Runs `model` over `subset` (indices into codes), one forward per
  // length-bucket, and writes each probability via `sink(index, p)`.
  const auto score_subset = [&](const PragFormer& model,
                                const std::vector<std::size_t>& subset,
                                const std::function<void(std::size_t, float)>& sink) {
    std::map<std::size_t, std::vector<std::size_t>> buckets;
    for (std::size_t i : subset) buckets[encoded[i].size()].push_back(i);
    for (const auto& [len, members] : buckets) {
      nn::TokenBatch batch;
      batch.batch = members.size();
      batch.seq = len;
      batch.ids.reserve(members.size() * len);
      batch.lengths.reserve(members.size());
      for (std::size_t i : members) {
        batch.ids.insert(batch.ids.end(), encoded[i].begin(), encoded[i].end());
        batch.lengths.push_back(static_cast<int>(len));
      }
      const std::vector<float> probs = model.predict_proba(batch);
      for (std::size_t k = 0; k < members.size(); ++k) sink(members[k], probs[k]);
    }
  };

  std::vector<std::size_t> all(uniques.size());
  std::iota(all.begin(), all.end(), 0);
  const std::uint64_t directive_begin = stage_clock();
  score_subset(*directive_model_, all, [&](std::size_t i, float p) {
    advices[i].p_directive = p;
    advices[i].needs_directive = p > 0.5f;
  });
  charge(&BatchTiming::directive_ns, directive_begin);

  // The clause/schedule models only run for snippets the directive model
  // marked positive — exactly the sequential path's conditional scoring.
  std::vector<std::size_t> positive;
  for (std::size_t i = 0; i < advices.size(); ++i)
    if (advices[i].needs_directive) positive.push_back(i);
  if (!positive.empty()) {
    const std::uint64_t private_begin = stage_clock();
    score_subset(*private_model_, positive, [&](std::size_t i, float p) {
      advices[i].p_private = p;
      advices[i].needs_private = p > 0.5f;
    });
    charge(&BatchTiming::private_ns, private_begin);
    const std::uint64_t reduction_begin = stage_clock();
    score_subset(*reduction_model_, positive, [&](std::size_t i, float p) {
      advices[i].p_reduction = p;
      advices[i].needs_reduction = p > 0.5f;
    });
    charge(&BatchTiming::reduction_ns, reduction_begin);
    if (schedule_model_) {
      const std::uint64_t schedule_begin = stage_clock();
      score_subset(*schedule_model_, positive, [&](std::size_t i, float p) {
        advices[i].p_dynamic = p;
        advices[i].wants_dynamic_schedule = p > 0.5f;
      });
      charge(&BatchTiming::schedule_ns, schedule_begin);
    }
  }

  // Deterministic per-snippet machinery (proof cross-check, clause naming,
  // ComPar comparison), still once per *distinct* snippet.
  const std::uint64_t extras_begin = stage_clock();
  for (std::size_t u = 0; u < uniques.size(); ++u) {
    const std::string& code = codes[uniques[u]];
    Advice& advice = advices[u];

    // Run the dependence analyzer on every distinct snippet — not only
    // directive-positive ones — so insight can compare model verdicts
    // against exact static proofs in both directions. The same verdict
    // names the clause variables for suggested pragmas.
    std::optional<analysis::LoopVerdict> verdict;
    if (options.with_analysis) {
      try {
        const frontend::NodePtr unit = frontend::parse_snippet(code);
        const frontend::Node* loop = s2s::find_target_loop(*unit);
        if (loop) {
          analysis::SideEffectOracle oracle(*unit);
          analysis::AnalyzerOptions analyzer_options;
          analyzer_options.assume_unknown_calls_pure = true;  // the model already decided
          analyzer_options.bail_on_struct_access = false;
          analyzer_options.recognize_minmax_reduction = true;
          verdict =
              analysis::DependenceAnalyzer(oracle, analyzer_options).analyze(*loop);
          if (!verdict->canonical || verdict->bailed || !verdict->exact())
            advice.proof = insight::ProofVerdict::kInconclusive;
          else if (verdict->parallelizable)
            advice.proof = insight::ProofVerdict::kParallel;
          else if (!verdict->dependences.empty())
            advice.proof = insight::ProofVerdict::kDependent;
          else
            advice.proof = insight::ProofVerdict::kInconclusive;
        }
      } catch (const ParseError&) {
        // Unparseable code still gets the bare suggestion below.
      }
    }

    if (advice.needs_directive) {
      frontend::OmpDirective directive;
      directive.parallel = true;
      directive.for_loop = true;
      if (advice.wants_dynamic_schedule)
        directive.schedule = frontend::ScheduleKind::kDynamic;
      if (verdict) {
        if (advice.needs_private) directive.private_vars = verdict->private_candidates;
        if (advice.needs_reduction) directive.reductions = verdict->reductions;
      }
      advice.suggestion = directive.to_string();
    }

    if (options.with_compar) {
      const s2s::ComPar compar;
      const s2s::ComParResult result = compar.process_source(code);
      if (result.predicts_directive())
        advice.compar_suggestion = result.combined.directive->to_string();
    }
  }
  charge(&BatchTiming::extras_ns, extras_begin);

  // Fan the per-unique verdicts back out to every request position.
  for (std::size_t i = 0; i < codes.size(); ++i) out[i] = advices[unique_of[i]];
  return out;
}

namespace {

// Payload layout v2: the training-corpus fingerprint follows the schedule flag.
constexpr char kAdvisorMagic[] = "CLPPADV2";

Json config_to_json(const PragFormerConfig& config) {
  Json obj = Json::object();
  obj["vocab_size"] = Json{config.encoder.vocab_size};
  obj["max_seq"] = Json{config.encoder.max_seq};
  obj["dim"] = Json{config.encoder.dim};
  obj["heads"] = Json{config.encoder.heads};
  obj["layers"] = Json{config.encoder.layers};
  obj["ffn_dim"] = Json{config.encoder.ffn_dim};
  obj["dropout"] = Json{static_cast<double>(config.encoder.dropout)};
  obj["head_hidden"] = Json{config.head_hidden};
  obj["head_dropout"] = Json{static_cast<double>(config.head_dropout)};
  return obj;
}

PragFormerConfig config_from_json(const Json& obj) {
  PragFormerConfig config;
  config.encoder.vocab_size = static_cast<std::size_t>(obj.at("vocab_size").as_int());
  config.encoder.max_seq = static_cast<std::size_t>(obj.at("max_seq").as_int());
  config.encoder.dim = static_cast<std::size_t>(obj.at("dim").as_int());
  config.encoder.heads = static_cast<std::size_t>(obj.at("heads").as_int());
  config.encoder.layers = static_cast<std::size_t>(obj.at("layers").as_int());
  config.encoder.ffn_dim = static_cast<std::size_t>(obj.at("ffn_dim").as_int());
  config.encoder.dropout = static_cast<float>(obj.at("dropout").as_double());
  config.head_hidden = static_cast<std::size_t>(obj.at("head_hidden").as_int());
  config.head_dropout = static_cast<float>(obj.at("head_dropout").as_double());
  return config;
}

void write_model(std::ostream& out, PragFormer& model) {
  write_string(out, config_to_json(model.config()).dump());
  const auto params = model.parameters();
  write_u64(out, params.size());
  for (const nn::Parameter* p : params) {
    write_string(out, p->name);
    write_tensor(out, p->value);
  }
}

std::unique_ptr<PragFormer> read_model(std::istream& in) {
  const PragFormerConfig config = config_from_json(Json::parse(read_string(in)));
  // Weights are fully overwritten below; the init RNG seed is irrelevant.
  Rng rng(0);
  auto model = std::make_unique<PragFormer>(config, rng);
  const std::uint64_t count = read_u64(in);
  std::map<std::string, Tensor> checkpoint;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = read_string(in);
    checkpoint.emplace(std::move(name), read_tensor(in));
  }
  const auto params = model->parameters();
  const std::size_t restored = nn::restore_parameters(checkpoint, params, true);
  CLPP_CHECK_MSG(restored == params.size(), "advisor checkpoint incomplete");
  return model;
}

}  // namespace

std::string ParallelAdvisor::serialize() const {
  std::ostringstream out;
  write_string(out, kAdvisorMagic);
  write_string(out, tokenize::representation_name(rep_));
  write_u64(out, max_len_);
  write_u64(out, schedule_model_ ? 1 : 0);
  write_string(out, fingerprint_.to_json().dump());
  const auto& tokens = vocab_.tokens();
  write_u64(out, tokens.size());
  for (const std::string& token : tokens) write_string(out, token);
  write_model(out, *directive_model_);
  write_model(out, *private_model_);
  write_model(out, *reduction_model_);
  if (schedule_model_) write_model(out, *schedule_model_);
  return std::move(out).str();
}

void ParallelAdvisor::save(const std::string& path) const {
  resil::write_container(path, serialize());
}

namespace {

ParallelAdvisor load_advisor_stream(std::istream& in, const std::string& path) {
  if (read_string(in) != kAdvisorMagic)
    throw ParseError("not a CLPP advisor file: " + path);
  const tokenize::Representation rep =
      tokenize::representation_from(read_string(in));
  const std::size_t max_len = static_cast<std::size_t>(read_u64(in));
  const bool has_schedule = read_u64(in) != 0;
  insight::Fingerprint fingerprint =
      insight::Fingerprint::from_json(Json::parse(read_string(in)));
  const std::uint64_t token_count = read_u64(in);
  if (token_count > 10'000'000) throw ParseError("implausible vocabulary size");
  std::vector<std::string> tokens;
  tokens.reserve(token_count);
  for (std::uint64_t i = 0; i < token_count; ++i) tokens.push_back(read_string(in));
  tokenize::Vocabulary vocab = tokenize::Vocabulary::from_tokens(std::move(tokens));

  auto directive = read_model(in);
  auto private_model = read_model(in);
  auto reduction = read_model(in);
  ParallelAdvisor advisor(std::move(directive), std::move(private_model),
                          std::move(reduction), std::move(vocab), rep, max_len);
  advisor.set_fingerprint(std::move(fingerprint));
  if (has_schedule) advisor.set_schedule_model(read_model(in));
  return advisor;
}

}  // namespace

ParallelAdvisor ParallelAdvisor::load(const std::string& path) {
  std::istringstream in(resil::read_container(path));
  return load_advisor_stream(in, path);
}

std::unique_ptr<ParallelAdvisor> ParallelAdvisor::clone() const {
  std::istringstream in(serialize());
  return std::make_unique<ParallelAdvisor>(load_advisor_stream(in, "<memory>"));
}

Explanation ParallelAdvisor::explain(const std::string& code) const {
  return explain_prediction(*directive_model_, vocab_, rep_, max_len_, code);
}

ParallelAdvisor ParallelAdvisor::train(PipelineConfig config) {
  Pipeline pipeline(std::move(config));
  TaskRun directive = pipeline.train_task(corpus::Task::kDirective);
  TaskRun private_run = pipeline.train_task(corpus::Task::kPrivate);
  TaskRun reduction = pipeline.train_task(corpus::Task::kReduction);
  TaskRun schedule = pipeline.train_task(corpus::Task::kSchedule);
  ParallelAdvisor advisor(std::move(directive.model), std::move(private_run.model),
                          std::move(reduction.model), pipeline.vocabulary(),
                          pipeline.config().representation,
                          pipeline.config().max_len);
  advisor.set_schedule_model(std::move(schedule.model));
  // Checkpoint the training distribution as the drift-detection reference.
  insight::FingerprintBuilder fingerprint;
  for (const corpus::Record& record : pipeline.corpus().records())
    fingerprint.observe(record.code);
  advisor.set_fingerprint(fingerprint.build());
  return advisor;
}

ParallelAdvisor ParallelAdvisor::untrained(const std::vector<std::string>& snippets,
                                           PragFormerConfig config,
                                           std::size_t max_len, std::uint64_t seed) {
  std::vector<std::vector<std::string>> documents;
  documents.reserve(snippets.size());
  for (const std::string& code : snippets)
    documents.push_back(tokenize::tokenize(code, tokenize::Representation::kText));
  tokenize::Vocabulary vocab = tokenize::Vocabulary::build(documents);
  config.encoder.vocab_size = vocab.size();
  // One statement per model: the draw order from `rng` fixes the weights.
  Rng rng(seed);
  auto directive = std::make_unique<PragFormer>(config, rng);
  auto private_model = std::make_unique<PragFormer>(config, rng);
  auto reduction = std::make_unique<PragFormer>(config, rng);
  auto schedule = std::make_unique<PragFormer>(config, rng);
  ParallelAdvisor advisor(std::move(directive), std::move(private_model),
                          std::move(reduction), std::move(vocab),
                          tokenize::Representation::kText, max_len);
  advisor.set_schedule_model(std::move(schedule));
  return advisor;
}

}  // namespace clpp::core
