#include "engine/query_engine.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/bidirectional.h"
#include "search/bkws.h"
#include "search/blinks.h"
#include "search/keyword_cones.h"
#include "search/rclique.h"
#include "util/timer.h"

namespace bigindex {
namespace {

/// Once-per-query metric recording from the finished result — all counter
/// bumps and histogram records, so the cost is a handful of relaxed atomics
/// plus two labeled-series lookups per query.
void RecordQueryMetrics(const std::string& algorithm, const QueryResult& r) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::string label = "algorithm=\"" + algorithm + "\"";
  reg.GetCounter("bigindex_engine_queries_total",
                 "Queries evaluated by the engine", label)
      .Inc();
  reg.GetHistogram("bigindex_engine_eval_ms",
                   "End-to-end evaluation latency per query, ms", label)
      .Record(r.wall_ms);

  static Counter& deadline_expired = reg.GetCounter(
      "bigindex_engine_deadline_expired_total",
      "Evaluations abandoned at a deadline checkpoint");
  if (r.breakdown.deadline_expired) deadline_expired.Inc();

  // Algorithm 2 phase times and specialization fan-out (EvalBreakdown).
  static Histogram& explore_ms = reg.GetHistogram(
      "bigindex_eval_explore_ms", "Summary-graph exploration time, ms");
  static Histogram& specialize_ms = reg.GetHistogram(
      "bigindex_eval_specialize_ms", "Answer specialization time, ms");
  static Histogram& generate_ms = reg.GetHistogram(
      "bigindex_eval_generate_ms", "Answer generation time (Algos 3/4), ms");
  static Histogram& verify_ms = reg.GetHistogram(
      "bigindex_eval_verify_ms", "Data-graph verification time, ms");
  explore_ms.Record(r.breakdown.explore_ms);
  specialize_ms.Record(r.breakdown.specialize_ms);
  generate_ms.Record(r.breakdown.generate_ms);
  verify_ms.Record(r.breakdown.verify_ms);

  static Counter& generalized = reg.GetCounter(
      "bigindex_eval_generalized_answers_total",
      "Generalized answers produced on summary graphs");
  static Counter& pruned = reg.GetCounter(
      "bigindex_eval_pruned_answers_total",
      "Generalized answers pruned during specialization");
  static Counter& roots = reg.GetCounter(
      "bigindex_eval_candidate_roots_total",
      "Candidates sent to data-graph verification (specialization fan-out)");
  static Counter& finals = reg.GetCounter(
      "bigindex_eval_final_answers_total", "Answers returned to callers");
  generalized.Inc(r.breakdown.generalized_answers);
  pruned.Inc(r.breakdown.pruned_answers);
  roots.Inc(r.breakdown.candidate_roots);
  finals.Inc(r.breakdown.final_answers);

  reg.GetCounter("bigindex_engine_layer_selected_total",
                 "Queries evaluated at each index layer",
                 "layer=\"" + std::to_string(r.breakdown.layer) + "\"")
      .Inc();
}

}  // namespace

/// RAII lease of a QueryContext from the engine's free list; creates a fresh
/// context when the list is empty, returns it (warm) on destruction.
class QueryEngine::ContextLease {
 public:
  explicit ContextLease(const QueryEngine& engine) : engine_(engine) {
    std::lock_guard<std::mutex> lock(engine_.context_mutex_);
    if (!engine_.free_contexts_.empty()) {
      context_ = std::move(engine_.free_contexts_.back());
      engine_.free_contexts_.pop_back();
    }
    if (!context_) context_ = std::make_unique<QueryContext>();
  }

  ~ContextLease() {
    std::lock_guard<std::mutex> lock(engine_.context_mutex_);
    engine_.free_contexts_.push_back(std::move(context_));
  }

  ContextLease(const ContextLease&) = delete;
  ContextLease& operator=(const ContextLease&) = delete;

  QueryContext& operator*() { return *context_; }

 private:
  const QueryEngine& engine_;
  std::unique_ptr<QueryContext> context_;
};

void EngineQuery::NormalizeKeywords() {
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
}

Status ValidateEngineQuery(const EngineQuery& query, bool registered) {
  if (query.keywords.empty()) {
    return Status::InvalidArgument("query has an empty keyword list");
  }
  if (query.keywords.size() > kMaxKeywords) {
    std::vector<LabelId> distinct = query.keywords;
    std::sort(distinct.begin(), distinct.end());
    const size_t n = static_cast<size_t>(
        std::unique(distinct.begin(), distinct.end()) - distinct.begin());
    if (n > kMaxKeywords) {
      return Status::InvalidArgument(
          "query has " + std::to_string(n) + " distinct keywords; at most " +
          std::to_string(kMaxKeywords) + " are supported");
    }
  }
  if (!registered) {
    return Status::NotFound("no algorithm registered as '" + query.algorithm +
                            "'");
  }
  return Status::OK();
}

std::unique_ptr<KeywordSearchAlgorithm> MakeDefaultAlgorithm(
    std::string_view name) {
  if (name == "bkws") return std::make_unique<BkwsAlgorithm>();
  if (name == "blinks") return std::make_unique<BlinksAlgorithm>();
  if (name == "r-clique") return std::make_unique<RCliqueAlgorithm>();
  if (name == "bidirectional") {
    return std::make_unique<BidirectionalAlgorithm>();
  }
  return nullptr;
}

QueryEngine::QueryEngine(BigIndex index, QueryEngineOptions options)
    : QueryEngine(std::make_shared<const BigIndex>(std::move(index)),
                  std::move(options)) {}

QueryEngine::QueryEngine(std::shared_ptr<const BigIndex> index,
                         QueryEngineOptions options)
    : index_(std::move(index)),
      num_slots_(std::max<size_t>(
          1, ExecutorPool::ResolveThreadCount(options.num_threads))) {
  if (options.register_default_algorithms) {
    for (std::string_view name : kDefaultAlgorithms) {
      Register(MakeDefaultAlgorithm(name));
    }
  }
}

void QueryEngine::Register(std::unique_ptr<KeywordSearchAlgorithm> algorithm) {
  for (auto& existing : algorithms_) {
    if (existing->Name() == algorithm->Name()) {
      existing = std::move(algorithm);
      return;
    }
  }
  algorithms_.push_back(std::move(algorithm));
}

const KeywordSearchAlgorithm* QueryEngine::algorithm(
    std::string_view name) const {
  for (const auto& a : algorithms_) {
    if (a->Name() == name) return a.get();
  }
  return nullptr;
}

std::vector<std::string_view> QueryEngine::AlgorithmNames() const {
  std::vector<std::string_view> names;
  names.reserve(algorithms_.size());
  for (const auto& a : algorithms_) names.push_back(a->Name());
  return names;
}

Status QueryEngine::Validate(const EngineQuery& query) const {
  return ValidateEngineQuery(query, algorithm(query.algorithm) != nullptr);
}

StatusOr<QueryResult> QueryEngine::Evaluate(const EngineQuery& query) const {
  BIGINDEX_RETURN_IF_ERROR(Validate(query));
  if (query.eval.deadline.Expired()) {
    return Status::DeadlineExceeded("deadline expired before evaluation");
  }
  const KeywordSearchAlgorithm* f = algorithm(query.algorithm);
  ContextLease lease(*this);
  QueryResult result;
  result.algorithm = query.algorithm;
  Timer timer;
  {
    TRACE_SPAN("engine/evaluate");
    result.answers = EvaluateWithIndex(*index_, *f, query.keywords,
                                       query.eval, *lease, &result.breakdown);
  }
  result.wall_ms = timer.ElapsedMillis();
  RecordQueryMetrics(query.algorithm, result);
  if (result.breakdown.deadline_expired) {
    return Status::DeadlineExceeded("deadline expired during evaluation");
  }
  return result;
}

}  // namespace bigindex
