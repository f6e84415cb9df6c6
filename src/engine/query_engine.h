// QueryEngine — the re-entrant front door of the query path.
//
// The engine owns (or shares) one immutable BigIndex plus a registry of
// KeywordSearchAlgorithm implementations keyed by Name(), and evaluates
// keyword queries through the hierarchical evaluator (eval_Ont, Algorithm 2).
// Evaluate(query) runs one query on the calling thread; the engine starts no
// threads of its own. Callers that want parallelism bring their own (the
// serving layer's dispatch strands, or an ExecutorPool's ParallelFor).
//
// Re-entrancy: the index and the registered algorithms are shared read-only
// state (algorithm-internal per-graph caches are mutex-guarded); every
// in-flight evaluation draws its scratch from a QueryContext leased from an
// internal pool, so Evaluate() may itself be called from many threads
// concurrently. Contexts keep their capacity between queries — steady-state
// evaluation allocates nothing per call in the hot search loops.

#ifndef BIGINDEX_ENGINE_QUERY_ENGINE_H_
#define BIGINDEX_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/big_index.h"
#include "core/evaluator.h"
#include "core/search_algorithm.h"
#include "engine/executor.h"
#include "engine/query_context.h"
#include "search/answer.h"
#include "util/status.h"

namespace bigindex {

/// Engine construction knobs.
struct QueryEngineOptions {
  /// How many evaluations the caller intends to run concurrently (see
  /// num_slots()); 0 = one. ExecutorPool::kHardwareConcurrency = one per
  /// hardware thread. The engine itself starts no threads.
  size_t num_threads = 0;

  /// Register the four built-in algorithms (bkws, blinks, r-clique,
  /// bidirectional) with default options at construction. Register() can
  /// later replace any of them with differently-configured instances.
  bool register_default_algorithms = true;
};

/// One query: what to search for, with which semantics, evaluated how.
struct EngineQuery {
  std::vector<LabelId> keywords;

  /// Registered algorithm name; see QueryEngine::AlgorithmNames().
  std::string algorithm = "bkws";

  /// Hierarchical-evaluation options (layer choice, top-k, verification,
  /// per-request deadline).
  EvalOptions eval;

  /// Canonicalizes the keyword list to a sorted, duplicate-free set. Keyword
  /// queries are sets (Def 2.3), so this never changes which answers exist —
  /// only the order of Answer::keyword_vertices slots. The serving layer
  /// normalizes at admission so syntactic variants share one cache entry.
  void NormalizeKeywords();
};

/// One query's outcome: the answers plus the per-query statistics the
/// breakdown figures report (layer chosen, candidates generated/verified,
/// per-phase and total wall time).
struct QueryResult {
  std::vector<Answer> answers;
  EvalBreakdown breakdown;
  double wall_ms = 0;
  std::string algorithm;
};

/// The admission checks every serving front (QueryEngine::Validate and the
/// shard coordinator) applies before it normalizes a query: InvalidArgument
/// for an empty keyword list or more than kMaxKeywords distinct keywords,
/// NotFound when `registered` says the front serves no algorithm of that
/// name, OK otherwise.
Status ValidateEngineQuery(const EngineQuery& query, bool registered);

/// The built-in algorithms, in the order the engine registers them by
/// default (QueryEngineOptions::register_default_algorithms).
inline constexpr std::string_view kDefaultAlgorithms[] = {
    "bkws", "blinks", "r-clique", "bidirectional"};

/// A default-configured instance of the built-in algorithm `name`; nullptr
/// for any other name. The engine's default registrations and the shard
/// coordinator's completion instances both come from here, so the two
/// cannot drift apart.
std::unique_ptr<KeywordSearchAlgorithm> MakeDefaultAlgorithm(
    std::string_view name);

class QueryEngine {
 public:
  /// Takes ownership of the index. The ontology the index borrows must
  /// outlive the engine.
  explicit QueryEngine(BigIndex index, QueryEngineOptions options = {});

  /// Shares an index (e.g. several engines over one index, as bench_engine
  /// does).
  explicit QueryEngine(std::shared_ptr<const BigIndex> index,
                       QueryEngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  const BigIndex& index() const { return *index_; }

  /// Registers `algorithm` under its Name(), replacing any previous
  /// registration of that name. Not thread-safe against concurrent
  /// Evaluate() — register before serving queries.
  void Register(std::unique_ptr<KeywordSearchAlgorithm> algorithm);

  /// The registered algorithm of that name, or nullptr.
  const KeywordSearchAlgorithm* algorithm(std::string_view name) const;

  /// Registered names, in registration order.
  std::vector<std::string_view> AlgorithmNames() const;

  /// Cheap admission-time validation: ValidateEngineQuery against this
  /// engine's registry. The serving layer calls this before enqueueing so
  /// malformed requests are rejected at the door instead of failing deep
  /// inside Evaluate.
  Status Validate(const EngineQuery& query) const;

  /// Evaluates one query on the calling thread. Fails with Validate()'s
  /// status for malformed queries and DeadlineExceeded when
  /// query.eval.deadline expired before or during evaluation (an expired
  /// query returns no answers, never a partial set). Safe to call
  /// concurrently from many threads.
  StatusOr<QueryResult> Evaluate(const EngineQuery& query) const;

  /// Concurrent evaluations the engine is sized for: num_threads resolved
  /// like ExecutorPool's (>= 1). The serving layer runs this many strands.
  size_t num_slots() const { return num_slots_; }

 private:
  class ContextLease;

  std::shared_ptr<const BigIndex> index_;
  size_t num_slots_;
  std::vector<std::unique_ptr<KeywordSearchAlgorithm>> algorithms_;

  // Free list of warm contexts; leased per evaluation, returned after.
  mutable std::mutex context_mutex_;
  mutable std::vector<std::unique_ptr<QueryContext>> free_contexts_;
};

}  // namespace bigindex

#endif  // BIGINDEX_ENGINE_QUERY_ENGINE_H_
