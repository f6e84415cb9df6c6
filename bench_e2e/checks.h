// Correctness checks: answers that come over the wire must equal a
// reference engine's answers after the same text round trip.

#ifndef BENCH_E2E_CHECKS_H_
#define BENCH_E2E_CHECKS_H_

#include <cstdint>
#include <vector>

#include "bigindex.h"

namespace bench_e2e {

enum class Compare {
  kFull,      // every field of every answer, in rank order
  kIdentity,  // sorted (root, keyword vertices, score): witnesses may differ
};

/// True iff `got` matches `want` under `mode`.
bool SameAnswers(const std::vector<bigindex::Answer>& got,
                 const std::vector<bigindex::Answer>& want, Compare mode);

struct CheckCase {
  bigindex::EngineQuery query;
  Compare mode = Compare::kFull;
};

/// Sends every case to the server on `port` and compares its answers with
/// `reference.Evaluate`. The first mismatch or failed request is returned
/// as an error naming the query.
bigindex::Status CheckOverWire(uint16_t port,
                               const bigindex::QueryEngine& reference,
                               const std::vector<CheckCase>& cases);

/// Shows the comparator can fail: for the first case with at least two
/// reference answers, a set with one answer dropped and a set with one score
/// changed must both be rejected in both modes.
bigindex::Status NegativeControl(const bigindex::QueryEngine& reference,
                                 const std::vector<CheckCase>& cases);

}  // namespace bench_e2e

#endif  // BENCH_E2E_CHECKS_H_
