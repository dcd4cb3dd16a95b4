#ifndef CONGRESS_PERFBENCH_CHECKS_H_
#define CONGRESS_PERFBENCH_CHECKS_H_

#include <string>

#include "core/estimator.h"
#include "engine/query.h"

namespace perfbench {

/// Compares two approximate answers bit for bit: same groups in the same
/// order, same keys, and identical estimate, standard-error and bound
/// doubles (compared as bytes, so -0.0 vs 0.0 or a one-ulp change fails),
/// support and provenance. Returns an empty string when equal, else the
/// first difference.
std::string DiffAnswers(const congress::ApproximateResult& expected,
                        const congress::ApproximateResult& got);

/// Accuracy of one approximate answer against the exact answer on the same
/// snapshot, over the (group, aggregate) cells of the exact answer.
struct Accuracy {
  /// Sum over cells of the Definition 3.1 per-group relative error in
  /// percent (a group the approximate answer misses counts 100%).
  double error_pct_sum = 0.0;
  size_t cells = 0;
  /// Cells whose exact value lies within estimate +/- bound. A group the
  /// approximate answer misses counts as not covered.
  size_t covered = 0;
};
Accuracy ScoreAnswer(const congress::QueryResult& exact,
                     const congress::ApproximateResult& approx);

}  // namespace perfbench

#endif  // CONGRESS_PERFBENCH_CHECKS_H_
