#ifndef CONGRESS_CORE_DEGRADATION_H_
#define CONGRESS_CORE_DEGRADATION_H_

#include <string>

#include "core/estimator.h"

namespace congress {

/// How far down the answer ladder a resilient query had to walk when its
/// primary synopsis could not answer. Each rung trades group-level
/// accuracy guarantees for availability:
///   kNone          — the configured synopsis answered; nothing degraded.
///   kBasicCongress — answered from a BasicCongress synopsis rebuilt from
///                    the retained base relation (weaker sub-grouping
///                    guarantees than full Congress).
///   kHouse         — answered from a uniform House sample (small groups
///                    may be badly estimated or missing entirely).
///   kExactRebuild  — all sampling rungs failed; the answer is an exact
///                    scan of the base relation (slow but always right).
enum class DegradationLevel {
  kNone = 0,
  kBasicCongress = 1,
  kHouse = 2,
  kExactRebuild = 3,
};

const char* DegradationLevelToString(DegradationLevel level);

/// Machine-readable account of a degraded answer: which rung served it,
/// why every rung above failed, and the factor by which the reported
/// error bounds were widened to reflect the weaker strategy.
struct DegradationReason {
  DegradationLevel level = DegradationLevel::kNone;
  /// "rung: Status; rung: Status; ..." for each rung that failed, in
  /// walk order. Empty when nothing failed.
  std::string cause;
  /// Multiplier applied to every std_error and bound in the answer
  /// (1.0 for kNone; exact answers carry zero-width bounds).
  double bound_widening = 1.0;

  /// A failure moved the answer off its planned candidate. Usually the
  /// level says where to; a budgeted walk can also land on a candidate
  /// outside the ladder's rungs (level kNone, cause set).
  bool degraded() const {
    return level != DegradationLevel::kNone || !cause.empty();
  }
  std::string ToString() const;
};

/// An exact answer wearing the approximate-answer interface: the point
/// estimates are the truth and every bound is zero-width. Used by the
/// ladder's exact rung and the serving front-end's exact mode.
ApproximateResult ExactAsApproximate(const QueryResult& exact);

}  // namespace congress

#endif  // CONGRESS_CORE_DEGRADATION_H_
