#ifndef CONGRESS_PLANNER_PLANNER_H_
#define CONGRESS_PLANNER_PLANNER_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/degradation.h"
#include "core/estimator.h"
#include "engine/query.h"
#include "planner/error_model.h"
#include "util/status.h"

namespace congress::planner {

/// Every execution strategy the planner can choose over one snapshot,
/// ordered weakest-guarantee-first; escalation on a broken promise only
/// ever moves toward kCombined / kExact. The values are contiguous:
/// per-kind tallies index arrays of kNumPlanKinds by them.
enum class PlanKind {
  kPrimarySynopsis = 0,  ///< The snapshot's configured synopsis.
  kFallbackBasic = 1,    ///< Degradation-ladder BasicCongress synopsis.
  kFallbackHouse = 2,    ///< Degradation-ladder House synopsis.
  kCombined = 3,         ///< Exact outlier strata + sampled tail, stitched.
  kExact = 4,            ///< Exact scan of the retained base relation.
};

inline constexpr size_t kNumPlanKinds = 5;
static_assert(kNumPlanKinds == static_cast<size_t>(PlanKind::kExact) + 1);

const char* PlanKindToString(PlanKind kind);

/// One scored candidate plan over the snapshot.
struct CandidateScore {
  PlanKind kind = PlanKind::kPrimarySynopsis;
  bool eligible = false;
  /// Predicted worst-group relative half-width at the promised
  /// confidence; +inf when no prediction applies.
  double predicted_relative_error = std::numeric_limits<double>::infinity();
  double predicted_cost_ms = 0.0;
  /// Predicted mean estimator variance (sample candidates only; 0 when
  /// unscored). A fallback's bound widening after a failure is derived
  /// from its ratio to the primary's.
  double mean_variance = 0.0;
  /// kCombined only: the strata answered exactly.
  std::vector<uint32_t> outlier_strata;
  /// Ineligibility reason, or a one-line model note.
  std::string detail;
};

/// The plan the scorer settled on.
struct PlanChoice {
  PlanKind kind = PlanKind::kPrimarySynopsis;
  /// Strata (indices into the primary sample's strata()) a kCombined plan
  /// answers exactly; empty otherwise.
  std::vector<uint32_t> outlier_strata;
};

/// The full EXPLAIN PLAN story: every candidate considered with its
/// score, the chosen plan, and predicted vs. promised vs. (after Run)
/// realized error.
struct PlanReport {
  std::vector<CandidateScore> candidates;
  PlanChoice chosen;
  QueryBudget budget;
  /// The chosen candidate's predicted worst-group relative half-width.
  double predicted_relative_error = 0.0;
  /// Worst realized per-group relative half-width of the delivered
  /// answer; -1 until Run() verified one.
  double realized_relative_error = -1.0;
  /// Times verification found the promise broken and re-planned up the
  /// kCombined -> kExact ladder.
  size_t escalations = 0;

  std::string ToString() const;
};

/// An answer plus the plan that produced it and, when a candidate
/// failed on the way, the story of how the walk recovered.
struct PlannedAnswer {
  ApproximateResult result;
  PlanReport report;
  /// Which rung answered after a failure and why the rungs before it
  /// failed; level kNone with an empty cause when nothing failed.
  DegradationReason degradation;
  /// Catalog epoch of the snapshot that served the answer.
  uint64_t epoch = 0;
};

/// Executes a combined plan directly: the listed outlier strata are
/// aggregated exactly from the snapshot's base relation, the remaining
/// strata are estimated from the sample with those strata excluded, and
/// the two parts are stitched per group with provenance (kExact /
/// kSampled / kCombined) and tail-only error bounds. AVG aggregates are
/// internally expanded to SUM/COUNT so the exact and sampled parts
/// combine as a ratio with propagated bounds. Exposed for the planner
/// identity oracle; `confidence` overrides the synopsis default when
/// positive.
Result<ApproximateResult> ExecuteCombinedPlan(
    const AquaSnapshot& snapshot, const GroupByQuery& query,
    const std::vector<uint32_t>& outlier_strata, double confidence = 0.0);

/// The accuracy-aware planner: scores every candidate plan over one
/// snapshot (its sample synopses, a combined plan, exact) against the
/// query's budget using the closed-form error model (error_model.h),
/// executes the cheapest plan predicted to meet the promise, then
/// verifies the realized bounds and escalates toward kCombined / kExact
/// if the promise is broken — the exact endpoint satisfies any budget,
/// so an error promise is always eventually honored when the base
/// relation is available. The same walk is the degradation ladder: a
/// candidate that fails drops out and the next one answers.
class Planner {
 public:
  /// Scores the candidates and chooses a plan without executing
  /// anything.
  Result<PlanReport> Plan(const AquaSnapshot& snapshot,
                          const GroupByQuery& query) const;

  /// The single candidate walk: plans, executes, verifies, and (if
  /// needed) escalates. Two things move it off a candidate:
  ///  - failure: a candidate whose execution fails, or whose failpoint
  ///    fires, drops out and the next one answers. Without a budget the
  ///    order is primary -> {BasicCongress, House} stably sorted by
  ///    predicted error -> exact; with one, the next best candidate for
  ///    the budget. A sample fallback answering after a failure gets its
  ///    bounds widened by sqrt(var_fallback / var_primary) of predicted
  ///    estimator variance, clamped to [1, 8].
  ///  - a broken promise: an error budget whose realized bounds miss
  ///    escalates kCombined -> kExact.
  /// With no active budget and a healthy primary this is exactly one
  /// AquaSynopsis::Answer — no candidate scoring, bit-identical results.
  /// Every candidate after the first is attempted only while `deadline`
  /// has not passed; past it the walk returns DeadlineExceeded naming
  /// the rungs it tried. Fails with Internal when every rung fails.
  ///
  /// Failpoint sites: "aqua/primary_answer", "aqua/fallback_basic",
  /// "aqua/fallback_house", "aqua/exact_rebuild".
  Result<PlannedAnswer> Run(
      const AquaSnapshot& snapshot, const GroupByQuery& query,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt) const;

 private:
  Result<ApproximateResult> Execute(const AquaSnapshot& snapshot,
                                    const GroupByQuery& query,
                                    const PlanChoice& choice) const;
};

}  // namespace congress::planner

#endif  // CONGRESS_PLANNER_PLANNER_H_
