#ifndef CONGRESS_CORE_ESTIMATOR_H_
#define CONGRESS_CORE_ESTIMATOR_H_

#include <string>
#include <vector>

#include "engine/query.h"
#include "sampling/moments.h"
#include "sampling/stratified_sample.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

/// How the per-group error bound is derived from the estimator variance
/// (Aqua supports Hoeffding and Chebyshev bounds; the standard error is
/// exposed for analysis).
enum class BoundMethod {
  kStandardError = 0,  ///< Half-width = 1 standard error (~68% normal).
  kChebyshev = 1,      ///< Half-width = stderr / sqrt(1 - confidence).
  kHoeffding = 2,      ///< Distribution-free; needs a value range, so it
                       ///< falls back to Chebyshev for AVG.
};

const char* BoundMethodToString(BoundMethod method);

/// Options controlling approximate answers.
struct EstimatorOptions {
  double confidence = 0.90;  ///< Aqua's default confidence level.
  BoundMethod bound_method = BoundMethod::kChebyshev;
  /// Strata (indices into sample.strata()) whose rows are skipped
  /// entirely — the planner's combined plans answer these outlier strata
  /// exactly and take only the tail from the sample. Empty (the default)
  /// estimates over the full sample, bit-identically to builds that
  /// predate this option.
  std::vector<uint32_t> excluded_strata;
};

/// Where one output group's numbers came from. Pure sampled estimates
/// are the default; the planner's combined plans mark groups answered
/// exactly (outlier strata, or exact fallback) and groups stitched from
/// both an exact part and a sampled tail.
enum class GroupProvenance : uint8_t {
  kSampled = 0,   ///< Stratified expansion estimate with error bounds.
  kExact = 1,     ///< Exact aggregation; zero-width bounds.
  kCombined = 2,  ///< Exact outlier part + sampled tail, stitched.
};

const char* GroupProvenanceToString(GroupProvenance provenance);

/// One output group of an approximate answer: the scaled estimates plus,
/// per aggregate, the standard error and the half-width error bound at
/// the configured confidence.
struct ApproximateGroupRow {
  GroupKey key;
  std::vector<double> estimates;
  std::vector<double> std_errors;
  std::vector<double> bounds;
  uint64_t support = 0;  ///< Sample tuples contributing to this group.
  GroupProvenance provenance = GroupProvenance::kSampled;
};

/// An approximate group-by answer with error bounds. Convertible to a
/// plain QueryResult (estimates only) for error-metric comparison against
/// exact answers.
class ApproximateResult {
 public:
  void Add(ApproximateGroupRow row);
  size_t num_groups() const { return rows_.size(); }
  const std::vector<ApproximateGroupRow>& rows() const { return rows_; }
  /// The group with `key`, or null: a binary search once the rows are in
  /// key order, a linear scan before.
  const ApproximateGroupRow* Find(const GroupKey& key) const;
  void SortByKey();

  /// Drops groups whose *estimated* aggregates fail any HAVING condition
  /// (an approximate HAVING: groups near the threshold may be mis-kept
  /// or mis-dropped, with likelihood governed by the group's bound).
  void FilterHaving(const std::vector<HavingCondition>& having);

  /// Drops the bounds, keeping just the point estimates.
  QueryResult ToQueryResult() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  std::vector<ApproximateGroupRow> rows_;
  bool sorted_ = true;  ///< rows_ are in ascending key order.
};

/// Finishes one aggregate of one output group from the group's stratum
/// terms, folded in ascending stratum order: SUM and COUNT read their
/// expansion sums, AVG is their ratio with a delta-method variance, and
/// the half-width follows the bound method at the confidence. The
/// estimator and the planner's error model (planner/error_model.h) both
/// finish through it, so a prediction made from the same terms is the
/// realized bound.
class BoundModel {
 public:
  BoundModel(BoundMethod method, double confidence);

  struct Estimate {
    double value = 0.0;
    double std_error = 0.0;
    double bound = 0.0;
  };
  Estimate Finish(AggregateKind kind, const StratumTerms& terms) const;

 private:
  BoundMethod method_;
  double chebyshev_;     ///< 1/sqrt(1 - confidence).
  double hoeffding_ln_;  ///< ln(2/(1 - confidence))/2.
};

/// Computes an unbiased approximate answer to `query` from a stratified
/// sample, using the standard stratified expansion estimators of Section
/// 5.1: each sampled tuple is weighted by its stratum's ScaleFactor; SUM
/// scales values, COUNT sums scale factors, AVG is the ratio of the two
/// (with a delta-method variance). Error bounds are per group, per
/// aggregate.
///
/// Groups with no sampled tuples do not appear in the answer (the
/// uniform-sample failure mode the paper's Figure 4 illustrates).
///
/// This is the sample scan: it interns the output groups, accumulates
/// each group's per-stratum cells over its rows in ascending row order,
/// morsel-parallel per `execution`, and folds the cells' terms
/// (ComputeStratumTerms) in ascending stratum order; estimates are
/// bit-identical to the serial path for every thread count.
Result<ApproximateResult> EstimateGroupBy(
    const StratifiedSample& sample, const GroupByQuery& query,
    const EstimatorOptions& options = EstimatorOptions{},
    const ExecutorOptions& execution = {});

/// Whether `query` is a stratum roll-up of `sample`: it groups by a
/// subset of the sample's grouping columns, every aggregate is COUNT or
/// a SUM/AVG over a plain numeric column, and its predicate (if any)
/// reads only grouping columns (Predicate::CollectColumns). Strata are
/// the finest groups and such a predicate is constant within a stratum,
/// so every output group is a union of whole strata.
bool IsStratumRollup(const StratifiedSample& sample,
                     const GroupByQuery& query);

/// Answers a stratum roll-up from `moments` (computed from `sample`)
/// without reading sample rows beyond one per stratum for the predicate:
/// O(#strata x #aggregates), or O(#groups x #aggregates) with no
/// predicate and no excluded strata. Bit-identical to EstimateGroupBy on
/// the same query, which feeds the same term function the same sums in
/// the same order. InvalidArgument when `query` is not a roll-up.
Result<ApproximateResult> EstimateRollup(
    const StratifiedSample& sample, const SampleMoments& moments,
    const GroupByQuery& query,
    const EstimatorOptions& options = EstimatorOptions{},
    const ExecutorOptions& execution = {});

}  // namespace congress

#endif  // CONGRESS_CORE_ESTIMATOR_H_
