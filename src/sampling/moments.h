#ifndef CONGRESS_SAMPLING_MOMENTS_H_
#define CONGRESS_SAMPLING_MOMENTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sampling/stratified_sample.h"

namespace congress {

/// Running moments of one numeric column inside one stratum of a
/// stratified sample: everything the stratified expansion estimator
/// (the paper's §5.1) needs, without touching the sampled rows again at
/// query time.
struct ColumnMoments {
  uint64_t count = 0;    ///< Sampled tuples of this stratum.
  double sum = 0.0;      ///< Σ v over the sampled tuples.
  double sum_sq = 0.0;   ///< Σ v² over the sampled tuples.
  double max_abs = 0.0;  ///< max |v|, for Hoeffding-style ranges.
};

/// What one stratum contributes to one aggregate of one output group of
/// the stratified expansion estimator. A group's answer is the sum of its
/// strata's terms, folded in ascending stratum index; the estimator's
/// bound model (core/estimator.h) turns the sum into an estimate and an
/// error bound.
struct StratumTerms {
  double est_sum = 0.0;   ///< sf·Σv: the stratum's share of the SUM.
  double est_cnt = 0.0;   ///< sf·m: its share of the COUNT.
  double var_sum = 0.0;   ///< N(N−n)S²/n of the SUM variable.
  double var_cnt = 0.0;   ///< N(N−n)S²/n of the COUNT variable.
  double cov = 0.0;       ///< N(N−n)·cov(SUM, COUNT)/n, for AVG.
  double hoeff_c2 = 0.0;  ///< n·(sf·max|v|)²: Hoeffding squared ranges.
  uint64_t support = 0;   ///< m: sampled tuples contributing.

  void Add(const StratumTerms& o) {
    est_sum += o.est_sum;
    est_cnt += o.est_cnt;
    var_sum += o.var_sum;
    var_cnt += o.var_cnt;
    cov += o.cov;
    hoeff_c2 += o.hoeff_c2;
    support += o.support;
  }
};

/// The per-stratum term function, the only place the estimator's
/// per-stratum statistics are computed. `count` of the stratum's n
/// sampled tuples contribute, with Σv = `sum_v`, Σv² = `sum_v2` and
/// max|v| = `max_abs` over them; the other n − count draws contribute
/// zero, so S² and the covariance run over all n draws. COUNT(*) is the
/// variable v = 1. The sample scan calls it with a group's cell sums, the
/// moments path and the planner's error model with frozen moments.
StratumTerms ComputeStratumTerms(const Stratum& stratum, uint64_t count,
                                 double sum_v, double sum_v2, double max_abs);

/// One roll-up of a sample's grouping: the strata projected onto the
/// grouping-key positions `key_positions`, with output groups numbered in
/// ascending key order, and each group's terms pre-folded over all of
/// its strata in ascending stratum order.
struct StratumRollup {
  std::vector<size_t> key_positions;
  std::vector<uint32_t> group_of;  ///< Stratum index → group id.
  /// Group id → output key, ascending. A key is read from the group's
  /// first sampled row, as a scan of the sample keys it.
  std::vector<GroupKey> keys;
  std::vector<StratumTerms> count_terms;  ///< Per group, COUNT(*) terms.
  /// Per column slot and group: column_terms[slot * num_groups() + g].
  std::vector<StratumTerms> column_terms;

  size_t num_groups() const { return keys.size(); }
};

namespace internal {
struct RollupCache;
}  // namespace internal

/// Per-stratum, per-numeric-column moments for a stratified sample,
/// computed once at synopsis build time (one pass over the sampled rows)
/// so roll-ups are answered and candidate synopses scored without any
/// row access. Strata follow sample.strata() order; columns follow
/// numeric_columns() order (the base schema's numeric columns,
/// ascending). Per stratum the values are folded in ascending row order,
/// as the sample scan folds them.
class SampleMoments {
 public:
  /// The slot of COUNT(*) in TermsOf().
  static constexpr size_t kCountSlot = SIZE_MAX;
  /// first_row() of a stratum with no sampled tuple.
  static constexpr uint32_t kNoRow = UINT32_MAX;

  SampleMoments();

  /// One pass over `sample.rows()`: accumulates moments for every
  /// numeric (kInt64/kDouble) column of the base schema.
  static SampleMoments Compute(const StratifiedSample& sample);

  /// Base-schema indices of the covered columns, ascending.
  const std::vector<size_t>& numeric_columns() const {
    return numeric_columns_;
  }

  size_t num_strata() const { return rows_.size(); }

  /// Sampled tuples of stratum `stratum`.
  uint64_t rows(size_t stratum) const { return rows_[stratum]; }

  /// The lowest sample row of stratum `stratum`, kNoRow if it has none.
  /// Every row of a stratum holds the same grouping values, so this row
  /// stands for the stratum when a predicate reads grouping columns only.
  uint32_t first_row(size_t stratum) const { return first_row_[stratum]; }

  /// Slot of `column` in numeric_columns() order, SIZE_MAX if uncovered.
  size_t SlotOf(size_t column) const {
    return column < column_slot_.size() ? column_slot_[column] : SIZE_MAX;
  }

  /// Total Σv² of `column` across all strata (0 for uncovered columns):
  /// the planner's proxy-column dispersion ranking, precomputed so proxy
  /// selection never rescans the strata.
  double TotalSumSq(size_t column) const;

  /// The terms stratum `s` (described by `stratum`) contributes when all
  /// its sampled tuples count: to COUNT(*) when `slot` is kCountSlot,
  /// else to an aggregate over the column in `slot`.
  StratumTerms TermsOf(const Stratum& stratum, size_t s, size_t slot) const;

  /// The roll-up selecting `key_positions` from each stratum key (empty =
  /// one global group). `sample` MUST be the sample these moments were
  /// computed from. Thread-safe: the first call per roll-up builds it
  /// under a lock; later calls find it without taking one. The returned
  /// reference stays valid for the lifetime of this object and its
  /// copies.
  const StratumRollup& Rollup(const StratifiedSample& sample,
                              const std::vector<size_t>& key_positions) const;

 private:
  std::vector<size_t> numeric_columns_;
  std::vector<size_t> column_slot_;  ///< base column -> slot, SIZE_MAX if none.
  std::vector<double> total_sum_sq_;  ///< Per slot: Σv² over all strata.
  std::vector<uint64_t> rows_;        ///< Per stratum: sampled tuples.
  std::vector<uint32_t> first_row_;   ///< Per stratum: lowest sample row.
  /// per_stratum_[s][slot] — moments of numeric_columns_[slot] in stratum s.
  std::vector<std::vector<ColumnMoments>> per_stratum_;
  /// Memoized roll-ups, shared across copies (copies describe the same
  /// sample).
  std::shared_ptr<internal::RollupCache> cache_;
};

}  // namespace congress

#endif  // CONGRESS_SAMPLING_MOMENTS_H_
