#ifndef CONGRESS_SAMPLING_STRATIFIED_SAMPLE_H_
#define CONGRESS_SAMPLING_STRATIFIED_SAMPLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "storage/value.h"
#include "util/status.h"

namespace congress {

/// One stratum of a biased sample: a group at the finest grouping G, its
/// population in the base relation, and how many of its tuples are in the
/// sample. The per-tuple ScaleFactor of Section 5 is the inverse of the
/// stratum's sampling rate.
struct Stratum {
  GroupKey key;
  uint64_t population = 0;    ///< n_g: tuples of this group in the relation.
  uint64_t sample_count = 0;  ///< Tuples of this group in the sample.

  double SamplingRate() const {
    return population == 0
               ? 0.0
               : static_cast<double>(sample_count) /
                     static_cast<double>(population);
  }
  double ScaleFactor() const {
    return sample_count == 0
               ? 0.0
               : static_cast<double>(population) /
                     static_cast<double>(sample_count);
  }
};

/// A precomputed biased sample of a relation, stratified on the finest
/// grouping G: the library's synopsis format. Holds the sampled rows
/// (same schema as the base relation), a per-row stratum id, and the
/// strata metadata needed for unbiased scaling and error bounds.
///
/// The four rewrite strategies of Section 5 consume different physical
/// materializations of this object (SampRel with an inline SF column,
/// SampRel + AuxRel, SampRel + GID + AuxRel), built once via the
/// Materialize* methods.
class StratifiedSample {
 public:
  StratifiedSample() = default;

  /// Creates an empty sample over `base_schema`, stratified on
  /// `grouping_columns` (base-table column indices).
  StratifiedSample(Schema base_schema, std::vector<size_t> grouping_columns);

  /// Declares a stratum with its base-relation population. Idempotent on
  /// the key only if the population matches.
  Status DeclareStratum(const GroupKey& key, uint64_t population);

  /// Appends row `base_row` of `base` to the sample. The row's stratum is
  /// derived from its grouping-column values and must have been declared.
  Status Append(const Table& base, size_t base_row);

  /// Appends an explicit row (used by the maintainers, which own their
  /// copies of tuples). The stratum is derived from the row values.
  Status AppendRowValues(const std::vector<Value>& row);

  /// Append() and AppendRowValues() for a caller that already knows the
  /// row's stratum index (the builders and maintainers, which append
  /// stratum by stratum): the row is not re-keyed. Its grouping values
  /// must equal strata()[stratum].key (asserted in debug builds).
  Status AppendToStratum(const Table& base, size_t base_row, size_t stratum);
  Status AppendRowValuesToStratum(const std::vector<Value>& row,
                                  size_t stratum);

  /// Pre-sizes the row store for `rows` sampled tuples.
  void Reserve(size_t rows);

  const Schema& base_schema() const { return rows_.schema(); }
  const std::vector<size_t>& grouping_columns() const {
    return grouping_columns_;
  }

  /// The sampled tuples (SampRel without any scale-factor column).
  const Table& rows() const { return rows_; }
  size_t num_rows() const { return rows_.num_rows(); }

  const std::vector<Stratum>& strata() const { return strata_; }
  /// Per-sample-row stratum index into strata().
  const std::vector<uint32_t>& row_strata() const { return row_strata_; }

  /// Stratum index for a finest group key, or error.
  Result<size_t> StratumIndex(const GroupKey& key) const;

  /// Total population across strata (= base relation size if every group
  /// was declared).
  uint64_t total_population() const { return total_population_; }

  /// --- Materializations for the Section 5 rewrite strategies ---

  /// SampRel with an appended double column "sf" holding each tuple's
  /// ScaleFactor (Figure 8; used by Integrated and Nested-Integrated).
  Table MaterializeIntegrated() const;

  /// AuxRel keyed by the grouping columns: one row per stratum with the
  /// grouping values plus "sf" (Figure 9; used by Normalized, joined on
  /// the grouping columns).
  Table MaterializeAuxNormalized() const;

  /// SampRel with an appended int64 "gid" column, plus AuxRel (gid, sf)
  /// (Figure 10; used by Key-Normalized, joined on the single gid key).
  struct KeyNormalizedForm {
    Table samp_rel;  ///< base columns + gid.
    Table aux_rel;   ///< (gid, sf).
  };
  KeyNormalizedForm MaterializeKeyNormalized() const;

  std::string ToString() const;

 private:
  std::vector<size_t> grouping_columns_;
  Table rows_;
  std::vector<uint32_t> row_strata_;
  std::vector<Stratum> strata_;
  std::unordered_map<GroupKey, size_t, GroupKeyHash> stratum_index_;
  uint64_t total_population_ = 0;
};

}  // namespace congress

#endif  // CONGRESS_SAMPLING_STRATIFIED_SAMPLE_H_
