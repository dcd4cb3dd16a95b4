#ifndef CONGRESS_ENGINE_PREDICATE_H_
#define CONGRESS_ENGINE_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/kernels.h"
#include "storage/table.h"

namespace congress {

/// A row-level filter. Implementations must be pure functions of the row
/// contents so the same predicate evaluates identically against a base
/// table and a sample table with the same schema prefix.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// True if row `row` of `table` satisfies the predicate.
  virtual bool Matches(const Table& table, size_t row) const = 0;

  /// Batch form: appends to `sel_out` every candidate row that satisfies
  /// the predicate, in candidate order. Candidates are the contiguous
  /// rows [begin, end) when `sel_in` is null, else the slice
  /// sel_in[begin..end) (ascending row indices). The result is
  /// bit-identical to calling Matches per candidate — the built-in
  /// predicates override this with typed column loops (range/compare/
  /// equals/AND over int64 and double columns); the default below runs
  /// exactly that per-row loop, so custom Predicate subclasses keep
  /// working unchanged.
  virtual void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                          const uint32_t* sel_in,
                          SelectionVector* sel_out) const;

  /// SQL-ish rendering for logging and debugging. When `schema` is
  /// non-null, columns render by name; otherwise as "colN".
  virtual std::string ToString(const Schema* schema = nullptr) const = 0;

  /// Appends every column the predicate reads to `columns` and returns
  /// true, or returns false when the columns are unknown. The default is
  /// unknown, so a custom subclass is assumed to read anything; the
  /// built-ins report their columns and AND reports the union of its
  /// children's. The estimator answers a query whose predicate reads only
  /// grouping columns from per-stratum moments (core/estimator.h).
  virtual bool CollectColumns(std::vector<size_t>* columns) const;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// Matches every row (the WHERE-less query).
PredicatePtr MakeTruePredicate();

/// Matches rows where numeric column `col` lies in [lo, hi] inclusive.
/// Works on kInt64 and kDouble columns.
PredicatePtr MakeRangePredicate(size_t col, double lo, double hi);

/// Matches rows where column `col` equals `value` exactly.
PredicatePtr MakeEqualsPredicate(size_t col, Value value);

/// Matches rows satisfying all of `children` (logical AND).
PredicatePtr MakeAndPredicate(std::vector<PredicatePtr> children);

/// Matches rows where numeric column `col` is <= `bound` (the paper's
/// "l_shipdate <= date" example from TPC-D Q1).
PredicatePtr MakeLessEqualPredicate(size_t col, double bound);

/// Comparison operators for MakeComparisonPredicate (the SQL front end's
/// WHERE conditions).
enum class CompareOp {
  kEq = 0,
  kNe = 1,
  kLt = 2,
  kLe = 3,
  kGt = 4,
  kGe = 5,
};

const char* CompareOpToString(CompareOp op);

/// Matches rows where column `col` compares to `value` under `op`.
/// Equality/inequality work on any type; ordering operators require a
/// numeric column and value.
PredicatePtr MakeComparisonPredicate(size_t col, CompareOp op, Value value);

}  // namespace congress

#endif  // CONGRESS_ENGINE_PREDICATE_H_
