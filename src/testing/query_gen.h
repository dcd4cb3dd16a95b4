#ifndef CONGRESS_TESTING_QUERY_GEN_H_
#define CONGRESS_TESTING_QUERY_GEN_H_

#include <string>
#include <vector>

#include "engine/query.h"
#include "storage/schema.h"
#include "util/random.h"

namespace congress::testing {

/// Knobs for the random query generator.
struct QueryGenConfig {
  /// Probability that the query carries a WHERE clause.
  double predicate_probability = 0.5;
  /// Probability that the query carries a HAVING clause.
  double having_probability = 0.25;
  /// SELECT list holds 1..max_aggregates aggregates.
  size_t max_aggregates = 3;
  /// Probability that the grouping is a strict subset of the grouping
  /// columns (a roll-up); 0 always groups at the finest grouping. The
  /// empty grouping (single global group) is also drawn from this.
  double rollup_probability = 0.5;
  /// Every WHERE conjunct (range, ordering or equality) reads a grouping
  /// column, so each query is a stratum roll-up (core/estimator.h) of a
  /// sample stratified on those columns.
  bool grouping_predicates_only = false;
};

/// A generated query in both representations the SQL differential oracle
/// compares: the programmatically built plan and independently rendered
/// SQL text for the parser. The two are constructed side by side from the
/// same random choices, never derived from each other.
struct GeneratedQuery {
  GroupByQuery query;
  std::string sql;
};

/// Draws a random group-by/aggregate/predicate/HAVING query over
/// `schema`. `grouping_columns` are the candidate GROUP BY columns;
/// `numeric_columns` the candidate aggregate arguments and predicate
/// targets (all must be kInt64 or kDouble). Stays inside the SQL
/// front end's supported subset, so ParseQuery(sql) must bind cleanly —
/// a parse or bind failure on generated SQL is itself an oracle failure.
GeneratedQuery RandomQuery(const Schema& schema,
                           const std::vector<size_t>& grouping_columns,
                           const std::vector<size_t>& numeric_columns,
                           const std::string& table_name,
                           const QueryGenConfig& config, Random* rng);

}  // namespace congress::testing

#endif  // CONGRESS_TESTING_QUERY_GEN_H_
