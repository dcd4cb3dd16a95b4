#include "testing/query_gen.h"

#include <algorithm>
#include <utility>

#include "engine/predicate.h"

namespace congress::testing {

namespace {

std::string AggregateSql(const AggregateSpec& spec, const Schema& schema) {
  if (spec.kind == AggregateKind::kCount) return "COUNT(*)";
  const char* fn = spec.kind == AggregateKind::kSum ? "SUM" : "AVG";
  return std::string(fn) + "(" + schema.field(spec.column).name + ")";
}

std::string IntLiteral(int64_t v) { return std::to_string(v); }

}  // namespace

GeneratedQuery RandomQuery(const Schema& schema,
                           const std::vector<size_t>& grouping_columns,
                           const std::vector<size_t>& numeric_columns,
                           const std::string& table_name,
                           const QueryGenConfig& config, Random* rng) {
  GeneratedQuery out;
  GroupByQuery& q = out.query;

  // GROUP BY: the finest grouping, or a random (possibly empty) subset in
  // schema order — the paper's "every group-by over the grouping
  // columns" promise means roll-ups must work too.
  if (rng->Bernoulli(config.rollup_probability)) {
    for (size_t col : grouping_columns) {
      if (rng->Bernoulli(0.5)) q.group_columns.push_back(col);
    }
  } else {
    q.group_columns = grouping_columns;
  }

  // Aggregates: distinct (kind, column) pairs so a HAVING reference is
  // unambiguous when the binder matches by kind + column.
  std::vector<std::pair<AggregateKind, size_t>> candidates;
  candidates.emplace_back(AggregateKind::kCount, size_t{0});
  for (size_t col : numeric_columns) {
    candidates.emplace_back(AggregateKind::kSum, col);
    candidates.emplace_back(AggregateKind::kAvg, col);
  }
  rng->Shuffle(&candidates);
  const size_t num_aggs = 1 + static_cast<size_t>(rng->UniformInt(
                                  std::min(config.max_aggregates,
                                           candidates.size())));
  for (size_t i = 0; i < num_aggs; ++i) {
    q.aggregates.emplace_back(candidates[i].first, candidates[i].second);
  }

  // WHERE: up to two flat conjuncts from the parser-supported subset
  // (column op integer-literal, column BETWEEN lo AND hi). Literals stay
  // non-negative integers so the SQL rendering is trivially exact.
  std::vector<std::string> where_sql;
  std::vector<PredicatePtr> conjuncts;
  if (rng->Bernoulli(config.predicate_probability)) {
    const size_t num_conds = 1 + static_cast<size_t>(rng->UniformInt(2));
    for (size_t i = 0; i < num_conds; ++i) {
      const std::vector<size_t>& targets = config.grouping_predicates_only
                                                ? grouping_columns
                                                : numeric_columns;
      size_t col = targets[rng->UniformInt(targets.size())];
      const std::string& name = schema.field(col).name;
      switch (rng->UniformInt(3)) {
        case 0: {  // BETWEEN on a numeric column.
          int64_t lo = static_cast<int64_t>(rng->UniformInt(50));
          int64_t hi = lo + 1 + static_cast<int64_t>(rng->UniformInt(1000));
          conjuncts.push_back(MakeRangePredicate(
              col, static_cast<double>(lo), static_cast<double>(hi)));
          where_sql.push_back(name + " BETWEEN " + IntLiteral(lo) + " AND " +
                              IntLiteral(hi));
          break;
        }
        case 1: {  // Ordering comparison.
          const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
          CompareOp op = ops[rng->UniformInt(4)];
          int64_t bound = static_cast<int64_t>(rng->UniformInt(100));
          conjuncts.push_back(
              MakeComparisonPredicate(col, op, Value(bound)));
          where_sql.push_back(name + " " + CompareOpToString(op) + " " +
                              IntLiteral(bound));
          break;
        }
        default: {  // Equality / inequality on a grouping column.
          size_t gcol =
              grouping_columns[rng->UniformInt(grouping_columns.size())];
          CompareOp op = rng->Bernoulli(0.5) ? CompareOp::kEq : CompareOp::kNe;
          int64_t v = static_cast<int64_t>(rng->UniformInt(4));
          conjuncts.push_back(
              MakeComparisonPredicate(gcol, op, Value(v)));
          where_sql.push_back(schema.field(gcol).name + " " +
                              CompareOpToString(op) + " " + IntLiteral(v));
          break;
        }
      }
    }
    q.predicate = conjuncts.size() == 1 ? conjuncts[0]
                                        : MakeAndPredicate(conjuncts);
  }

  // HAVING: one ordering condition on the first aggregate (its
  // (kind, column) pair is unique in the SELECT list by construction).
  std::string having_sql;
  if (rng->Bernoulli(config.having_probability)) {
    HavingCondition cond;
    cond.aggregate_index = 0;
    const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                             CompareOp::kGe};
    cond.op = ops[rng->UniformInt(4)];
    int64_t threshold = 0;
    switch (q.aggregates[0].kind) {
      case AggregateKind::kCount:
        threshold = 1 + static_cast<int64_t>(rng->UniformInt(64));
        break;
      case AggregateKind::kAvg:
        threshold = 1 + static_cast<int64_t>(rng->UniformInt(100));
        break;
      default:
        threshold = 1 + static_cast<int64_t>(rng->UniformInt(20000));
        break;
    }
    cond.value = static_cast<double>(threshold);
    q.having.push_back(cond);
    having_sql = AggregateSql(q.aggregates[0], schema) + " " +
                 CompareOpToString(cond.op) + " " + IntLiteral(threshold);
  }

  // Independent SQL rendering of the same choices.
  std::string sql = "SELECT ";
  bool first = true;
  for (size_t col : q.group_columns) {
    if (!first) sql += ", ";
    sql += schema.field(col).name;
    first = false;
  }
  for (const AggregateSpec& spec : q.aggregates) {
    if (!first) sql += ", ";
    sql += AggregateSql(spec, schema);
    first = false;
  }
  sql += " FROM " + table_name;
  for (size_t i = 0; i < where_sql.size(); ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += where_sql[i];
  }
  if (!q.group_columns.empty()) {
    sql += " GROUP BY ";
    for (size_t i = 0; i < q.group_columns.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += schema.field(q.group_columns[i]).name;
    }
  }
  if (!having_sql.empty()) sql += " HAVING " + having_sql;
  out.sql = std::move(sql);
  return out;
}

}  // namespace congress::testing
