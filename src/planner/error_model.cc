#include "planner/error_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace congress::planner {

namespace {

/// Floor for relative-error denominators: a predicted estimate of exactly
/// zero with a non-zero bound reads as "relative error unbounded".
constexpr double kEstimateFloor = 1e-9;

constexpr StratumTerms kZeroTerms{};

}  // namespace

Result<ErrorPrediction> PredictSampleError(
    const AquaSynopsis& synopsis, const GroupByQuery& query, double confidence,
    const std::vector<uint32_t>& excluded_strata) {
  if (confidence <= 0.0 || confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::InvalidArgument(
          "MIN/MAX have no unbiased sampling estimator; use ExecuteExact");
    }
  }

  const StratifiedSample& sample = synopsis.sample();
  const SampleMoments& moments = synopsis.moments();
  const std::vector<Stratum>& strata = sample.strata();

  ErrorPrediction prediction;
  if (strata.empty()) return prediction;
  if (query.HasPredicate()) prediction.exact_model = false;

  for (uint32_t s : excluded_strata) {
    if (s >= strata.size()) {
      return Status::InvalidArgument("excluded stratum out of range");
    }
  }

  // Map each stratum to the output group the model predicts for it. The
  // stratum key is the finest-grouping key; when every query grouping
  // column appears in the synopsis grouping, the output key is its
  // projection. Otherwise the strata cannot be split and the model
  // collapses to one global group (the empty roll-up).
  const std::vector<size_t>& synopsis_grouping = sample.grouping_columns();
  std::vector<size_t> key_positions;
  bool projectable = true;
  for (size_t col : query.group_columns) {
    auto it =
        std::find(synopsis_grouping.begin(), synopsis_grouping.end(), col);
    if (it == synopsis_grouping.end()) {
      projectable = false;
      break;
    }
    key_positions.push_back(
        static_cast<size_t>(it - synopsis_grouping.begin()));
  }
  if (!projectable) {
    prediction.exact_model = false;
    key_positions.clear();
  }

  // Every per-(group, column) sum the model needs is pre-folded and
  // memoized per roll-up inside the moments — the same sums the
  // estimator answers a predicate-free roll-up from — so scoring is
  // O(#groups x #aggregates); only the few excluded strata of a combined
  // plan are revisited individually below.
  const StratumRollup& rollup = moments.Rollup(sample, key_positions);

  // Proxy moments column for expression aggregates: the most dispersed
  // non-grouping numeric column (largest total sum of squares). There are
  // no per-expression moments, so this is a ranking approximation.
  size_t proxy_column = SIZE_MAX;
  bool has_expression = false;
  for (const AggregateSpec& spec : query.aggregates) {
    has_expression = has_expression || spec.expression != nullptr;
  }
  if (has_expression) {
    double best = -1.0;
    for (size_t col : moments.numeric_columns()) {
      if (std::find(synopsis_grouping.begin(), synopsis_grouping.end(), col) !=
          synopsis_grouping.end()) {
        continue;
      }
      const double total = moments.TotalSumSq(col);
      if (total > best) {
        best = total;
        proxy_column = col;
      }
    }
    if (proxy_column == SIZE_MAX && !moments.numeric_columns().empty()) {
      proxy_column = moments.numeric_columns().front();
    }
  }

  const BoundModel model(synopsis.config().estimator.bound_method,
                         confidence);
  const size_t g_count = rollup.num_groups();

  double sum_relative = 0.0;
  double sum_variance = 0.0;
  size_t cells = 0;
  std::vector<StratumTerms> excluded;
  for (const AggregateSpec& spec : query.aggregates) {
    size_t column = spec.column;
    if (spec.expression != nullptr) {
      if (proxy_column == SIZE_MAX) continue;
      column = proxy_column;
      prediction.exact_model = false;
    }
    // COUNT(*) reads the count terms; a column without moments (a
    // string, which no valid aggregate reads) predicts nothing.
    const bool count_agg = spec.kind == AggregateKind::kCount;
    const size_t slot =
        count_agg ? SampleMoments::kCountSlot : moments.SlotOf(column);
    const bool covered = count_agg || slot != SIZE_MAX;
    auto grouped = [&](size_t g) -> const StratumTerms& {
      if (!covered) return kZeroTerms;
      return count_agg ? rollup.count_terms[g]
                       : rollup.column_terms[slot * g_count + g];
    };

    // Strata a combined plan answers exactly keep their estimate but
    // contribute zero variance: subtract their variance terms from the
    // grouped sums.
    if (!excluded_strata.empty()) {
      excluded.assign(g_count, StratumTerms{});
      for (uint32_t s : excluded_strata) {
        if (!covered || moments.rows(s) == 0) continue;
        excluded[rollup.group_of[s]].Add(moments.TermsOf(strata[s], s, slot));
      }
    }

    for (size_t g = 0; g < g_count; ++g) {
      StratumTerms t = grouped(g);
      if (!excluded_strata.empty()) {
        t.var_sum = std::max(0.0, t.var_sum - excluded[g].var_sum);
        t.var_cnt = std::max(0.0, t.var_cnt - excluded[g].var_cnt);
        t.cov -= excluded[g].cov;
        t.hoeff_c2 = std::max(0.0, t.hoeff_c2 - excluded[g].hoeff_c2);
      }
      const BoundModel::Estimate e = model.Finish(spec.kind, t);
      const double relative =
          e.bound / std::max(std::fabs(e.value), kEstimateFloor);
      prediction.max_relative_bound =
          std::max(prediction.max_relative_bound, relative);
      sum_relative += relative;
      sum_variance += e.std_error * e.std_error;
      ++cells;
    }
  }
  prediction.num_groups = g_count;
  if (cells > 0) {
    prediction.mean_relative_bound = sum_relative / static_cast<double>(cells);
    prediction.mean_variance = sum_variance / static_cast<double>(cells);
  }
  return prediction;
}

Status FleetEligibility(const GroupByQuery& query,
                        const std::vector<size_t>& synopsis_grouping) {
  if (query.HasPredicate()) {
    return Status::FailedPrecondition(
        "fleet summaries carry no per-tuple detail to evaluate a predicate");
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::FailedPrecondition(
          "fleet summaries answer SUM/COUNT/AVG only");
    }
    if (spec.expression != nullptr) {
      return Status::FailedPrecondition(
          "fleet summaries pre-aggregate plain columns, not expressions");
    }
  }
  for (size_t col : query.group_columns) {
    if (std::find(synopsis_grouping.begin(), synopsis_grouping.end(), col) ==
        synopsis_grouping.end()) {
      return Status::FailedPrecondition(
          "query grouping refines the synopsis grouping; fleet summaries "
          "answer roll-ups only");
    }
  }
  return Status::OK();
}

Status JoinSampleEligibility(const StarSchema& schema,
                             const GroupByQuery& query) {
  if (schema.fact == nullptr) {
    return Status::InvalidArgument("star schema has no fact table");
  }
  auto widened = WidenedSchema(schema);
  if (!widened.ok()) return widened.status();
  const size_t num_widened = widened->num_fields();
  const size_t num_fact = schema.fact->num_columns();
  for (size_t col : query.group_columns) {
    if (col >= num_widened) {
      return Status::InvalidArgument(
          "grouping column out of range of the widened relation");
    }
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::FailedPrecondition(
          "MIN/MAX have no unbiased join-sample estimator");
    }
    if (spec.kind == AggregateKind::kCount) continue;
    if (spec.expression != nullptr) {
      return Status::FailedPrecondition(
          "expression aggregates cannot be proven fact-only; join-sample "
          "answers require fact-table measures");
    }
    if (spec.column >= num_widened) {
      return Status::InvalidArgument(
          "aggregate column out of range of the widened relation");
    }
    if (spec.column >= num_fact) {
      return Status::FailedPrecondition(
          "aggregate over a dimension attribute: sampling commutes with the "
          "foreign-key join only for fact-table measures (Joins-on-Samples)");
    }
  }
  return Status::OK();
}

}  // namespace congress::planner
