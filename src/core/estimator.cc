#include "core/estimator.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "storage/group_index.h"

namespace congress {

const char* BoundMethodToString(BoundMethod method) {
  switch (method) {
    case BoundMethod::kStandardError:
      return "StandardError";
    case BoundMethod::kChebyshev:
      return "Chebyshev";
    case BoundMethod::kHoeffding:
      return "Hoeffding";
  }
  return "Unknown";
}

const char* GroupProvenanceToString(GroupProvenance provenance) {
  switch (provenance) {
    case GroupProvenance::kSampled:
      return "sampled";
    case GroupProvenance::kExact:
      return "exact";
    case GroupProvenance::kCombined:
      return "combined";
  }
  return "unknown";
}

void ApproximateResult::Add(ApproximateGroupRow row) {
  sorted_ = sorted_ && (rows_.empty() || rows_.back().key < row.key);
  rows_.push_back(std::move(row));
}

const ApproximateGroupRow* ApproximateResult::Find(const GroupKey& key) const {
  if (sorted_) {
    auto it = std::lower_bound(
        rows_.begin(), rows_.end(), key,
        [](const ApproximateGroupRow& row, const GroupKey& k) {
          return row.key < k;
        });
    return it != rows_.end() && it->key == key ? &*it : nullptr;
  }
  for (const ApproximateGroupRow& row : rows_) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

void ApproximateResult::SortByKey() {
  if (sorted_) return;
  std::sort(rows_.begin(), rows_.end(),
            [](const ApproximateGroupRow& a, const ApproximateGroupRow& b) {
              return a.key < b.key;
            });
  sorted_ = true;
}

void ApproximateResult::FilterHaving(
    const std::vector<HavingCondition>& having) {
  if (having.empty()) return;
  // Keeps the surviving rows in place and in order.
  auto failed = [&](const ApproximateGroupRow& row) {
    for (const HavingCondition& cond : having) {
      if (cond.aggregate_index >= row.estimates.size() ||
          !cond.Matches(row.estimates[cond.aggregate_index])) {
        return true;
      }
    }
    return false;
  };
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(), failed), rows_.end());
}

QueryResult ApproximateResult::ToQueryResult() const {
  QueryResult out;
  for (const ApproximateGroupRow& row : rows_) {
    out.Add(row.key, row.estimates);
  }
  out.SortByKey();
  return out;
}

std::string ApproximateResult::ToString(size_t max_rows) const {
  std::ostringstream oss;
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t i = 0; i < shown; ++i) {
    const auto& row = rows_[i];
    oss << GroupKeyToString(row.key) << " ->";
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      oss << " " << row.estimates[a] << " (+-" << row.bounds[a] << ")";
    }
    oss << " [" << row.support << " tuples]\n";
  }
  if (shown < rows_.size()) {
    oss << "... (" << (rows_.size() - shown) << " more groups)\n";
  }
  return oss.str();
}

BoundModel::BoundModel(BoundMethod method, double confidence)
    : method_(method) {
  double delta = 1.0 - confidence;
  if (delta <= 0.0) delta = 1e-6;
  chebyshev_ = 1.0 / std::sqrt(delta);
  // Hoeffding: P(|est - E| >= t) <= 2 exp(-2 t^2 / sum_i c_i^2) with
  // c_i the per-draw range of the scaled variable; inverting at the
  // target confidence gives t = sqrt(ln(2/(1-conf))/2 * sum c_i^2).
  hoeffding_ln_ = std::log(2.0 / delta) / 2.0;
}

BoundModel::Estimate BoundModel::Finish(AggregateKind kind,
                                        const StratumTerms& t) const {
  Estimate out;
  double variance = 0.0;
  bool hoeffding_ok = false;
  switch (kind) {
    case AggregateKind::kSum:
      out.value = t.est_sum;
      variance = t.var_sum;
      hoeffding_ok = true;
      break;
    case AggregateKind::kCount:
      out.value = t.est_cnt;
      variance = t.var_cnt;
      hoeffding_ok = true;
      break;
    case AggregateKind::kAvg:
      // Delta-method variance of the ratio estimator.
      if (t.est_cnt > 0.0) {
        const double r = t.est_sum / t.est_cnt;
        out.value = r;
        variance = (t.var_sum - 2.0 * r * t.cov + r * r * t.var_cnt) /
                   (t.est_cnt * t.est_cnt);
      }
      break;
    default:
      break;
  }
  out.std_error = std::sqrt(std::max(0.0, variance));
  switch (method_) {
    case BoundMethod::kStandardError:
      out.bound = out.std_error;
      break;
    case BoundMethod::kChebyshev:
      out.bound = chebyshev_ * out.std_error;
      break;
    case BoundMethod::kHoeffding:
      // Hoeffding needs a value range; AVG falls back to Chebyshev.
      out.bound = hoeffding_ok ? std::sqrt(hoeffding_ln_ * t.hoeff_c2)
                               : chebyshev_ * out.std_error;
      break;
  }
  return out;
}

namespace {

/// Per (output group, stratum, aggregate-column) running sums over the
/// sampled tuples that match the predicate and fall in the group.
struct CellStats {
  uint64_t matches = 0;   // Matching tuples of this stratum in this group.
  double sum_v = 0.0;     // Sum of aggregate values.
  double sum_v2 = 0.0;    // Sum of squared values.
  double max_abs = 0.0;   // Largest |value| seen (for Hoeffding ranges).
};

struct GroupAccum {
  // cells[stratum] -> per-aggregate-column stats. Only strata that have a
  // matching tuple in this group appear.
  std::unordered_map<uint32_t, std::vector<CellStats>> cells;
  uint64_t support = 0;
};

/// Checks shared by both estimation paths.
Status ValidateQuery(const StratifiedSample& sample, const GroupByQuery& query,
                     const EstimatorOptions& options) {
  const Table& rows = sample.rows();
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (size_t c : query.group_columns) {
    if (c >= rows.num_columns()) {
      return Status::InvalidArgument("group column out of range");
    }
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::InvalidArgument(
          "MIN/MAX have no unbiased sampling estimator; use ExecuteExact");
    }
    CONGRESS_RETURN_NOT_OK(ValidateAggregate(spec, rows.schema()));
  }
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  for (const HavingCondition& cond : query.having) {
    if (cond.aggregate_index >= query.aggregates.size()) {
      return Status::InvalidArgument("HAVING references a missing aggregate");
    }
  }
  for (uint32_t s : options.excluded_strata) {
    if (s >= sample.strata().size()) {
      return Status::InvalidArgument("excluded stratum out of range");
    }
  }
  return Status::OK();
}

/// Per-stratum exclusion flags for a combined plan's sampled tail; empty
/// when nothing is excluded.
std::vector<char> ExcludedStrata(const StratifiedSample& sample,
                                 const EstimatorOptions& options) {
  std::vector<char> excluded;
  if (options.excluded_strata.empty()) return excluded;
  excluded.assign(sample.strata().size(), 0);
  for (uint32_t s : options.excluded_strata) excluded[s] = 1;
  return excluded;
}

/// Position of each query grouping column in the sample's grouping, or
/// false when one is not a grouping column.
bool KeyPositions(const StratifiedSample& sample, const GroupByQuery& query,
                  std::vector<size_t>* positions) {
  const std::vector<size_t>& grouping = sample.grouping_columns();
  for (size_t col : query.group_columns) {
    auto it = std::find(grouping.begin(), grouping.end(), col);
    if (it == grouping.end()) return false;
    positions->push_back(static_cast<size_t>(it - grouping.begin()));
  }
  return true;
}

}  // namespace

Result<ApproximateResult> EstimateGroupBy(const StratifiedSample& sample,
                                          const GroupByQuery& query,
                                          const EstimatorOptions& options,
                                          const ExecutorOptions& execution) {
  CONGRESS_RETURN_NOT_OK(ValidateQuery(sample, query, options));
  CONGRESS_METRIC_INCR("estimator.queries", 1);
  CONGRESS_SPAN(estimate_span, execution.scope, "estimate");

  const Table& rows = sample.rows();
  const size_t num_aggs = query.aggregates.size();
  const auto& strata = sample.strata();
  const auto& row_strata = sample.row_strata();
  // Planner combined plans exclude outlier strata from the sampled tail.
  const std::vector<char> stratum_excluded = ExcludedStrata(sample, options);

  // Intern the output groups once, then accumulate each group's
  // per-stratum cells over its rows in ascending row order, parallel
  // across disjoint groups. Row order matches a serial scan, so the
  // floating-point sums are bit-identical for every thread count.
  auto index = GroupIndex::Build(rows, query.group_columns,
                                 execution.WithScope(estimate_span.scope()));
  if (!index.ok()) return index.status();
  const size_t num_groups = index->num_groups();
  std::vector<GroupAccum> accums(num_groups);
  GroupIndex::RowLists lists = index->GroupRows();
  std::vector<std::pair<size_t, size_t>> chunks = BalancedGroupChunks(
      lists.offsets, std::max<uint64_t>(rows.num_rows() / 64 + 1, 1024));
  const size_t threads = execution.ResolvedThreads();
  const bool tally_on = kernels::kObsEnabled && execution.scope != nullptr;
  // Per batched row: selection + survivor slots, the cached cell
  // pointer, one input slot, and the gathered source cells. Slicing a
  // group's run into cache-sized batches changes neither the selected
  // set nor the fold order.
  const uint32_t batch_rows =
      kernels::AdaptiveBatchRows(24 + 16 * num_aggs);
  std::vector<kernels::KernelTally> tallies(chunks.size());
  ParallelFor(threads, chunks.size(), [&](size_t c) {
    kernels::KernelTally& tally = tallies[c];
    SelectionVector selected;
    std::vector<uint32_t> tail_rows;
    std::vector<double> inputs;
    std::vector<CellStats*> row_cells;
    for (size_t g = chunks[c].first; g < chunks[c].second; ++g) {
      GroupAccum& acc = accums[g];
      const uint32_t run_begin = static_cast<uint32_t>(lists.offsets[g]);
      const uint32_t run_end = static_cast<uint32_t>(lists.offsets[g + 1]);
      for (uint32_t sb = run_begin; sb < run_end; sb += batch_rows) {
      const uint32_t se = std::min(run_end, sb + batch_rows);
      const uint32_t* sel = lists.rows.data() + sb;
      size_t n_sel = se - sb;
      if (query.predicate != nullptr) {
        selected.clear();
        const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
        query.predicate->MatchBatch(rows, sb, se,
                                    lists.rows.data(), &selected);
        if (tally_on) tally.match_nanos += kernels::TallyClockNanos() - t0;
        tally.match_batches += 1;
        tally.match_rows_in += se - sb;
        tally.match_rows_selected += selected.size();
        sel = selected.data();
        n_sel = selected.size();
      }
      if (!stratum_excluded.empty()) {
        tail_rows.clear();
        for (size_t i = 0; i < n_sel; ++i) {
          if (stratum_excluded[row_strata[sel[i]]] == 0) {
            tail_rows.push_back(sel[i]);
          }
        }
        sel = tail_rows.data();
        n_sel = tail_rows.size();
      }
      if (n_sel == 0) continue;
      acc.support += n_sel;
      // Pass 1: resolve each selected row's stratum cell block. The map
      // is node-based and the per-stratum vectors never grow, so the
      // cached pointers stay valid.
      row_cells.resize(n_sel);
      for (size_t i = 0; i < n_sel; ++i) {
        const uint32_t r = sel[i];
        auto cell_it = acc.cells.find(row_strata[r]);
        if (cell_it == acc.cells.end()) {
          cell_it = acc.cells
                        .emplace(row_strata[r], std::vector<CellStats>(num_aggs))
                        .first;
        }
        row_cells[i] = cell_it->second.data();
      }
      // Pass 2: one batched evaluation per aggregate, then a scalar
      // update fold in row order.
      if (inputs.size() < n_sel) inputs.resize(n_sel);
      for (size_t a = 0; a < num_aggs; ++a) {
        const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
        AggregateInputBatch(query.aggregates[a], rows, sel, n_sel,
                            inputs.data());
        if (tally_on) tally.eval_nanos += kernels::TallyClockNanos() - t0;
        tally.eval_batches += 1;
        tally.eval_rows += n_sel;
        for (size_t i = 0; i < n_sel; ++i) {
          const double v = inputs[i];
          CellStats& cs = row_cells[i][a];
          cs.matches += 1;
          cs.sum_v += v;
          cs.sum_v2 += v * v;
          cs.max_abs = std::max(cs.max_abs, std::fabs(v));
        }
      }
      }
    }
  });
  {
    kernels::KernelTally merged;
    for (const kernels::KernelTally& t : tallies) merged.Merge(t);
    kernels::RecordKernelTally(merged, estimate_span.scope());
  }

  // Per-group estimator math, parallel across groups: each group's cell
  // terms fold in ascending stratum order, the order EstimateRollup
  // folds the same strata in. Groups whose rows all fail the predicate
  // are dropped.
  const BoundModel model(options.bound_method, options.confidence);
  std::vector<ApproximateGroupRow> out_rows(num_groups);
  ParallelFor(threads, chunks.size(), [&](size_t c) {
    std::vector<std::pair<uint32_t, const CellStats*>> cells;
    for (size_t g = chunks[c].first; g < chunks[c].second; ++g) {
      const GroupAccum& acc = accums[g];
      if (acc.support == 0) continue;
      cells.clear();
      for (const auto& [s, stats] : acc.cells) {
        cells.emplace_back(s, stats.data());
      }
      std::sort(cells.begin(), cells.end());
      ApproximateGroupRow& out = out_rows[g];
      out.key = index->keys()[g];
      out.support = acc.support;
      out.estimates.resize(num_aggs);
      out.std_errors.resize(num_aggs);
      out.bounds.resize(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        StratumTerms terms;
        for (const auto& [s, stats] : cells) {
          const CellStats& cs = stats[a];
          terms.Add(ComputeStratumTerms(strata[s], cs.matches, cs.sum_v,
                                        cs.sum_v2, cs.max_abs));
        }
        const BoundModel::Estimate e =
            model.Finish(query.aggregates[a].kind, terms);
        out.estimates[a] = e.value;
        out.std_errors[a] = e.std_error;
        out.bounds[a] = e.bound;
      }
    }
  });

  ApproximateResult result;
  for (size_t g = 0; g < num_groups; ++g) {
    if (accums[g].support == 0) continue;
    result.Add(std::move(out_rows[g]));
  }
  result.FilterHaving(query.having);
  result.SortByKey();
  return result;
}

bool IsStratumRollup(const StratifiedSample& sample,
                     const GroupByQuery& query) {
  std::vector<size_t> positions;
  if (!KeyPositions(sample, query, &positions)) return false;
  const Schema& schema = sample.base_schema();
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kCount) continue;
    if (spec.kind != AggregateKind::kSum && spec.kind != AggregateKind::kAvg) {
      return false;
    }
    if (spec.expression != nullptr || spec.column >= schema.num_fields() ||
        schema.field(spec.column).type == DataType::kString) {
      return false;
    }
  }
  if (query.predicate == nullptr) return true;
  std::vector<size_t> read;
  if (!query.predicate->CollectColumns(&read)) return false;
  const std::vector<size_t>& grouping = sample.grouping_columns();
  for (size_t col : read) {
    if (std::find(grouping.begin(), grouping.end(), col) == grouping.end()) {
      return false;
    }
  }
  return true;
}

Result<ApproximateResult> EstimateRollup(const StratifiedSample& sample,
                                         const SampleMoments& moments,
                                         const GroupByQuery& query,
                                         const EstimatorOptions& options,
                                         const ExecutorOptions& execution) {
  CONGRESS_RETURN_NOT_OK(ValidateQuery(sample, query, options));
  if (!IsStratumRollup(sample, query)) {
    return Status::InvalidArgument("query is not a stratum roll-up");
  }
  if (moments.num_strata() != sample.strata().size()) {
    return Status::InvalidArgument("moments do not describe the sample");
  }
  CONGRESS_METRIC_INCR("estimator.queries", 1);
  CONGRESS_METRIC_INCR("estimator.rollup_queries", 1);
  CONGRESS_SPAN(estimate_span, execution.scope, "estimate_rollup");

  std::vector<size_t> positions;
  KeyPositions(sample, query, &positions);
  const StratumRollup& rollup = moments.Rollup(sample, positions);
  const size_t num_aggs = query.aggregates.size();
  const size_t num_groups = rollup.num_groups();
  std::vector<size_t> slots(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateSpec& spec = query.aggregates[a];
    slots[a] = spec.kind == AggregateKind::kCount
                   ? SampleMoments::kCountSlot
                   : moments.SlotOf(spec.column);
  }

  // terms_of(a, g): group g's terms for aggregate a. With every stratum
  // counting they are the roll-up's pre-folded sums; otherwise fold the
  // strata that pass, in ascending order — the row scan's order.
  std::vector<StratumTerms> folded;
  auto terms_of = [&](size_t a, size_t g) -> const StratumTerms& {
    if (!folded.empty()) return folded[a * num_groups + g];
    return slots[a] == SampleMoments::kCountSlot
               ? rollup.count_terms[g]
               : rollup.column_terms[slots[a] * num_groups + g];
  };
  if (query.predicate != nullptr || !options.excluded_strata.empty()) {
    const std::vector<char> excluded = ExcludedStrata(sample, options);
    const std::vector<Stratum>& strata = sample.strata();
    folded.assign(num_aggs * num_groups, StratumTerms{});
    for (size_t s = 0; s < strata.size(); ++s) {
      if (moments.rows(s) == 0) continue;
      if (!excluded.empty() && excluded[s] != 0) continue;
      // Constant within the stratum: it reads grouping columns only.
      if (query.predicate != nullptr &&
          !query.predicate->Matches(sample.rows(), moments.first_row(s))) {
        continue;
      }
      const uint32_t g = rollup.group_of[s];
      for (size_t a = 0; a < num_aggs; ++a) {
        folded[a * num_groups + g].Add(moments.TermsOf(strata[s], s, slots[a]));
      }
    }
  }

  const BoundModel model(options.bound_method, options.confidence);
  ApproximateResult result;
  for (size_t g = 0; g < num_groups; ++g) {
    const uint64_t support = terms_of(0, g).support;
    if (support == 0) continue;
    ApproximateGroupRow out;
    out.key = rollup.keys[g];
    out.support = support;
    out.estimates.resize(num_aggs);
    out.std_errors.resize(num_aggs);
    out.bounds.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      const BoundModel::Estimate e =
          model.Finish(query.aggregates[a].kind, terms_of(a, g));
      out.estimates[a] = e.value;
      out.std_errors[a] = e.std_error;
      out.bounds[a] = e.bound;
    }
    result.Add(std::move(out));
  }
  result.FilterHaving(query.having);
  return result;
}

}  // namespace congress
