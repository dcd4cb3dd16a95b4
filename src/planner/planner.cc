#include "planner/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "resilience/failpoint.h"
#include "storage/group_index.h"

namespace congress::planner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Outlier strata a combined plan answers exactly: the top-k by base
/// population. The exact part's cost grows with their population, so k
/// stays small.
constexpr size_t kMaxOutlierStrata = 4;

/// Cost-model row rates for time budgets, in milliseconds per row scanned
/// (sample scans and base-table scans). Deliberately coarse: time budgets
/// need plan *ordering*, not microsecond forecasts.
constexpr double kMsPerSampleRow = 2e-5;
constexpr double kMsPerBaseRow = 2e-5;

/// Floor for relative-error denominators (|estimate| below this reads as
/// "relative error unbounded").
constexpr double kEstimateFloor = 1e-9;

/// Internal aggregate expansion for combined plans: every output
/// aggregate maps to slots in an internal SUM/COUNT-only list so the
/// exact part and the sampled tail add per slot, and AVG recombines as a
/// ratio after stitching.
struct AggregatePlan {
  GroupByQuery inner;                 // No HAVING, expanded aggregates.
  std::vector<size_t> value_slot;     // Per output agg: SUM slot (or count).
  size_t count_slot = 0;              // Shared COUNT(*) slot.
};

AggregatePlan ExpandAggregates(const GroupByQuery& query) {
  AggregatePlan plan;
  plan.inner.group_columns = query.group_columns;
  plan.inner.predicate = query.predicate;
  size_t count_slot = SIZE_MAX;
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kCount) {
      if (count_slot == SIZE_MAX) {
        count_slot = plan.inner.aggregates.size();
        plan.inner.aggregates.emplace_back(AggregateKind::kCount, 0);
      }
      plan.value_slot.push_back(count_slot);
    } else {
      AggregateSpec sum = spec;
      sum.kind = AggregateKind::kSum;
      plan.value_slot.push_back(plan.inner.aggregates.size());
      plan.inner.aggregates.push_back(std::move(sum));
    }
  }
  if (count_slot == SIZE_MAX) {
    count_slot = plan.inner.aggregates.size();
    plan.inner.aggregates.emplace_back(AggregateKind::kCount, 0);
  }
  plan.count_slot = count_slot;
  return plan;
}

/// Top-k strata by base population (ties broken by stratum index), the
/// outliers a combined plan answers exactly.
std::vector<uint32_t> TopStrataByPopulation(
    const std::vector<Stratum>& strata, size_t k) {
  std::vector<uint32_t> order(strata.size());
  for (uint32_t s = 0; s < order.size(); ++s) order[s] = s;
  auto heavier = [&](uint32_t a, uint32_t b) {
    if (strata[a].population != strata[b].population) {
      return strata[a].population > strata[b].population;
    }
    return a < b;
  };
  if (order.size() > k) {
    // Selection, not a full sort: k is small and this runs on every
    // budgeted plan.
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(k),
                     order.end(),
                     heavier);
    order.resize(k);
  }
  std::sort(order.begin(), order.end());
  return order;
}

double WorstRelativeBound(const ApproximateResult& result, double floor) {
  double worst = 0.0;
  for (const ApproximateGroupRow& row : result.rows()) {
    // A non-exact group the estimator could not put an interval around
    // (fewer than 2 sampled tuples) is a statement of ignorance, not a
    // zero-width promise: treat it as an unbounded relative error so
    // verification escalates.
    if (row.provenance != GroupProvenance::kExact && row.support < 2) {
      return kInf;
    }
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      const double rel =
          row.bounds[a] / std::max(std::fabs(row.estimates[a]), floor);
      worst = std::max(worst, rel);
    }
  }
  return worst;
}

const CandidateScore* FindCandidate(const std::vector<CandidateScore>& cs,
                                    PlanKind kind) {
  for (const CandidateScore& c : cs) {
    if (c.kind == kind) return &c;
  }
  return nullptr;
}

/// The eligible candidate a budget selects. Error budget: the cheapest
/// predicted to keep the promise, else exact (always sufficient), else
/// the most accurate prediction. Time budget: the most accurate predicted
/// to finish in time, else the cheapest. Null when nothing is eligible.
const CandidateScore* ChooseCandidate(
    const std::vector<CandidateScore>& candidates, const QueryBudget& budget) {
  const CandidateScore* best = nullptr;
  if (budget.has_error_budget()) {
    for (const CandidateScore& c : candidates) {
      if (!c.eligible || c.predicted_relative_error > budget.relative_error) {
        continue;
      }
      if (best == nullptr || c.predicted_cost_ms < best->predicted_cost_ms) {
        best = &c;
      }
    }
    if (best == nullptr) {
      best = FindCandidate(candidates, PlanKind::kExact);
      if (best != nullptr && !best->eligible) best = nullptr;
    }
    if (best == nullptr) {
      // No plan can promise the budget and exact is unavailable: serve
      // the most accurate prediction and let Run() report the gap.
      for (const CandidateScore& c : candidates) {
        if (!c.eligible) continue;
        if (best == nullptr ||
            c.predicted_relative_error < best->predicted_relative_error) {
          best = &c;
        }
      }
    }
    return best;
  }
  for (const CandidateScore& c : candidates) {
    if (!c.eligible || c.predicted_cost_ms > budget.time_budget_ms) continue;
    if (best == nullptr ||
        c.predicted_relative_error < best->predicted_relative_error ||
        (c.predicted_relative_error == best->predicted_relative_error &&
         c.predicted_cost_ms < best->predicted_cost_ms)) {
      best = &c;
    }
  }
  if (best == nullptr) {
    // Nothing fits the deadline; take the cheapest eligible plan.
    for (const CandidateScore& c : candidates) {
      if (!c.eligible) continue;
      if (best == nullptr || c.predicted_cost_ms < best->predicted_cost_ms) {
        best = &c;
      }
    }
  }
  return best;
}

/// How the degradation ladder names a candidate: the rung name failure
/// causes use, its failpoint site (null off the ladder), and the level a
/// degraded answer from it reports.
struct Rung {
  const char* name;
  const char* failpoint;
  DegradationLevel level;
};

Rung RungOf(PlanKind kind) {
  switch (kind) {
    case PlanKind::kPrimarySynopsis:
      return {"primary", "aqua/primary_answer", DegradationLevel::kNone};
    case PlanKind::kFallbackBasic:
      return {"basic_congress", "aqua/fallback_basic",
              DegradationLevel::kBasicCongress};
    case PlanKind::kFallbackHouse:
      return {"house", "aqua/fallback_house", DegradationLevel::kHouse};
    case PlanKind::kExact:
      return {"exact", "aqua/exact_rebuild", DegradationLevel::kExactRebuild};
    default:
      return {PlanKindToString(kind), nullptr, DegradationLevel::kNone};
  }
}

/// Widening a fallback's bounds may grow to after a failure; past this
/// they say "don't trust this rung", which the caller can read from the
/// DegradationReason directly.
constexpr double kMaxDerivedWidening = 8.0;

/// The bound widening a sample fallback answering for a failed primary
/// gets: sqrt of its predicted mean estimator variance over the
/// primary's, clamped to [1, kMaxDerivedWidening]; 1 when either side
/// could not be scored.
double FallbackWidening(const std::vector<CandidateScore>& candidates,
                        PlanKind fallback) {
  const CandidateScore* fb = FindCandidate(candidates, fallback);
  const CandidateScore* primary =
      FindCandidate(candidates, PlanKind::kPrimarySynopsis);
  if (fb == nullptr || primary == nullptr || fb->mean_variance <= 0.0 ||
      primary->mean_variance <= 0.0) {
    return 1.0;
  }
  return std::clamp(std::sqrt(fb->mean_variance / primary->mean_variance),
                    1.0, kMaxDerivedWidening);
}

/// Why a fallback slot is empty: its recorded build failure, if any.
Status NotBuilt(const Status& build_status, const char* what) {
  if (!build_status.ok()) return build_status;
  return Status::FailedPrecondition(std::string(what) + " not built");
}

ApproximateResult WidenBounds(const ApproximateResult& in, double factor) {
  ApproximateResult out;
  for (ApproximateGroupRow row : in.rows()) {
    for (double& e : row.std_errors) e *= factor;
    for (double& b : row.bounds) b *= factor;
    out.Add(std::move(row));
  }
  return out;
}

}  // namespace

const char* PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kPrimarySynopsis:
      return "primary-synopsis";
    case PlanKind::kFallbackBasic:
      return "fallback-basic-congress";
    case PlanKind::kFallbackHouse:
      return "fallback-house";
    case PlanKind::kCombined:
      return "combined-outlier-exact";
    case PlanKind::kExact:
      return "exact";
  }
  return "unknown";
}

std::string PlanReport::ToString() const {
  std::ostringstream oss;
  oss << "plan: " << PlanKindToString(chosen.kind);
  if (!chosen.outlier_strata.empty()) {
    oss << " (exact strata:";
    for (uint32_t s : chosen.outlier_strata) oss << " " << s;
    oss << ")";
  }
  oss << "\n";
  if (budget.active()) {
    oss << "budget: " << budget.ToString() << "\n";
  } else {
    oss << "budget: none\n";
  }
  oss << "predicted relative error: " << predicted_relative_error << "\n";
  if (realized_relative_error >= 0.0) {
    oss << "realized relative error: " << realized_relative_error;
    if (budget.has_error_budget()) {
      oss << (realized_relative_error <= budget.relative_error
                  ? " (promise met)"
                  : " (promise broken)");
    }
    oss << "\n";
  }
  if (escalations > 0) oss << "escalations: " << escalations << "\n";
  oss << "candidates:\n";
  for (const CandidateScore& c : candidates) {
    oss << "  " << PlanKindToString(c.kind) << ": ";
    if (c.eligible) {
      oss << "rel_err<=" << c.predicted_relative_error << " cost~"
          << c.predicted_cost_ms << "ms";
      if (!c.detail.empty()) oss << " (" << c.detail << ")";
    } else {
      oss << "ineligible: " << c.detail;
    }
    oss << "\n";
  }
  return oss.str();
}

Result<ApproximateResult> ExecuteCombinedPlan(
    const AquaSnapshot& snapshot, const GroupByQuery& query,
    const std::vector<uint32_t>& outlier_strata, double confidence) {
  if (snapshot.synopsis == nullptr) {
    return Status::InvalidArgument("snapshot has no synopsis");
  }
  if (!snapshot.base_available || snapshot.table == nullptr) {
    return Status::FailedPrecondition(
        "combined plan needs the retained base relation");
  }
  const AquaSynopsis& synopsis = *snapshot.synopsis;
  const StratifiedSample& sample = synopsis.sample();
  const std::vector<Stratum>& strata = sample.strata();
  for (uint32_t s : outlier_strata) {
    if (s >= strata.size()) {
      return Status::InvalidArgument("outlier stratum out of range");
    }
  }
  const ExecutorOptions& execution = synopsis.config().execution;
  AggregatePlan plan = ExpandAggregates(query);

  // Exact part: gather the base rows of the outlier strata through the
  // snapshot's group index (built once at publish; rebuilt here only for
  // hand-assembled snapshots) and aggregate them exactly.
  std::shared_ptr<const GroupIndex> index = snapshot.base_group_index;
  if (index == nullptr) {
    auto built = GroupIndex::Build(*snapshot.table,
                                   sample.grouping_columns(), execution);
    if (!built.ok()) return built.status();
    index = std::make_shared<const GroupIndex>(std::move(built).value());
  }
  std::unordered_set<GroupKey, GroupKeyHash> outlier_keys;
  for (uint32_t s : outlier_strata) outlier_keys.insert(strata[s].key);
  GroupIndex::RowLists lists = index->GroupRows();

  // When the query has no predicate and its grouping projects out of the
  // stratum key (the scorer's eligible-combined case), each outlier
  // stratum aggregates in place over its base rows — no row
  // materialization, no second grouping pass.
  const std::vector<size_t>& synopsis_grouping = sample.grouping_columns();
  std::vector<size_t> key_positions;
  bool in_place = !query.HasPredicate();
  for (size_t col : plan.inner.group_columns) {
    auto it =
        std::find(synopsis_grouping.begin(), synopsis_grouping.end(), col);
    if (it == synopsis_grouping.end()) {
      in_place = false;
      break;
    }
    key_positions.push_back(
        static_cast<size_t>(it - synopsis_grouping.begin()));
  }

  QueryResult exact_part;
  const size_t slots = plan.inner.aggregates.size();
  if (in_place) {
    std::unordered_map<GroupKey, std::vector<Accumulator>, GroupKeyHash> cells;
    for (size_t g = 0; g < index->num_groups(); ++g) {
      if (outlier_keys.count(index->keys()[g]) == 0) continue;
      GroupKey out_key;
      out_key.reserve(key_positions.size());
      for (size_t pos : key_positions) out_key.push_back(index->keys()[g][pos]);
      auto it = cells.find(out_key);
      if (it == cells.end()) {
        std::vector<Accumulator> accs;
        accs.reserve(slots);
        for (const AggregateSpec& spec : plan.inner.aggregates) {
          accs.emplace_back(spec.kind);
        }
        it = cells.emplace(std::move(out_key), std::move(accs)).first;
      }
      for (uint64_t r = lists.offsets[g]; r < lists.offsets[g + 1]; ++r) {
        const uint32_t row = lists.rows[r];
        for (size_t a = 0; a < slots; ++a) {
          it->second[a].Add(
              AggregateInput(plan.inner.aggregates[a], *snapshot.table, row));
        }
      }
    }
    for (auto& [key, accs] : cells) {
      std::vector<double> aggregates(slots);
      for (size_t a = 0; a < slots; ++a) aggregates[a] = accs[a].Finish();
      exact_part.Add(key, std::move(aggregates));
    }
  } else {
    std::vector<uint32_t> exact_rows;
    for (size_t g = 0; g < index->num_groups(); ++g) {
      if (outlier_keys.count(index->keys()[g]) == 0) continue;
      exact_rows.insert(exact_rows.end(),
                        lists.rows.begin() + lists.offsets[g],
                        lists.rows.begin() + lists.offsets[g + 1]);
    }
    std::sort(exact_rows.begin(), exact_rows.end());
    if (!exact_rows.empty()) {
      Table outliers(snapshot.table->schema());
      std::vector<Value> row;
      for (uint32_t r : exact_rows) {
        row.clear();
        for (size_t c = 0; c < snapshot.table->num_columns(); ++c) {
          row.push_back(snapshot.table->GetValue(r, c));
        }
        CONGRESS_RETURN_NOT_OK(outliers.AppendRow(row));
      }
      auto exact = ExecuteExact(outliers, plan.inner, execution);
      if (!exact.ok()) return exact.status();
      exact_part = std::move(exact).value();
    }
  }

  // Sampled tail: the outlier strata are excluded from the estimate.
  EstimatorOptions tail_options = synopsis.config().estimator;
  if (confidence > 0.0) tail_options.confidence = confidence;
  tail_options.excluded_strata = outlier_strata;
  auto tail = synopsis.Estimate(plan.inner, tail_options);
  if (!tail.ok()) return tail.status();

  // Stitch per output group. Only the tail carries uncertainty, so the
  // combined bound of an internal slot is the tail's; AVG propagates the
  // ratio bound (b_S + |avg| b_C) / C.
  std::vector<GroupKey> keys;
  std::unordered_set<GroupKey, GroupKeyHash> seen;
  for (const GroupResult& row : exact_part.rows()) {
    if (seen.insert(row.key).second) keys.push_back(row.key);
  }
  for (const ApproximateGroupRow& row : tail->rows()) {
    if (seen.insert(row.key).second) keys.push_back(row.key);
  }

  ApproximateResult result;
  std::vector<double> value(slots), bound(slots), se(slots);
  for (const GroupKey& key : keys) {
    const GroupResult* exact = exact_part.Find(key);
    const ApproximateGroupRow* sampled = tail->Find(key);
    for (size_t i = 0; i < slots; ++i) {
      value[i] = (exact != nullptr ? exact->aggregates[i] : 0.0) +
                 (sampled != nullptr ? sampled->estimates[i] : 0.0);
      bound[i] = sampled != nullptr ? sampled->bounds[i] : 0.0;
      se[i] = sampled != nullptr ? sampled->std_errors[i] : 0.0;
    }
    ApproximateGroupRow out;
    out.key = key;
    const size_t num_aggs = query.aggregates.size();
    out.estimates.resize(num_aggs);
    out.std_errors.resize(num_aggs);
    out.bounds.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      const size_t slot = plan.value_slot[a];
      if (query.aggregates[a].kind == AggregateKind::kAvg) {
        const double s = value[slot];
        const double c = value[plan.count_slot];
        const double avg = c > 0.0 ? s / c : 0.0;
        out.estimates[a] = avg;
        if (c > 0.0) {
          out.bounds[a] =
              (bound[slot] + std::fabs(avg) * bound[plan.count_slot]) / c;
          out.std_errors[a] =
              (se[slot] + std::fabs(avg) * se[plan.count_slot]) / c;
        }
      } else {
        out.estimates[a] = value[slot];
        out.std_errors[a] = se[slot];
        out.bounds[a] = bound[slot];
      }
    }
    const double exact_count =
        exact != nullptr ? exact->aggregates[plan.count_slot] : 0.0;
    out.support = (sampled != nullptr ? sampled->support : 0) +
                  static_cast<uint64_t>(std::llround(exact_count));
    if (exact != nullptr && sampled != nullptr) {
      out.provenance = GroupProvenance::kCombined;
    } else if (exact != nullptr) {
      out.provenance = GroupProvenance::kExact;
    } else {
      out.provenance = GroupProvenance::kSampled;
    }
    result.Add(std::move(out));
  }
  result.FilterHaving(query.having);
  result.SortByKey();
  return result;
}

Result<PlanReport> Planner::Plan(const AquaSnapshot& snapshot,
                                 const GroupByQuery& query) const {
  if (snapshot.synopsis == nullptr) {
    return Status::InvalidArgument("snapshot has no synopsis");
  }
  const QueryBudget& budget = query.budget;
  if (budget.has_error_budget() &&
      (budget.confidence <= 0.0 || budget.confidence >= 1.0)) {
    return Status::InvalidArgument(
        "error budget requires a confidence level in (0, 1)");
  }
  if (budget.has_error_budget() && budget.relative_error >= 1.0) {
    return Status::InvalidArgument(
        "error budget must be a relative half-width in (0, 1)");
  }
  const AquaSynopsis& primary = *snapshot.synopsis;
  const double confidence = budget.has_error_budget()
                                ? budget.confidence
                                : primary.config().estimator.confidence;

  PlanReport report;
  report.budget = budget;

  auto score_sample = [&](PlanKind kind, const AquaSynopsis* synopsis,
                          const Status& build_status) {
    CandidateScore c;
    c.kind = kind;
    if (synopsis == nullptr) {
      c.detail = build_status.ok() ? "not built" : build_status.ToString();
      report.candidates.push_back(std::move(c));
      return;
    }
    auto prediction = PredictSampleError(*synopsis, query, confidence);
    if (!prediction.ok()) {
      c.detail = prediction.status().ToString();
      report.candidates.push_back(std::move(c));
      return;
    }
    c.eligible = true;
    c.predicted_relative_error = prediction->max_relative_bound;
    c.mean_variance = prediction->mean_variance;
    c.predicted_cost_ms = static_cast<double>(synopsis->sample().num_rows()) *
                          kMsPerSampleRow;
    c.detail = prediction->exact_model ? "moment model"
                                       : "moment model (approximate)";
    report.candidates.push_back(std::move(c));
  };
  score_sample(PlanKind::kPrimarySynopsis, &primary, Status::OK());
  score_sample(PlanKind::kFallbackBasic, snapshot.fallback_basic.get(),
               snapshot.fallback_basic_status);
  score_sample(PlanKind::kFallbackHouse, snapshot.fallback_house.get(),
               snapshot.fallback_house_status);

  // Combined: the top-k outlier strata by base population go exact, the
  // tail stays sampled.
  {
    CandidateScore c;
    c.kind = PlanKind::kCombined;
    const std::vector<Stratum>& strata = primary.sample().strata();
    if (!snapshot.base_available) {
      c.detail = "base relation unavailable (restored snapshot)";
    } else if (strata.size() < 2) {
      c.detail = "fewer than two strata; nothing to split";
    } else {
      std::vector<uint32_t> outliers = TopStrataByPopulation(
          strata, std::min(kMaxOutlierStrata, strata.size() - 1));
      auto prediction =
          PredictSampleError(primary, query, confidence, outliers);
      if (!prediction.ok()) {
        c.detail = prediction.status().ToString();
      } else {
        uint64_t outlier_population = 0;
        for (uint32_t s : outliers) outlier_population += strata[s].population;
        c.eligible = true;
        c.predicted_relative_error = prediction->max_relative_bound;
        c.predicted_cost_ms =
            static_cast<double>(primary.sample().num_rows()) *
                kMsPerSampleRow +
            static_cast<double>(outlier_population) * kMsPerBaseRow;
        c.detail = "top-" + std::to_string(outliers.size()) +
                   " strata exact, sampled tail";
        c.outlier_strata = std::move(outliers);
      }
    }
    report.candidates.push_back(std::move(c));
  }

  {
    CandidateScore c;
    c.kind = PlanKind::kExact;
    if (!snapshot.base_available || snapshot.table == nullptr) {
      c.detail = "base relation unavailable (restored snapshot)";
    } else {
      bool min_max = false;
      for (const AggregateSpec& spec : query.aggregates) {
        min_max = min_max || spec.kind == AggregateKind::kMin ||
                  spec.kind == AggregateKind::kMax;
      }
      c.eligible = true;
      c.predicted_relative_error = 0.0;
      c.predicted_cost_ms =
          static_cast<double>(snapshot.table->num_rows()) *
          kMsPerBaseRow;
      c.detail = min_max ? "only plan supporting MIN/MAX" : "";
    }
    report.candidates.push_back(std::move(c));
  }

  // Choice. No budget: the primary synopsis, bit-identical to Answer().
  // Otherwise whatever the budget selects (ChooseCandidate).
  if (budget.active()) {
    const CandidateScore* best = ChooseCandidate(report.candidates, budget);
    if (best != nullptr) report.chosen = {best->kind, best->outlier_strata};
  }
  const CandidateScore* chosen =
      FindCandidate(report.candidates, report.chosen.kind);
  if (chosen != nullptr && chosen->eligible) {
    report.predicted_relative_error = chosen->predicted_relative_error;
  }
  return report;
}

Result<ApproximateResult> Planner::Execute(const AquaSnapshot& snapshot,
                                           const GroupByQuery& query,
                                           const PlanChoice& choice) const {
  const double confidence =
      query.budget.has_error_budget() ? query.budget.confidence : 0.0;
  auto sample_answer = [&](const AquaSynopsis& synopsis)
      -> Result<ApproximateResult> {
    if (confidence <= 0.0) return synopsis.Answer(query);
    EstimatorOptions opts = synopsis.config().estimator;
    opts.confidence = confidence;
    return synopsis.Estimate(query, opts);
  };
  switch (choice.kind) {
    case PlanKind::kPrimarySynopsis:
      return sample_answer(*snapshot.synopsis);
    case PlanKind::kFallbackBasic:
      if (snapshot.fallback_basic == nullptr) {
        return NotBuilt(snapshot.fallback_basic_status, "fallback-basic");
      }
      return sample_answer(*snapshot.fallback_basic);
    case PlanKind::kFallbackHouse:
      if (snapshot.fallback_house == nullptr) {
        return NotBuilt(snapshot.fallback_house_status, "fallback-house");
      }
      return sample_answer(*snapshot.fallback_house);
    case PlanKind::kCombined:
      return ExecuteCombinedPlan(snapshot, query, choice.outlier_strata,
                                 confidence);
    case PlanKind::kExact: {
      if (!snapshot.base_available || snapshot.table == nullptr) {
        return Status::FailedPrecondition(
            "base relation unavailable after restore");
      }
      auto exact = ExecuteExact(*snapshot.table, query,
                                snapshot.synopsis->config().execution);
      if (!exact.ok()) return exact.status();
      ApproximateResult result = ExactAsApproximate(*exact);
      result.FilterHaving(query.having);
      result.SortByKey();
      return result;
    }
  }
  return Status::Internal("unknown plan kind");
}

Result<PlannedAnswer> Planner::Run(
    const AquaSnapshot& snapshot, const GroupByQuery& query,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  if (snapshot.synopsis == nullptr) {
    return Status::InvalidArgument("snapshot has no synopsis");
  }
  const QueryBudget& budget = query.budget;
  PlannedAnswer answer;
  answer.epoch = snapshot.epoch;
  PlanReport& report = answer.report;
  // Without a budget the primary synopsis is the plan, and the other
  // candidates are scored only if it fails.
  report.budget = budget;
  if (budget.active()) {
    const auto t0 = std::chrono::steady_clock::now();
    auto planned = Plan(snapshot, query);
    if (!planned.ok()) return planned.status();
    report = std::move(planned).value();
    CONGRESS_METRIC_INCR("planner.plans", 1);
    CONGRESS_METRIC_RECORD_NANOS(
        "planner.plan_nanos",
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
  }
  auto switch_to = [&report](const CandidateScore& c) {
    report.chosen = {c.kind, c.outlier_strata};
    report.predicted_relative_error = c.predicted_relative_error;
  };

  // One walk over the candidates. A candidate that fails drops out and the
  // next one answers; an answer that breaks an error promise escalates
  // toward kCombined / kExact. Every step either retires a candidate or
  // moves strictly up the escalation ladder, so the walk is finite.
  std::string causes;
  size_t next_rung = 0;  // Budget-free: fallback rungs tried so far.
  for (bool first = true;; first = false) {
    const Rung rung = RungOf(report.chosen.kind);
    if (!first && deadline.has_value() &&
        std::chrono::steady_clock::now() >= *deadline) {
      return Status::DeadlineExceeded("query deadline expired before " +
                                      std::string(rung.name) + " rung; " +
                                      causes);
    }
    Result<ApproximateResult> result =
        rung.failpoint != nullptr && CONGRESS_FAILPOINT_HIT(rung.failpoint)
            ? Result<ApproximateResult>(
                  resilience::FailpointError(rung.failpoint))
            : Execute(snapshot, query, report.chosen);
    if (!result.ok()) {
      if (!causes.empty()) causes += "; ";
      causes += std::string(rung.name) + ": " + result.status().ToString();
      if (report.candidates.empty()) {
        auto scored = Plan(snapshot, query);
        if (!scored.ok()) return scored.status();
        report.candidates = std::move(scored->candidates);
      }
      const CandidateScore* next = nullptr;
      if (budget.active()) {
        // The budget re-chooses among the candidates still standing.
        for (CandidateScore& c : report.candidates) {
          if (c.kind != report.chosen.kind) continue;
          c.eligible = false;
          c.detail = "failed: " + result.status().ToString();
        }
        next = ChooseCandidate(report.candidates, budget);
      } else {
        // Fallbacks by predicted error (a tie keeps BasicCongress first),
        // then exact. Every rung is attempted, scored or not, so the cause
        // names each one that could not answer.
        const bool house_first =
            FindCandidate(report.candidates, PlanKind::kFallbackHouse)
                ->predicted_relative_error <
            FindCandidate(report.candidates, PlanKind::kFallbackBasic)
                ->predicted_relative_error;
        const PlanKind ladder[] = {
            house_first ? PlanKind::kFallbackHouse : PlanKind::kFallbackBasic,
            house_first ? PlanKind::kFallbackBasic : PlanKind::kFallbackHouse,
            PlanKind::kExact};
        if (next_rung < std::size(ladder)) {
          next = FindCandidate(report.candidates, ladder[next_rung++]);
        }
      }
      if (next == nullptr) {
        return Status::Internal("all degradation rungs failed: " + causes);
      }
      switch_to(*next);
      continue;
    }

    answer.result = std::move(result).value();
    answer.degradation = DegradationReason{};
    if (!causes.empty()) {
      answer.degradation.level = rung.level;
      answer.degradation.cause = causes;
      if (report.chosen.kind == PlanKind::kFallbackBasic ||
          report.chosen.kind == PlanKind::kFallbackHouse) {
        answer.degradation.bound_widening =
            FallbackWidening(report.candidates, report.chosen.kind);
        answer.result =
            WidenBounds(answer.result, answer.degradation.bound_widening);
      }
    }
    if (!budget.has_error_budget()) break;
    const double realized =
        WorstRelativeBound(answer.result, kEstimateFloor);
    report.realized_relative_error = realized;
    if (realized <= budget.relative_error) break;

    const CandidateScore* next = nullptr;
    if (report.chosen.kind != PlanKind::kCombined &&
        report.chosen.kind != PlanKind::kExact) {
      next = FindCandidate(report.candidates, PlanKind::kCombined);
      if (next != nullptr && !next->eligible) next = nullptr;
    }
    if (next == nullptr && report.chosen.kind != PlanKind::kExact) {
      next = FindCandidate(report.candidates, PlanKind::kExact);
      if (next != nullptr && !next->eligible) next = nullptr;
    }
    if (next == nullptr) break;  // Nowhere stronger.
    switch_to(*next);
    report.escalations += 1;
    CONGRESS_METRIC_INCR("planner.escalations", 1);
  }
  if (answer.degradation.degraded()) {
    CONGRESS_METRIC_INCR("resilience.degraded_answers", 1);
    if (report.chosen.kind == PlanKind::kExact) {
      CONGRESS_METRIC_INCR("resilience.exact_rebuilds", 1);
    }
  }
  if (report.chosen.kind == PlanKind::kCombined) {
    CONGRESS_METRIC_INCR("planner.combined_plans", 1);
  } else if (report.chosen.kind == PlanKind::kExact) {
    CONGRESS_METRIC_INCR("planner.exact_plans", 1);
  }
  return answer;
}

}  // namespace congress::planner
