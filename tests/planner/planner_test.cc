#include "planner/planner.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/aqua.h"
#include "engine/executor.h"
#include "planner/error_model.h"
#include "sql/parser.h"

namespace congress {
namespace {

using planner::ExecuteCombinedPlan;
using planner::FleetEligibility;
using planner::JoinSampleEligibility;
using planner::PlanKind;
using planner::Planner;
using planner::PlannerOptions;
using planner::PredictSampleError;

/// Skewed two-level grouping: one dominant group and a long tail, the
/// shape where a combined (exact outliers + sampled tail) plan pays off.
Table SalesTable() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](const char* region, int64_t kind, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(region), Value(kind),
                               Value(static_cast<double>(serial++ % 13 + 1))})
                      .ok());
    }
  };
  fill("east", 0, 900);
  fill("east", 1, 300);
  fill("west", 0, 160);
  fill("west", 1, 90);
  fill("north", 0, 40);
  fill("south", 0, 10);
  return t;
}

SynopsisConfig SalesConfig() {
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind"};
  config.sample_fraction = 0.15;
  config.seed = 11;
  return config;
}

GroupByQuery SumQuery() {
  GroupByQuery query;
  query.group_columns = {0};  // region
  query.aggregates.emplace_back(AggregateKind::kSum, 2);
  query.aggregates.emplace_back(AggregateKind::kAvg, 2);
  return query;
}

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        engine_.RegisterTable("sales", SalesTable(), SalesConfig()).ok());
    auto snapshot = engine_.GetSnapshot("sales");
    ASSERT_TRUE(snapshot.ok());
    snapshot_ = std::move(snapshot).value();
  }
  AquaEngine engine_;
  std::shared_ptr<const AquaSnapshot> snapshot_;
};

TEST_F(PlannerTest, PredictionIsFiniteAndExactForPlainRollup) {
  auto prediction = PredictSampleError(*snapshot_->synopsis, SumQuery(), 0.95);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_TRUE(prediction->exact_model);
  EXPECT_GT(prediction->max_relative_bound, 0.0);
  EXPECT_TRUE(std::isfinite(prediction->max_relative_bound));
  EXPECT_GT(prediction->mean_variance, 0.0);
  EXPECT_EQ(prediction->num_groups, 4u);  // 4 regions.
}

TEST_F(PlannerTest, PredictedBoundIsTheRealizedBoundForPlainRollups) {
  // Without a predicate the error model and Answer fold the same
  // per-stratum terms and finish them through the same bound model.
  for (BoundMethod method :
       {BoundMethod::kChebyshev, BoundMethod::kHoeffding}) {
    SynopsisConfig config = SalesConfig();
    config.estimator.bound_method = method;
    auto synopsis = AquaSynopsis::Build(SalesTable(), config);
    ASSERT_TRUE(synopsis.ok()) << synopsis.status().ToString();
    for (std::vector<size_t> grouping : {std::vector<size_t>{},
                                         std::vector<size_t>{0},
                                         std::vector<size_t>{1},
                                         std::vector<size_t>{0, 1}}) {
      for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kCount,
                                 AggregateKind::kAvg}) {
        GroupByQuery query;
        query.group_columns = grouping;
        query.aggregates.emplace_back(kind, 2);
        auto answer = synopsis->Answer(query);
        auto prediction = PredictSampleError(
            *synopsis, query, config.estimator.confidence);
        ASSERT_TRUE(answer.ok() && prediction.ok());
        ASSERT_EQ(prediction->num_groups, answer->num_groups());
        double worst = 0.0;
        double total = 0.0;
        for (const ApproximateGroupRow& row : answer->rows()) {
          const double relative =
              row.bounds[0] / std::max(std::fabs(row.estimates[0]), 1e-9);
          worst = std::max(worst, relative);
          total += relative;
        }
        const double mean = total / static_cast<double>(answer->num_groups());
        const std::string label =
            std::string(BoundMethodToString(method)) + " " +
            AggregateKindToString(kind) + " over " +
            std::to_string(grouping.size()) + " columns";
        EXPECT_NEAR(prediction->max_relative_bound, worst, 1e-12 * worst)
            << label;
        EXPECT_NEAR(prediction->mean_relative_bound, mean, 1e-12 * mean)
            << label;
      }
    }
  }
}

TEST_F(PlannerTest, ExcludedStrataLowerThePrediction) {
  auto all = PredictSampleError(*snapshot_->synopsis, SumQuery(), 0.95);
  ASSERT_TRUE(all.ok());
  // Excluding the dominant strata removes their variance contribution.
  auto tail_only =
      PredictSampleError(*snapshot_->synopsis, SumQuery(), 0.95, {0, 1});
  ASSERT_TRUE(tail_only.ok());
  EXPECT_LT(tail_only->mean_variance, all->mean_variance);
  EXPECT_FALSE(
      PredictSampleError(*snapshot_->synopsis, SumQuery(), 0.95, {99}).ok());
}

TEST_F(PlannerTest, PredictionRejectsMinMaxAndBadConfidence) {
  GroupByQuery query = SumQuery();
  query.aggregates.emplace_back(AggregateKind::kMin, 2);
  EXPECT_FALSE(PredictSampleError(*snapshot_->synopsis, query, 0.95).ok());
  EXPECT_FALSE(PredictSampleError(*snapshot_->synopsis, SumQuery(), 0.0).ok());
  EXPECT_FALSE(PredictSampleError(*snapshot_->synopsis, SumQuery(), 1.0).ok());
}

TEST_F(PlannerTest, FleetEligibilityRules) {
  const std::vector<size_t> grouping = {0, 1};
  EXPECT_TRUE(FleetEligibility(SumQuery(), grouping).ok());

  GroupByQuery refined = SumQuery();
  refined.group_columns = {2};  // Not in the synopsis grouping.
  EXPECT_FALSE(FleetEligibility(refined, grouping).ok());

  GroupByQuery min_query = SumQuery();
  min_query.aggregates[0].kind = AggregateKind::kMin;
  EXPECT_FALSE(FleetEligibility(min_query, grouping).ok());
}

TEST_F(PlannerTest, NoBudgetPlanIsThePrimarySynopsis) {
  Planner planner;
  auto report = planner.Plan(*snapshot_, SumQuery());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->chosen.kind, PlanKind::kPrimarySynopsis);
  EXPECT_EQ(report->candidates.size(), planner::kNumPlanKinds);
}

TEST_F(PlannerTest, NoBudgetRunIsBitIdenticalToSynopsisAnswer) {
  Planner planner;
  auto planned = planner.Run(*snapshot_, SumQuery());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto direct = snapshot_->synopsis->Answer(SumQuery());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(planned->result.num_groups(), direct->num_groups());
  for (const ApproximateGroupRow& row : direct->rows()) {
    const ApproximateGroupRow* got = planned->result.Find(row.key);
    ASSERT_NE(got, nullptr);
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      EXPECT_EQ(got->estimates[a], row.estimates[a]);
      EXPECT_EQ(got->std_errors[a], row.std_errors[a]);
      EXPECT_EQ(got->bounds[a], row.bounds[a]);
    }
  }
}

TEST_F(PlannerTest, ErrorBudgetIsHonoredOrEscalated) {
  GroupByQuery query = SumQuery();
  query.budget.relative_error = 0.05;
  query.budget.confidence = 0.95;
  Planner planner;
  auto planned = planner.Run(*snapshot_, query);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GE(planned->report.realized_relative_error, 0.0);
  EXPECT_LE(planned->report.realized_relative_error, 0.05);
  // Exact answers have zero-width bounds, so a tight promise is always
  // eventually kept — possibly after escalation.
  auto exact = ExecuteExact(*snapshot_->table, query);
  ASSERT_TRUE(exact.ok());
  for (const GroupResult& row : exact->rows()) {
    const ApproximateGroupRow* got = planned->result.Find(row.key);
    ASSERT_NE(got, nullptr);
    for (size_t a = 0; a < row.aggregates.size(); ++a) {
      EXPECT_LE(std::fabs(got->estimates[a] - row.aggregates[a]),
                got->bounds[a] + 1e-9);
    }
  }
}

TEST_F(PlannerTest, ImpossibleBudgetChoosesExact) {
  GroupByQuery query = SumQuery();
  query.budget.relative_error = 1e-6;
  query.budget.confidence = 0.99;
  Planner planner;
  auto planned = planner.Run(*snapshot_, query);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->report.chosen.kind, PlanKind::kExact);
  EXPECT_EQ(planned->report.realized_relative_error, 0.0);
  for (const ApproximateGroupRow& row : planned->result.rows()) {
    EXPECT_EQ(row.provenance, GroupProvenance::kExact);
    for (double b : row.bounds) EXPECT_EQ(b, 0.0);
  }
}

TEST_F(PlannerTest, TimeBudgetPicksAnEligiblePlan) {
  GroupByQuery query = SumQuery();
  query.budget.time_budget_ms = 5.0;
  Planner planner;
  auto planned = planner.Run(*snapshot_, query);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GT(planned->result.num_groups(), 0u);
  const bool found =
      std::any_of(planned->report.candidates.begin(),
                  planned->report.candidates.end(),
                  [&](const planner::CandidateScore& c) {
                    return c.kind == planned->report.chosen.kind && c.eligible;
                  });
  EXPECT_TRUE(found);
}

TEST_F(PlannerTest, CombinedPlanStitchesExactOutliersAndSampledTail) {
  const std::vector<Stratum>& strata = snapshot_->synopsis->sample().strata();
  // Answer the two most populous strata exactly.
  std::vector<uint32_t> outliers;
  {
    uint32_t first = 0, second = 0;
    uint64_t best = 0, next = 0;
    for (uint32_t s = 0; s < strata.size(); ++s) {
      if (strata[s].population > best) {
        next = best;
        second = first;
        best = strata[s].population;
        first = s;
      } else if (strata[s].population > next) {
        next = strata[s].population;
        second = s;
      }
    }
    outliers = {std::min(first, second), std::max(first, second)};
  }
  auto combined = ExecuteCombinedPlan(*snapshot_, SumQuery(), outliers, 0.95);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();

  auto exact = ExecuteExact(*snapshot_->table, SumQuery());
  ASSERT_TRUE(exact.ok());
  bool saw_combined = false;
  for (const ApproximateGroupRow& row : combined->rows()) {
    saw_combined =
        saw_combined || row.provenance == GroupProvenance::kCombined ||
        row.provenance == GroupProvenance::kExact;
    const GroupResult* truth = exact->Find(row.key);
    ASSERT_NE(truth, nullptr);
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      EXPECT_LE(std::fabs(row.estimates[a] - truth->aggregates[a]),
                row.bounds[a] + 1e-9)
          << "group " << a;
    }
  }
  EXPECT_TRUE(saw_combined);
}

TEST_F(PlannerTest, FullPopulationCombinedPlanMatchesExact) {
  // A 100% sample makes every stratum's tail exact, so the combined
  // answer must reproduce ExecuteExact to float identity.
  AquaEngine full;
  SynopsisConfig config = SalesConfig();
  config.sample_fraction = 1.0;
  ASSERT_TRUE(full.RegisterTable("sales", SalesTable(), config).ok());
  auto snapshot = full.GetSnapshot("sales");
  ASSERT_TRUE(snapshot.ok());
  auto combined = ExecuteCombinedPlan(**snapshot, SumQuery(), {0}, 0.95);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  auto exact = ExecuteExact(*(*snapshot)->table, SumQuery());
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(combined->num_groups(), exact->rows().size());
  for (const GroupResult& row : exact->rows()) {
    const ApproximateGroupRow* got = combined->Find(row.key);
    ASSERT_NE(got, nullptr);
    for (size_t a = 0; a < row.aggregates.size(); ++a) {
      EXPECT_NEAR(got->estimates[a], row.aggregates[a],
                  1e-9 * std::max(1.0, std::fabs(row.aggregates[a])));
    }
  }
}

TEST_F(PlannerTest, SqlBudgetRoutesThroughPlanner) {
  auto result = engine_.Query(
      "SELECT region, SUM(amount) FROM sales GROUP BY region "
      "WITHIN 5% CONFIDENCE 95");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto exact = engine_.QueryExact(
      "SELECT region, SUM(amount) FROM sales GROUP BY region");
  ASSERT_TRUE(exact.ok());
  for (const GroupResult& row : exact->rows()) {
    const ApproximateGroupRow* got = result->Find(row.key);
    ASSERT_NE(got, nullptr);
    EXPECT_LE(got->bounds[0], 0.05 * std::fabs(got->estimates[0]) + 1e-9);
  }
}

TEST_F(PlannerTest, ExplainPlanNamesCandidatesAndChoice) {
  auto report = engine_.ExplainPlan(
      "SELECT region, SUM(amount) FROM sales GROUP BY region "
      "WITHIN 10% CONFIDENCE 90");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("plan: "), std::string::npos);
  EXPECT_NE(report->find("candidates:"), std::string::npos);
  EXPECT_NE(report->find("primary-synopsis"), std::string::npos);
  EXPECT_NE(report->find("exact"), std::string::npos);
  EXPECT_NE(report->find("budget: "), std::string::npos);
}

TEST_F(PlannerTest, QueryPlannedReportsRealizedError) {
  auto planned = engine_.QueryPlanned(
      "SELECT region, SUM(amount) FROM sales GROUP BY region "
      "WITHIN 20% CONFIDENCE 90");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GE(planned->report.realized_relative_error, 0.0);
  EXPECT_LE(planned->report.realized_relative_error, 0.20);
}

TEST_F(PlannerTest, FleetMembersJoinThePlanUnderTimeBudgets) {
  AquaEngine fleet;
  SynopsisConfig config = SalesConfig();
  config.fleet_histogram = true;
  config.fleet_wavelet = true;
  ASSERT_TRUE(fleet.RegisterTable("sales", SalesTable(), config).ok());
  auto snapshot = fleet.GetSnapshot("sales");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_NE((*snapshot)->histogram, nullptr)
      << (*snapshot)->histogram_status.ToString();
  ASSERT_NE((*snapshot)->wavelet, nullptr)
      << (*snapshot)->wavelet_status.ToString();
  EXPECT_GE((*snapshot)->histogram_residual, 0.0);

  Planner planner;
  GroupByQuery timed = SumQuery();
  timed.budget.time_budget_ms = 100.0;
  auto report = planner.Plan(**snapshot, timed);
  ASSERT_TRUE(report.ok());
  bool histogram_eligible = false;
  for (const planner::CandidateScore& c : report->candidates) {
    if (c.kind == PlanKind::kHistogram) histogram_eligible = c.eligible;
  }
  EXPECT_TRUE(histogram_eligible);

  // Summaries carry no probabilistic guarantee: never offered against an
  // error promise.
  GroupByQuery promised = SumQuery();
  promised.budget.relative_error = 0.5;
  promised.budget.confidence = 0.9;
  auto strict = planner.Plan(**snapshot, promised);
  ASSERT_TRUE(strict.ok());
  for (const planner::CandidateScore& c : strict->candidates) {
    if (c.kind == PlanKind::kHistogram || c.kind == PlanKind::kWavelet) {
      EXPECT_FALSE(c.eligible);
    }
  }
}

TEST_F(PlannerTest, JoinSampleEligibilityRequiresFactMeasures) {
  Table fact{
      Schema({Field{"fk", DataType::kInt64}, Field{"m", DataType::kDouble}})};
  ASSERT_TRUE(fact.AppendRow({Value(int64_t{1}), Value(2.0)}).ok());
  Table dim{
      Schema({Field{"k", DataType::kInt64}, Field{"attr", DataType::kDouble}})};
  ASSERT_TRUE(dim.AppendRow({Value(int64_t{1}), Value(7.0)}).ok());
  StarSchema star;
  star.fact = &fact;
  star.dimensions.push_back(DimensionSpec{&dim, 0, 0, "d_"});

  GroupByQuery fact_measure;
  fact_measure.group_columns = {2};  // Widened dimension attribute.
  fact_measure.aggregates.emplace_back(AggregateKind::kSum, 1);  // Fact.
  EXPECT_TRUE(JoinSampleEligibility(star, fact_measure).ok());

  GroupByQuery dim_measure = fact_measure;
  dim_measure.aggregates[0].column = 2;  // Dimension attribute.
  EXPECT_FALSE(JoinSampleEligibility(star, dim_measure).ok());
}

}  // namespace
}  // namespace congress
