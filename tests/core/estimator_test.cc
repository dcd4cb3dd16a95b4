#include "core/estimator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/synopsis.h"
#include "engine/executor.h"
#include "engine/expression.h"
#include "obs/metrics.h"
#include "sampling/builder.h"
#include "sampling/moments.h"

namespace congress {
namespace {

Schema BaseSchema() {
  return Schema({Field{"g", DataType::kInt64},
                 Field{"h", DataType::kInt64},
                 Field{"v", DataType::kDouble}});
}

/// Deterministic table: group g in {0,1,2} x h in {0,1}; v varies.
Table MakeTable(int per_group = 50) {
  Table t{BaseSchema()};
  int serial = 0;
  for (int g = 0; g < 3; ++g) {
    for (int h = 0; h < 2; ++h) {
      for (int i = 0; i < per_group; ++i) {
        EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(static_cast<int64_t>(h)),
                                 Value(static_cast<double>(serial++ % 17))})
                        .ok());
      }
    }
  }
  return t;
}

GroupByQuery SumQuery(std::vector<size_t> group_cols) {
  GroupByQuery q;
  q.group_columns = std::move(group_cols);
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                  AggregateSpec{AggregateKind::kCount, 0},
                  AggregateSpec{AggregateKind::kAvg, 2}};
  return q;
}

TEST(EstimatorTest, FullSampleReproducesExactAnswer) {
  Table t = MakeTable();
  Random rng(1);
  // 100% sample: every scale factor is 1, so answers are exact.
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse,
                            static_cast<double>(t.num_rows()), &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  auto exact = ExecuteExact(t, q);
  auto approx = EstimateGroupBy(*sample, q);
  ASSERT_TRUE(exact.ok() && approx.ok());
  ASSERT_EQ(approx->num_groups(), exact->num_groups());
  for (const GroupResult& row : exact->rows()) {
    const ApproximateGroupRow* est = approx->Find(row.key);
    ASSERT_NE(est, nullptr);
    for (size_t a = 0; a < row.aggregates.size(); ++a) {
      EXPECT_NEAR(est->estimates[a], row.aggregates[a],
                  1e-9 * std::max(1.0, std::fabs(row.aggregates[a])));
      EXPECT_NEAR(est->std_errors[a], 0.0, 1e-9);
    }
  }
}

TEST(EstimatorTest, UnbiasedOverManySamples) {
  Table t = MakeTable();
  GroupByQuery q = SumQuery({0});
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());

  const int trials = 200;
  std::unordered_map<GroupKey, double, GroupKeyHash> sums;
  for (int trial = 0; trial < trials; ++trial) {
    Random rng(1000 + trial);
    auto sample =
        BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
    ASSERT_TRUE(sample.ok());
    auto approx = EstimateGroupBy(*sample, q);
    ASSERT_TRUE(approx.ok());
    for (const auto& row : approx->rows()) {
      sums[row.key] += row.estimates[0];
    }
  }
  for (const GroupResult& row : exact->rows()) {
    double mean = sums[row.key] / trials;
    // SUM over ~17-valued data: allow 5% statistical tolerance.
    EXPECT_NEAR(mean, row.aggregates[0], 0.05 * row.aggregates[0])
        << GroupKeyToString(row.key);
  }
}

TEST(EstimatorTest, CountEstimateMatchesPopulationWithoutPredicate) {
  Table t = MakeTable();
  Random rng(2);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0, 1});
  auto approx = EstimateGroupBy(*sample, q);
  ASSERT_TRUE(approx.ok());
  // COUNT per finest group with no predicate is n_g exactly (the
  // expansion estimator is deterministic there); each (g, h) group in the
  // fixture has 50 tuples.
  for (const auto& row : approx->rows()) {
    EXPECT_NEAR(row.estimates[1], 50.0, 1e-9);
  }
}

TEST(EstimatorTest, PredicateRestrictsSupport) {
  Table t = MakeTable();
  Random rng(3);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 120.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  q.predicate = MakeEqualsPredicate(1, Value(int64_t{0}));
  auto approx = EstimateGroupBy(*sample, q);
  ASSERT_TRUE(approx.ok());
  GroupByQuery q_all = SumQuery({0});
  auto approx_all = EstimateGroupBy(*sample, q_all);
  ASSERT_TRUE(approx_all.ok());
  for (const auto& row : approx->rows()) {
    const ApproximateGroupRow* all = approx_all->Find(row.key);
    ASSERT_NE(all, nullptr);
    EXPECT_LT(row.support, all->support);
    EXPECT_LT(row.estimates[1], all->estimates[1]);
  }
}

TEST(EstimatorTest, BoundsOrdering) {
  Table t = MakeTable();
  Random rng(4);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});

  EstimatorOptions se;
  se.bound_method = BoundMethod::kStandardError;
  EstimatorOptions cheb;
  cheb.bound_method = BoundMethod::kChebyshev;
  cheb.confidence = 0.90;
  auto r_se = EstimateGroupBy(*sample, q, se);
  auto r_cheb = EstimateGroupBy(*sample, q, cheb);
  ASSERT_TRUE(r_se.ok() && r_cheb.ok());
  for (size_t i = 0; i < r_se->rows().size(); ++i) {
    const auto& a = r_se->rows()[i];
    const auto& b = r_cheb->rows()[i];
    for (size_t k = 0; k < a.bounds.size(); ++k) {
      EXPECT_GE(a.bounds[k], 0.0);
      // Chebyshev at 90% multiplies stderr by 1/sqrt(0.1) ~ 3.16.
      EXPECT_NEAR(b.bounds[k], a.bounds[k] / std::sqrt(0.1), 1e-9);
    }
  }
}

TEST(EstimatorTest, HigherConfidenceWidensChebyshev) {
  Table t = MakeTable();
  Random rng(5);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({});
  EstimatorOptions c90;
  c90.confidence = 0.90;
  EstimatorOptions c99;
  c99.confidence = 0.99;
  auto r90 = EstimateGroupBy(*sample, q, c90);
  auto r99 = EstimateGroupBy(*sample, q, c99);
  ASSERT_TRUE(r90.ok() && r99.ok());
  EXPECT_GT(r99->rows()[0].bounds[0], r90->rows()[0].bounds[0]);
}

TEST(EstimatorTest, HoeffdingBoundPositiveForSumAndCount) {
  Table t = MakeTable();
  Random rng(6);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  EstimatorOptions hoeff;
  hoeff.bound_method = BoundMethod::kHoeffding;
  auto r = EstimateGroupBy(*sample, q, hoeff);
  ASSERT_TRUE(r.ok());
  for (const auto& row : r->rows()) {
    EXPECT_GT(row.bounds[0], 0.0);  // SUM.
    EXPECT_GT(row.bounds[1], 0.0);  // COUNT.
  }
}

TEST(EstimatorTest, BoundCoversTruthMostOfTheTime) {
  // With Chebyshev at 90%, the exact answer should fall within the bound
  // in well over half the trials (Chebyshev is conservative).
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  int covered = 0;
  int total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Random rng(2000 + trial);
    auto sample =
        BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
    ASSERT_TRUE(sample.ok());
    auto approx = EstimateGroupBy(*sample, q);
    ASSERT_TRUE(approx.ok());
    for (const GroupResult& row : exact->rows()) {
      const ApproximateGroupRow* est = approx->Find(row.key);
      ASSERT_NE(est, nullptr);
      ++total;
      if (std::fabs(est->estimates[0] - row.aggregates[0]) <=
          est->bounds[0]) {
        ++covered;
      }
    }
  }
  EXPECT_GT(static_cast<double>(covered) / total, 0.85);
}

TEST(EstimatorTest, MissingGroupsAbsentFromAnswer) {
  Table t = MakeTable(5);  // Tiny groups.
  Random rng(7);
  // House with a 10% sample leaves some finest groups empty.
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 3.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0, 1});
  auto approx = EstimateGroupBy(*sample, q);
  ASSERT_TRUE(approx.ok());
  EXPECT_LT(approx->num_groups(), 6u);
}

TEST(EstimatorTest, RejectsMinMax) {
  Table t = MakeTable();
  Random rng(8);
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 30.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kMin, 2}};
  EXPECT_FALSE(EstimateGroupBy(*sample, q).ok());
}

TEST(EstimatorTest, RejectsBadArguments) {
  Table t = MakeTable();
  Random rng(9);
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 30.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q;
  q.group_columns = {0};
  EXPECT_FALSE(EstimateGroupBy(*sample, q).ok());  // No aggregates.
  q = SumQuery({99});
  EXPECT_FALSE(EstimateGroupBy(*sample, q).ok());  // Bad group column.
  q = SumQuery({0});
  EstimatorOptions bad;
  bad.confidence = 1.5;
  EXPECT_FALSE(EstimateGroupBy(*sample, q, bad).ok());
}

TEST(EstimatorTest, AvgIsRatioOfSumAndCount) {
  Table t = MakeTable();
  Random rng(10);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 90.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  auto approx = EstimateGroupBy(*sample, q);
  ASSERT_TRUE(approx.ok());
  for (const auto& row : approx->rows()) {
    EXPECT_NEAR(row.estimates[2], row.estimates[0] / row.estimates[1], 1e-9);
  }
}

TEST(ApproximateResultTest, FindAndSort) {
  ApproximateResult r;
  ApproximateGroupRow row1;
  row1.key = {Value(int64_t{2})};
  row1.estimates = {1.0};
  row1.std_errors = {0.0};
  row1.bounds = {0.0};
  ApproximateGroupRow row2;
  row2.key = {Value(int64_t{1})};
  row2.estimates = {2.0};
  row2.std_errors = {0.0};
  row2.bounds = {0.0};
  r.Add(row1);
  r.Add(row2);
  r.SortByKey();
  EXPECT_EQ(r.rows()[0].key[0], Value(int64_t{1}));
  ASSERT_NE(r.Find({Value(int64_t{2})}), nullptr);
  EXPECT_EQ(r.Find({Value(int64_t{3})}), nullptr);
  QueryResult qr = r.ToQueryResult();
  EXPECT_EQ(qr.num_groups(), 2u);
}

TEST(ApproximateResultTest, FindOnUnsortedAndFilteredResults) {
  ApproximateResult r;
  for (int64_t k : {3, 1, 2}) {
    ApproximateGroupRow row;
    row.key = {Value(k)};
    row.estimates = {static_cast<double>(10 * k)};
    row.std_errors = {0.0};
    row.bounds = {0.0};
    r.Add(row);
  }
  // Insertion order, not key order: Find must still see every group.
  ASSERT_NE(r.Find({Value(int64_t{1})}), nullptr);
  EXPECT_EQ(r.Find({Value(int64_t{3})})->estimates[0], 30.0);
  EXPECT_EQ(r.Find({Value(int64_t{4})}), nullptr);
  r.SortByKey();
  HavingCondition keep_big;
  keep_big.aggregate_index = 0;
  keep_big.op = CompareOp::kGe;
  keep_big.value = 20.0;
  r.FilterHaving({keep_big});
  ASSERT_EQ(r.num_groups(), 2u);
  EXPECT_EQ(r.rows()[0].key[0], Value(int64_t{2}));
  EXPECT_EQ(r.Find({Value(int64_t{1})}), nullptr);
  ASSERT_NE(r.Find({Value(int64_t{3})}), nullptr);
  EXPECT_EQ(r.Find({Value(int64_t{3})})->estimates[0], 30.0);
}

void ExpectSameBits(const ApproximateResult& a, const ApproximateResult& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (size_t g = 0; g < a.num_groups(); ++g) {
    const ApproximateGroupRow& x = a.rows()[g];
    const ApproximateGroupRow& y = b.rows()[g];
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.support, y.support);
    // EXPECT_EQ on doubles is exact: the two paths must agree bitwise.
    EXPECT_EQ(x.estimates, y.estimates) << GroupKeyToString(x.key);
    EXPECT_EQ(x.std_errors, y.std_errors) << GroupKeyToString(x.key);
    EXPECT_EQ(x.bounds, y.bounds) << GroupKeyToString(x.key);
  }
}

TEST(EstimatorTest, RollupMatchesSampleScanBitwise) {
  Table t = MakeTable();
  Random rng(11);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 90.0, &rng);
  ASSERT_TRUE(sample.ok());
  const SampleMoments moments = SampleMoments::Compute(*sample);
  GroupByQuery by_h = SumQuery({1});
  by_h.predicate =
      MakeComparisonPredicate(0, CompareOp::kNe, Value(int64_t{1}));
  for (const GroupByQuery& q : {SumQuery({}), SumQuery({0}), SumQuery({1, 0}),
                                SumQuery({0, 1}), by_h}) {
    ASSERT_TRUE(IsStratumRollup(*sample, q));
    for (BoundMethod method :
         {BoundMethod::kChebyshev, BoundMethod::kHoeffding}) {
      EstimatorOptions options;
      options.bound_method = method;
      auto scan = EstimateGroupBy(*sample, q, options);
      auto rollup = EstimateRollup(*sample, moments, q, options);
      ASSERT_TRUE(scan.ok() && rollup.ok());
      ExpectSameBits(*scan, *rollup);
      options.excluded_strata = {0, 3};
      scan = EstimateGroupBy(*sample, q, options);
      rollup = EstimateRollup(*sample, moments, q, options);
      ASSERT_TRUE(scan.ok() && rollup.ok());
      ExpectSameBits(*scan, *rollup);
    }
  }
}

TEST(EstimatorTest, RollupKeysComeFromTheSampleRows) {
  // One stratum whose key (first seen in the base relation) is 0.0 while
  // its first sampled row holds -0.0: the moments path must key the group
  // as the sample scan does, sign bit included.
  Schema schema({Field{"d", DataType::kDouble}, Field{"v", DataType::kDouble}});
  StratifiedSample sample(schema, {0});
  ASSERT_TRUE(sample.DeclareStratum({Value(0.0)}, 10).ok());
  ASSERT_TRUE(sample.DeclareStratum({Value(1.0)}, 10).ok());
  ASSERT_TRUE(sample.AppendRowValues({Value(1.0), Value(4.0)}).ok());
  ASSERT_TRUE(sample.AppendRowValues({Value(-0.0), Value(2.0)}).ok());
  ASSERT_TRUE(sample.AppendRowValues({Value(0.0), Value(3.0)}).ok());
  // NaN equals no declared key, so no sample holds a NaN grouping value.
  EXPECT_FALSE(sample.AppendRowValues({Value(std::nan("")), Value(1.0)}).ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1}};
  auto scan = EstimateGroupBy(sample, q);
  auto rollup = EstimateRollup(sample, SampleMoments::Compute(sample), q);
  ASSERT_TRUE(scan.ok() && rollup.ok());
  ASSERT_EQ(rollup->num_groups(), 2u);
  EXPECT_TRUE(std::signbit(rollup->rows()[0].key[0].AsDouble()));
  ExpectSameBits(*scan, *rollup);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

TEST(EstimatorTest, AnswerReadsNoSampleRowsForGroupingPredicates) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "kernel tallies are compiled out";
#endif
  Table t = MakeTable();
  SynopsisConfig config;
  config.grouping_columns = {"g", "h"};
  config.sample_fraction = 0.5;
  auto synopsis = AquaSynopsis::Build(t, config);
  ASSERT_TRUE(synopsis.ok()) << synopsis.status().ToString();
  auto rows_read = [&](const GroupByQuery& q) {
    const uint64_t matched = CounterValue("kernels.match.rows_in");
    const uint64_t evaluated = CounterValue("kernels.eval.rows");
    auto answer = synopsis->Answer(q);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_GT(answer->num_groups(), 0u);
    return (CounterValue("kernels.match.rows_in") - matched) +
           (CounterValue("kernels.eval.rows") - evaluated);
  };

  GroupByQuery on_grouping = SumQuery({0});
  on_grouping.predicate =
      MakeAndPredicate({MakeRangePredicate(0, 0, 1),
                        MakeEqualsPredicate(1, Value(int64_t{1}))});
  EXPECT_EQ(rows_read(on_grouping), 0u);
  EXPECT_EQ(rows_read(SumQuery({1})), 0u);

  // A measure-column predicate, an expression aggregate and a grouping
  // finer than the strata still scan the sample.
  GroupByQuery on_measure = SumQuery({0});
  on_measure.predicate = MakeRangePredicate(2, 0, 8);
  EXPECT_FALSE(IsStratumRollup(synopsis->sample(), on_measure));
  EXPECT_GT(rows_read(on_measure), 0u);
  GroupByQuery expression = SumQuery({0});
  expression.aggregates[0] = AggregateSpec{
      AggregateKind::kSum,
      MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(2), MakeLiteralExpr(2.0))};
  EXPECT_FALSE(IsStratumRollup(synopsis->sample(), expression));
  EXPECT_GT(rows_read(expression), 0u);
  GroupByQuery finer = SumQuery({0, 2});
  EXPECT_FALSE(IsStratumRollup(synopsis->sample(), finer));
  EXPECT_GT(rows_read(finer), 0u);
}

}  // namespace
}  // namespace congress