#include "core/synopsis.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "storage/group_index.h"

namespace congress {
namespace {

Table MakeBase() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](const char* region, int64_t kind, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(t.AppendRow({Value(region), Value(kind),
                               Value(static_cast<double>(serial++ % 9 + 1))})
                      .ok());
    }
  };
  fill("east", 0, 500);
  fill("east", 1, 300);
  fill("west", 0, 150);
  fill("west", 1, 50);
  return t;
}

SynopsisConfig BaseConfig() {
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind"};
  config.sample_fraction = 0.2;
  config.seed = 11;
  return config;
}

GroupByQuery SumQuery() {
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  return q;
}

TEST(AquaSynopsisTest, BuildAndAnswer) {
  Table base = MakeBase();
  auto synopsis = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ(synopsis->sample().num_rows(), 200u);
  EXPECT_EQ(synopsis->sample().total_population(), 1000u);
  EXPECT_EQ(synopsis->grouping_column_indices(),
            (std::vector<size_t>{0, 1}));

  auto answer = synopsis->Answer(SumQuery());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->num_groups(), 2u);

  auto exact = ExecuteExact(base, SumQuery());
  ASSERT_TRUE(exact.ok());
  for (const GroupResult& row : exact->rows()) {
    const ApproximateGroupRow* est = answer->Find(row.key);
    ASSERT_NE(est, nullptr);
    // 20% Congress sample on mild data: within 25%.
    EXPECT_NEAR(est->estimates[0], row.aggregates[0],
                0.25 * row.aggregates[0]);
  }
}

TEST(AquaSynopsisTest, AbsoluteSampleSizeOverridesFraction) {
  Table base = MakeBase();
  SynopsisConfig config = BaseConfig();
  config.sample_size = 75;
  config.sample_fraction = 0.9;  // Ignored.
  auto synopsis = AquaSynopsis::Build(base, config);
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ(synopsis->sample().num_rows(), 75u);
}

TEST(AquaSynopsisTest, AnswerViaEachStrategy) {
  Table base = MakeBase();
  auto synopsis = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(synopsis.ok());
  GroupByQuery q = SumQuery();
  auto reference = synopsis->AnswerVia(q, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(reference.ok());
  for (auto strategy :
       {RewriteStrategy::kNestedIntegrated, RewriteStrategy::kNormalized,
        RewriteStrategy::kKeyNormalized}) {
    auto result = synopsis->AnswerVia(q, strategy);
    ASSERT_TRUE(result.ok());
    for (const GroupResult& row : reference->rows()) {
      const GroupResult* other = result->Find(row.key);
      ASSERT_NE(other, nullptr);
      EXPECT_NEAR(other->aggregates[0], row.aggregates[0],
                  1e-6 * row.aggregates[0]);
    }
  }
}

TEST(AquaSynopsisTest, ConcurrentAnswerViaSharesOneLazyRewriter) {
  // The rewrite materializations are built on first use. Four threads
  // race that first use on one frozen, shared synopsis: each must get
  // the same rewriter and the answers a serial synopsis gives.
  Table base = MakeBase();
  auto built = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(built.ok());
  auto shared = std::make_shared<const AquaSynopsis>(std::move(built).value());
  auto serial = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(serial.ok());
  const GroupByQuery q = SumQuery();
  const RewriteStrategy strategies[] = {
      RewriteStrategy::kIntegrated, RewriteStrategy::kNestedIntegrated,
      RewriteStrategy::kNormalized, RewriteStrategy::kKeyNormalized};

  constexpr size_t kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<const Rewriter*> seen(kThreads, nullptr);
  std::vector<std::vector<Result<QueryResult>>> answers(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (size_t i = 0; i < 4; ++i) {
        answers[t].push_back(
            shared->AnswerVia(q, strategies[(t + i) % 4]));
      }
      seen[t] = &shared->rewriter();
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(answers[t][i].ok());
      auto expected = serial->AnswerVia(q, strategies[(t + i) % 4]);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(answers[t][i]->rows().size(), expected->rows().size());
      for (const GroupResult& row : expected->rows()) {
        const GroupResult* got = answers[t][i]->Find(row.key);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->aggregates, row.aggregates);
      }
    }
  }
}

TEST(AquaSynopsisTest, BuildFromGroupIndexDrawsTheSameSample) {
  Table base = MakeBase();
  for (AllocationStrategy strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress}) {
    SynopsisConfig config = BaseConfig();
    config.strategy = strategy;
    auto index = GroupIndex::Build(base, {0, 1});
    ASSERT_TRUE(index.ok());
    auto with_index = AquaSynopsis::Build(base, config, *index);
    auto without = AquaSynopsis::Build(base, config);
    ASSERT_TRUE(with_index.ok());
    ASSERT_TRUE(without.ok());
    const StratifiedSample& a = with_index->sample();
    const StratifiedSample& b = without->sample();
    ASSERT_EQ(a.num_rows(), b.num_rows());
    EXPECT_EQ(a.row_strata(), b.row_strata());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.rows().num_columns(); ++c) {
        EXPECT_EQ(a.rows().GetValue(r, c), b.rows().GetValue(r, c));
      }
    }
  }
  // An index over other columns, or another table, is refused.
  auto wrong = GroupIndex::Build(base, {0});
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(AquaSynopsis::Build(base, BaseConfig(), *wrong).ok());
}

TEST(AquaSynopsisTest, BuildValidation) {
  Table base = MakeBase();
  SynopsisConfig config = BaseConfig();
  config.grouping_columns = {};
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());

  config = BaseConfig();
  config.grouping_columns = {"nonexistent"};
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());

  config = BaseConfig();
  config.sample_fraction = 0.0;
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());

  config = BaseConfig();
  config.sample_fraction = 1.5;
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());
}

TEST(AquaSynopsisTest, NonIncrementalRejectsInserts) {
  Table base = MakeBase();
  auto synopsis = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(synopsis.ok());
  Status st =
      synopsis->Insert({Value("east"), Value(int64_t{0}), Value(1.0)});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(synopsis->Refresh().ok());  // No-op.
}

TEST(AquaSynopsisTest, IncrementalInsertAndRefresh) {
  Table base = MakeBase();
  SynopsisConfig config = BaseConfig();
  config.incremental = true;
  config.strategy = AllocationStrategy::kSenate;
  auto synopsis = AquaSynopsis::Build(base, config);
  ASSERT_TRUE(synopsis.ok());
  uint64_t population_before = synopsis->sample().total_population();
  EXPECT_EQ(population_before, 1000u);
  auto before = synopsis->AnswerVia(SumQuery(), RewriteStrategy::kIntegrated);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->Find({Value("north")}), nullptr);

  // Insert a brand-new group and refresh.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        synopsis->Insert({Value("north"), Value(int64_t{0}), Value(2.0)})
            .ok());
  }
  ASSERT_TRUE(synopsis->Refresh().ok());
  EXPECT_EQ(synopsis->sample().total_population(), 1050u);
  auto idx =
      synopsis->sample().StratumIndex({Value("north"), Value(int64_t{0})});
  ASSERT_TRUE(idx.ok());
  EXPECT_GT(synopsis->sample().strata()[*idx].sample_count, 0u);

  // Queries see the new group after refresh, through the rewriter too
  // (built lazily for the refreshed sample, not the registered one).
  auto answer = synopsis->Answer(SumQuery());
  ASSERT_TRUE(answer.ok());
  EXPECT_NE(answer->Find({Value("north")}), nullptr);
  auto via = synopsis->AnswerVia(SumQuery(), RewriteStrategy::kIntegrated);
  ASSERT_TRUE(via.ok());
  EXPECT_NE(via->Find({Value("north")}), nullptr);
}

TEST(AquaSynopsisTest, IncrementalCongressStrategy) {
  Table base = MakeBase();
  SynopsisConfig config = BaseConfig();
  config.incremental = true;
  config.strategy = AllocationStrategy::kCongress;
  auto synopsis = AquaSynopsis::Build(base, config);
  ASSERT_TRUE(synopsis.ok());
  EXPECT_GT(synopsis->sample().num_rows(), 0u);
  auto answer = synopsis->Answer(SumQuery());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->num_groups(), 2u);
}

TEST(AquaSynopsisTest, RestoreServesQueriesButRejectsInserts) {
  Table base = MakeBase();
  auto built = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(built.ok());

  // Hand the sample alone to Restore, as recovery would after a crash.
  auto restored =
      AquaSynopsis::Restore(built->sample(), BaseConfig(), /*tuples_seen=*/1000);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->restored_from_snapshot());
  EXPECT_FALSE(built->restored_from_snapshot());

  SynopsisHealth health = restored->Health();
  EXPECT_TRUE(health.restored_from_snapshot);
  EXPECT_FALSE(health.can_insert);
  EXPECT_EQ(health.num_strata, built->sample().strata().size());
  EXPECT_EQ(health.num_rows, built->sample().num_rows());
  EXPECT_EQ(health.tuples_seen, 1000u);

  // Queries answer identically to the synopsis the sample came from.
  auto original = built->Answer(SumQuery());
  auto recovered = restored->Answer(SumQuery());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(original->num_groups(), recovered->num_groups());
  for (const ApproximateGroupRow& row : original->rows()) {
    const ApproximateGroupRow* other = recovered->Find(row.key);
    ASSERT_NE(other, nullptr);
    EXPECT_DOUBLE_EQ(row.estimates[0], other->estimates[0]);
    EXPECT_DOUBLE_EQ(row.bounds[0], other->bounds[0]);
  }

  // The maintainer RNG is gone with the crashed process: no inserts.
  Status st = restored->Insert({Value("east"), Value(int64_t{0}), Value(1.0)});
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace congress
