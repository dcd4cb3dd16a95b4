#include "core/aqua.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace congress {
namespace {

Table SalesTable() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](const char* region, int64_t kind, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(region), Value(kind),
                               Value(static_cast<double>(serial++ % 9 + 1))})
                      .ok());
    }
  };
  fill("east", 0, 600);
  fill("east", 1, 200);
  fill("west", 0, 150);
  fill("west", 1, 50);
  return t;
}

SynopsisConfig SalesConfig() {
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind"};
  config.sample_fraction = 0.2;
  config.seed = 3;
  return config;
}

class AquaEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterTable("sales", SalesTable(), SalesConfig())
                    .ok());
  }
  AquaEngine engine_;
};

TEST_F(AquaEngineTest, RegisterAndCatalog) {
  EXPECT_TRUE(engine_.HasTable("sales"));
  EXPECT_FALSE(engine_.HasTable("nope"));
  EXPECT_EQ(engine_.TableNames(), (std::vector<std::string>{"sales"}));
  EXPECT_FALSE(
      engine_.RegisterTable("sales", SalesTable(), SalesConfig()).ok());
  auto table = engine_.GetTable("sales");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1000u);
  auto synopsis = engine_.GetSynopsis("sales");
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ((*synopsis)->sample().num_rows(), 200u);
}

TEST_F(AquaEngineTest, RegisterFailsOnBadConfigWithoutRetaining) {
  SynopsisConfig bad = SalesConfig();
  bad.grouping_columns = {"nonexistent"};
  EXPECT_FALSE(engine_.RegisterTable("bad", SalesTable(), bad).ok());
  EXPECT_FALSE(engine_.HasTable("bad"));
}

TEST_F(AquaEngineTest, SqlQueryEndToEnd) {
  auto approx = engine_.Query(
      "SELECT region, SUM(amount) FROM sales GROUP BY region");
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_EQ(approx->num_groups(), 2u);
  auto exact = engine_.QueryExact(
      "SELECT region, SUM(amount) FROM sales GROUP BY region");
  ASSERT_TRUE(exact.ok());
  for (const GroupResult& row : exact->rows()) {
    const ApproximateGroupRow* est = approx->Find(row.key);
    ASSERT_NE(est, nullptr);
    EXPECT_NEAR(est->estimates[0], row.aggregates[0],
                0.2 * row.aggregates[0]);
    EXPECT_GT(est->bounds[0], 0.0);
  }
}

TEST_F(AquaEngineTest, QueryWithPredicate) {
  auto approx = engine_.Query(
      "SELECT SUM(amount) FROM sales WHERE kind = 1");
  ASSERT_TRUE(approx.ok());
  ASSERT_EQ(approx->num_groups(), 1u);
  auto all = engine_.Query("SELECT SUM(amount) FROM sales");
  ASSERT_TRUE(all.ok());
  EXPECT_LT(approx->rows()[0].estimates[0], all->rows()[0].estimates[0]);
}

TEST_F(AquaEngineTest, QueryViaStrategiesAgree) {
  const char* sql =
      "SELECT region, kind, AVG(amount), COUNT(*) FROM sales "
      "GROUP BY region, kind";
  auto reference = engine_.QueryVia(sql, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(reference.ok());
  for (auto strategy :
       {RewriteStrategy::kNestedIntegrated, RewriteStrategy::kNormalized,
        RewriteStrategy::kKeyNormalized}) {
    auto result = engine_.QueryVia(sql, strategy);
    ASSERT_TRUE(result.ok());
    for (const GroupResult& row : reference->rows()) {
      const GroupResult* other = result->Find(row.key);
      ASSERT_NE(other, nullptr);
      for (size_t a = 0; a < row.aggregates.size(); ++a) {
        EXPECT_NEAR(other->aggregates[a], row.aggregates[a],
                    1e-6 * std::abs(row.aggregates[a]) + 1e-9);
      }
    }
  }
}

TEST_F(AquaEngineTest, ExplainRewriteNamesSynopsisRelations) {
  auto sql = engine_.ExplainRewrite(
      "SELECT region, SUM(amount) FROM sales GROUP BY region",
      RewriteStrategy::kIntegrated);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("bs_sales"), std::string::npos);
  EXPECT_NE(sql->find("sum(amount*sf)"), std::string::npos);
  EXPECT_NE(sql->find("sum_error"), std::string::npos);

  auto normalized = engine_.ExplainRewrite(
      "SELECT region, SUM(amount) FROM sales GROUP BY region",
      RewriteStrategy::kNormalized);
  ASSERT_TRUE(normalized.ok());
  EXPECT_NE(normalized->find("aux_sales"), std::string::npos);
}

TEST_F(AquaEngineTest, ErrorsRouteCleanly) {
  EXPECT_FALSE(engine_.Query("SELECT SUM(amount) FROM unknown").ok());
  EXPECT_FALSE(engine_.Query("not sql at all").ok());
  EXPECT_FALSE(
      engine_.Query("SELECT SUM(bogus_column) FROM sales").ok());
  EXPECT_FALSE(engine_.QueryExact("SELECT SUM(x) FROM unknown").ok());
  EXPECT_FALSE(
      engine_.ExplainRewrite("garbage", RewriteStrategy::kIntegrated).ok());
}

TEST_F(AquaEngineTest, InsertRequiresIncrementalSynopsis) {
  Status st =
      engine_.Insert("sales", {Value("east"), Value(int64_t{0}), Value(1.0)});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Base table unchanged on failure.
  auto table = engine_.GetTable("sales");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1000u);
}

TEST_F(AquaEngineTest, IncrementalInsertFlowsThrough) {
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine.Insert("live", {Value("north"), Value(int64_t{2}), Value(5.0)})
            .ok());
  }
  ASSERT_TRUE(engine.Refresh("live").ok());
  auto table = engine.GetTable("live");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1100u);

  auto approx = engine.Query(
      "SELECT region, SUM(amount) FROM live GROUP BY region");
  ASSERT_TRUE(approx.ok());
  EXPECT_NE(approx->Find({Value("north")}), nullptr);
  auto exact = engine.QueryExact(
      "SELECT region, SUM(amount) FROM live GROUP BY region");
  ASSERT_TRUE(exact.ok());
  const GroupResult* north = exact->Find({Value("north")});
  ASSERT_NE(north, nullptr);
  EXPECT_DOUBLE_EQ(north->aggregates[0], 500.0);
}

TEST_F(AquaEngineTest, InsertBatchFlowsThrough) {
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  config.ingest_shards = 4;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back({Value("north"), Value(int64_t{2}), Value(5.0)});
  }
  ASSERT_TRUE(engine.InsertBatch("live", batch).ok());
  ASSERT_TRUE(engine.Refresh("live").ok());
  auto table = engine.GetTable("live");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1100u);
  auto exact = engine.QueryExact(
      "SELECT region, SUM(amount) FROM live GROUP BY region");
  ASSERT_TRUE(exact.ok());
  const GroupResult* north = exact->Find({Value("north")});
  ASSERT_NE(north, nullptr);
  EXPECT_DOUBLE_EQ(north->aggregates[0], 500.0);

  // One bad row rejects the whole batch and buffers nothing.
  batch.push_back({Value("torn")});
  EXPECT_FALSE(engine.InsertBatch("live", batch).ok());
  ASSERT_TRUE(engine.Refresh("live").ok());
  table = engine.GetTable("live");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1100u);
}

TEST_F(AquaEngineTest, ShardCountInvariantPublish) {
  // Deterministic ingest: the same insert stream publishes bit-identical
  // synopses whether the engine buffers through 1 shard or 4.
  auto run = [&](size_t shards) {
    SynopsisConfig config = SalesConfig();
    config.incremental = true;
    config.ingest_shards = shards;
    AquaEngine engine;
    EXPECT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(engine
                      .Insert("live", {Value(i % 2 == 0 ? "north" : "east"),
                                       Value(int64_t{i % 3}),
                                       Value(static_cast<double>(i % 5))})
                      .ok());
      if (i == 29) EXPECT_TRUE(engine.Refresh("live").ok());
    }
    EXPECT_TRUE(engine.Refresh("live").ok());
    auto synopsis = engine.GetSynopsis("live");
    EXPECT_TRUE(synopsis.ok());
    return *synopsis;
  };
  auto one = run(1);
  auto four = run(4);
  const StratifiedSample& a = one->sample();
  const StratifiedSample& b = four->sample();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.strata().size(), b.strata().size());
  for (size_t s = 0; s < a.strata().size(); ++s) {
    EXPECT_EQ(a.strata()[s].key, b.strata()[s].key);
    EXPECT_EQ(a.strata()[s].population, b.strata()[s].population);
    EXPECT_EQ(a.strata()[s].sample_count, b.strata()[s].sample_count);
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.rows().num_columns(); ++c) {
      EXPECT_EQ(a.rows().GetValue(r, c), b.rows().GetValue(r, c));
    }
  }
}

TEST_F(AquaEngineTest, ConcurrentInsertersWithLiveReader) {
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  config.ingest_shards = 4;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto approx = engine.Query(
          "SELECT region, SUM(amount) FROM live GROUP BY region");
      if (!approx.ok()) reader_errors.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  std::atomic<int> insert_errors{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::vector<std::vector<Value>> batch;
      for (int i = 0; i < kPerThread; ++i) {
        batch.push_back({Value(t % 2 == 0 ? "north" : "south"),
                         Value(int64_t{t}), Value(1.0)});
        if (batch.size() == 25) {
          if (!engine.InsertBatch("live", batch).ok()) {
            insert_errors.fetch_add(1);
          }
          batch.clear();
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  ASSERT_TRUE(engine.Refresh("live").ok());
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(insert_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  auto table = engine.GetTable("live");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1000u + kThreads * kPerThread);
}

TEST_F(AquaEngineTest, ConcurrentRollupAnswersOnOnePinnedSnapshot) {
  // Readers race to build and read the pinned synopsis's roll-up cache;
  // every answer must equal the sample scan's bitwise. Run under TSan.
  auto snapshot = engine_.GetSnapshot("sales");
  ASSERT_TRUE(snapshot.ok());
  const AquaSynopsis& synopsis = *(*snapshot)->synopsis;
  std::vector<GroupByQuery> queries;
  for (std::vector<size_t> grouping :
       {std::vector<size_t>{}, std::vector<size_t>{0}, std::vector<size_t>{1},
        std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
    GroupByQuery query;
    query.group_columns = grouping;
    query.aggregates.emplace_back(AggregateKind::kSum, 2);
    query.aggregates.emplace_back(AggregateKind::kCount, 0);
    query.aggregates.emplace_back(AggregateKind::kAvg, 2);
    queries.push_back(query);
  }
  std::vector<ApproximateResult> expected;
  for (const GroupByQuery& query : queries) {
    auto scan = EstimateGroupBy(synopsis.sample(), query,
                                synopsis.config().estimator);
    ASSERT_TRUE(scan.ok());
    expected.push_back(std::move(scan).value());
  }

  constexpr size_t kReaders = 4;
  std::atomic<size_t> ready{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) {
      }
      for (size_t i = 0; i < 4 * queries.size(); ++i) {
        const size_t q = (i + r) % queries.size();
        auto answer = synopsis.Answer(queries[q]);
        bool same = answer.ok() &&
                    answer->num_groups() == expected[q].num_groups();
        for (size_t g = 0; same && g < answer->num_groups(); ++g) {
          const ApproximateGroupRow& a = answer->rows()[g];
          const ApproximateGroupRow& e = expected[q].rows()[g];
          same = a.key == e.key && a.estimates == e.estimates &&
                 a.bounds == e.bounds && a.support == e.support;
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(AquaEngineTest, DropTable) {
  EXPECT_TRUE(engine_.DropTable("sales").ok());
  EXPECT_FALSE(engine_.HasTable("sales"));
  EXPECT_FALSE(engine_.DropTable("sales").ok());
  EXPECT_FALSE(engine_.Refresh("sales").ok());
  EXPECT_FALSE(engine_.Insert("sales", {}).ok());
  EXPECT_FALSE(engine_.GetSynopsis("sales").ok());
}

TEST_F(AquaEngineTest, MultipleTables) {
  Table other{Schema({Field{"g", DataType::kInt64},
                      Field{"v", DataType::kDouble}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        other
            .AppendRow({Value(static_cast<int64_t>(i % 4)),
                        Value(static_cast<double>(i))})
            .ok());
  }
  SynopsisConfig config;
  config.grouping_columns = {"g"};
  config.sample_fraction = 0.5;
  ASSERT_TRUE(engine_.RegisterTable("other", std::move(other), config).ok());
  EXPECT_EQ(engine_.TableNames().size(), 2u);
  // Routing picks the right relation per query.
  EXPECT_TRUE(engine_.Query("SELECT SUM(v) FROM other").ok());
  EXPECT_TRUE(engine_.Query("SELECT SUM(amount) FROM sales").ok());
  EXPECT_FALSE(engine_.Query("SELECT SUM(v) FROM sales").ok());
}

}  // namespace
}  // namespace congress
