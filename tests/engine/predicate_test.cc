#include "engine/predicate.h"

#include <gtest/gtest.h>

namespace congress {
namespace {

Table MakeTable() {
  Table t{Schema({Field{"id", DataType::kInt64},
                  Field{"flag", DataType::kString},
                  Field{"v", DataType::kDouble}})};
  EXPECT_TRUE(t.AppendRow({Value(int64_t{10}), Value("A"), Value(0.5)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{20}), Value("B"), Value(1.5)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{30}), Value("A"), Value(2.5)}).ok());
  return t;
}

TEST(PredicateTest, TrueMatchesEverything) {
  Table t = MakeTable();
  auto p = MakeTruePredicate();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_TRUE(p->Matches(t, r));
  }
  EXPECT_EQ(p->ToString(), "TRUE");
}

TEST(PredicateTest, RangeInclusiveBounds) {
  Table t = MakeTable();
  auto p = MakeRangePredicate(0, 10, 20);
  EXPECT_TRUE(p->Matches(t, 0));   // id=10 at lower bound.
  EXPECT_TRUE(p->Matches(t, 1));   // id=20 at upper bound.
  EXPECT_FALSE(p->Matches(t, 2));  // id=30 outside.
}

TEST(PredicateTest, RangeOnDoubleColumn) {
  Table t = MakeTable();
  auto p = MakeRangePredicate(2, 1.0, 2.0);
  EXPECT_FALSE(p->Matches(t, 0));
  EXPECT_TRUE(p->Matches(t, 1));
  EXPECT_FALSE(p->Matches(t, 2));
}

TEST(PredicateTest, RangeEmptyWhenInverted) {
  Table t = MakeTable();
  auto p = MakeRangePredicate(0, 25, 15);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_FALSE(p->Matches(t, r));
  }
}

TEST(PredicateTest, EqualsOnString) {
  Table t = MakeTable();
  auto p = MakeEqualsPredicate(1, Value("A"));
  EXPECT_TRUE(p->Matches(t, 0));
  EXPECT_FALSE(p->Matches(t, 1));
  EXPECT_TRUE(p->Matches(t, 2));
}

TEST(PredicateTest, EqualsOnInt) {
  Table t = MakeTable();
  auto p = MakeEqualsPredicate(0, Value(int64_t{20}));
  EXPECT_FALSE(p->Matches(t, 0));
  EXPECT_TRUE(p->Matches(t, 1));
}

TEST(PredicateTest, EqualsTypeSensitive) {
  Table t = MakeTable();
  // Comparing int column against a double Value never matches.
  auto p = MakeEqualsPredicate(0, Value(20.0));
  EXPECT_FALSE(p->Matches(t, 1));
}

TEST(PredicateTest, LessEqual) {
  Table t = MakeTable();
  auto p = MakeLessEqualPredicate(0, 20.0);
  EXPECT_TRUE(p->Matches(t, 0));
  EXPECT_TRUE(p->Matches(t, 1));
  EXPECT_FALSE(p->Matches(t, 2));
}

TEST(PredicateTest, AndCombination) {
  Table t = MakeTable();
  auto p = MakeAndPredicate(
      {MakeEqualsPredicate(1, Value("A")), MakeRangePredicate(0, 15, 35)});
  EXPECT_FALSE(p->Matches(t, 0));  // A but id=10 out of range.
  EXPECT_FALSE(p->Matches(t, 1));  // In range but B.
  EXPECT_TRUE(p->Matches(t, 2));   // A and id=30.
}

TEST(PredicateTest, EmptyAndIsTrue) {
  Table t = MakeTable();
  auto p = MakeAndPredicate({});
  EXPECT_TRUE(p->Matches(t, 0));
}

TEST(PredicateTest, ToStringRendersStructure) {
  auto p = MakeAndPredicate(
      {MakeRangePredicate(0, 1, 2), MakeLessEqualPredicate(2, 5)});
  std::string s = p->ToString();
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_NE(s.find("BETWEEN"), std::string::npos);
  EXPECT_NE(s.find("<="), std::string::npos);
}

TEST(PredicateTest, BuiltInsReportTheColumnsTheyRead) {
  auto columns_of = [](const PredicatePtr& p) {
    std::vector<size_t> columns;
    EXPECT_TRUE(p->CollectColumns(&columns)) << p->ToString();
    return columns;
  };
  EXPECT_TRUE(columns_of(MakeTruePredicate()).empty());
  EXPECT_EQ(columns_of(MakeRangePredicate(2, 0, 1)), std::vector<size_t>{2});
  EXPECT_EQ(columns_of(MakeEqualsPredicate(1, Value("A"))),
            std::vector<size_t>{1});
  EXPECT_EQ(columns_of(MakeLessEqualPredicate(0, 5)), std::vector<size_t>{0});
  EXPECT_EQ(columns_of(MakeComparisonPredicate(2, CompareOp::kNe, Value(1.5))),
            std::vector<size_t>{2});
}

TEST(PredicateTest, AndReportsTheUnionOfItsChildren) {
  auto p = MakeAndPredicate(
      {MakeRangePredicate(0, 1, 2),
       MakeAndPredicate({MakeLessEqualPredicate(2, 5),
                         MakeEqualsPredicate(1, Value("B"))})});
  std::vector<size_t> columns;
  ASSERT_TRUE(p->CollectColumns(&columns));
  EXPECT_EQ(columns, (std::vector<size_t>{0, 2, 1}));
}

/// A subclass that does not override CollectColumns.
class EvenId final : public Predicate {
 public:
  bool Matches(const Table& table, size_t row) const override {
    return table.Int64Column(0)[row] % 20 == 0;
  }
  std::string ToString(const Schema*) const override { return "even id"; }
};

TEST(PredicateTest, CustomSubclassReportsUnknownColumns) {
  std::vector<size_t> columns;
  EXPECT_FALSE(EvenId().CollectColumns(&columns));
  // One unknown child makes the whole conjunction unknown.
  auto p = MakeAndPredicate(
      {MakeRangePredicate(0, 1, 2), std::make_shared<EvenId>()});
  EXPECT_FALSE(p->CollectColumns(&columns));
}

}  // namespace
}  // namespace congress
