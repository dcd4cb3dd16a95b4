// Accuracy-aware planner overhead and plan-quality frontier
// (DESIGN.md §16). Not a paper figure — it validates two claims:
// (1) scoring the candidate plans costs a negligible fraction of
// answering the query (the moment model never touches the base table),
// and (2) tightening the error budget walks a frontier from the pure
// sample through combined exact-outlier plans to the exact endpoint,
// monotonically buying accuracy with time.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/aqua.h"
#include "core/metrics.h"
#include "planner/planner.h"
#include "sql/parser.h"
#include "tpcd/lineitem.h"
#include "util/stopwatch.h"

namespace congress {
namespace {

// A roll-up to ~10 output groups: small enough that loose budgets are
// served from the sample and the frontier actually walks the ladder
// (grouping at the finest 1000 strata leaves tail groups too thin for
// any sampled promise, collapsing every tier to exact).
constexpr char kSql[] =
    "SELECT l_returnflag, SUM(l_quantity), COUNT(*) "
    "FROM lineitem GROUP BY l_returnflag";

/// The gate: plan selection must stay under this fraction of the
/// budget-free query time.
constexpr double kMaxOverheadRatio = 0.05;

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Planner overhead + combined-vs-pure-sample accuracy frontier",
      "plan scoring is O(#strata) from precomputed moments (<5% of query "
      "time); tighter budgets trade time for accuracy monotonically");

  tpcd::LineitemConfig defaults;
  defaults.group_skew_z = 1.2;
  // Few, heavy strata (4^3 = 64): the top-k outliers then carry enough
  // of the variance that a combined plan occupies the middle of the
  // frontier instead of the ladder jumping straight from sample to
  // exact.
  defaults.num_groups = 64;
  const tpcd::LineitemConfig config =
      bench::LineitemConfigFromArgs(argc, argv, defaults);
  const int runs = static_cast<int>(bench::ArgOr(argc, argv, "--runs", 5));
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& base = data->table;

  AquaEngine engine;
  SynopsisConfig synopsis_config;
  synopsis_config.strategy = AllocationStrategy::kCongress;
  synopsis_config.sample_fraction = 0.07;
  synopsis_config.seed = config.seed;
  for (size_t c : tpcd::LineitemGroupingColumns()) {
    synopsis_config.grouping_columns.push_back(base.schema().field(c).name);
  }
  auto st = engine.RegisterTable("lineitem", base, synopsis_config);
  if (!st.ok()) {
    std::printf("register failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto snapshot = engine.GetSnapshot("lineitem");
  if (!snapshot.ok()) {
    std::printf("snapshot failed: %s\n",
                snapshot.status().ToString().c_str());
    return 1;
  }
  auto query = sql::ParseQuery(kSql, base.schema());
  if (!query.ok()) {
    std::printf("parse failed: %s\n", query.status().ToString().c_str());
    return 1;
  }
  auto exact = ExecuteExact(base, *query);
  if (!exact.ok()) {
    std::printf("exact failed: %s\n", exact.status().ToString().c_str());
    return 1;
  }

  bench::JsonReport report(argc, argv);
  planner::Planner plan_runner;

  // (1) Plan-selection overhead: score every candidate under an error
  // budget vs answering budget-free from the primary synopsis. Both are
  // averaged over `runs` with the first discarded.
  GroupByQuery budgeted = *query;
  budgeted.budget.relative_error = 0.10;
  budgeted.budget.confidence = 0.95;
  const double plan_seconds = bench::MeasureSeconds(
      [&] {
        auto planned = plan_runner.Plan(**snapshot, budgeted);
        if (!planned.ok()) std::abort();
      },
      runs);
  const double answer_seconds = bench::MeasureSeconds(
      [&] {
        auto answer = (*snapshot)->synopsis->Answer(*query);
        if (!answer.ok()) std::abort();
      },
      runs);
  const double ratio = plan_seconds / std::max(answer_seconds, 1e-12);
  std::printf("plan selection: %.6f ms | query: %.6f ms | ratio %.4f %s\n\n",
              plan_seconds * 1e3, answer_seconds * 1e3, ratio,
              ratio < kMaxOverheadRatio ? "(ok)" : "(OVER BUDGET)");
  // The gate record: the overhead ratio rides the l1_error slot, and the
  // correctness sentinel (-1) fires if planning eats into query time.
  report.Add("planner_overhead_ratio",
             {{"tuples", static_cast<double>(base.num_rows())}},
             plan_seconds, ratio < kMaxOverheadRatio ? ratio : -1.0);

  // (2) The frontier: loosest to tightest error budget, measuring wall
  // time and L1 error vs exact for whichever plan the budget selects.
  std::printf("%-12s %-22s %12s %10s %12s\n", "budget", "plan", "seconds",
              "l1 err%", "escalations");
  const double pure_l1 =
      CompareAnswers(*exact, *(*snapshot)->synopsis->Answer(*query), 0).l1;
  report.Add("planner_frontier_pure_sample",
             {{"tuples", static_cast<double>(base.num_rows())}},
             answer_seconds, pure_l1);
  std::printf("%-12s %-22s %12.6f %10.3f %12s\n", "(none)",
              "primary-synopsis", answer_seconds, pure_l1, "-");

  for (double budget_pct : {50.0, 20.0, 10.0, 5.0, 2.0}) {
    GroupByQuery tier = *query;
    tier.budget.relative_error = budget_pct / 100.0;
    tier.budget.confidence = 0.95;
    Stopwatch sw;
    auto planned = plan_runner.Run(**snapshot, tier);
    const double seconds = sw.ElapsedSeconds();
    if (!planned.ok()) {
      std::printf("planner failed at %g%%: %s\n", budget_pct,
                  planned.status().ToString().c_str());
      return 1;
    }
    const double l1 = CompareAnswers(*exact, planned->result, 0).l1;
    std::printf("%-12g %-22s %12.6f %10.3f %12zu\n", budget_pct,
                planner::PlanKindToString(planned->report.chosen.kind),
                seconds, l1, planned->report.escalations);
    report.Add("planner_frontier",
               {{"budget_pct", budget_pct},
                {"tuples", static_cast<double>(base.num_rows())}},
               seconds, l1);
  }

  std::printf("\n(the overhead record carries the plan/query time ratio in "
              "its error slot — the regression gate's -1 sentinel fires at "
              ">= %g; frontier l1 is the Definition 3.1 mean percentage "
              "error of the delivered answer vs exact)\n",
              kMaxOverheadRatio);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
