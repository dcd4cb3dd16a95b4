#include "workload.h"

#include <algorithm>
#include <cmath>

#include "tpcd/lineitem.h"
#include "util/random.h"

namespace perfbench {
namespace {

using congress::Random;
using congress::Table;
using congress::Value;

// Why these two: rollup_wire loads the estimator's per-query sample scan
// and the wire codec on large answers while the planner and exact engine
// stay idle, and its ingest phase puts sharded ingest and snapshot
// publication beside a resilient roll-up reader; filter_budget_wire loads
// predicate kernels, the planner and the exact executor with tiny answers,
// so a roll-up-only gain must show no change there, and its ingest phase
// publishes with no reader beside it.
std::vector<WorkloadSpec> AllWorkloads() {
  using congress::serve::QueryMode;
  WorkloadSpec rollup;
  rollup.name = "rollup_wire";
  rollup.num_groups = 1000;
  rollup.read_mode = QueryMode::kApproximate;
  rollup.closed_share = 0.55;
  rollup.open_share = 0.15;
  rollup.open_rate_qps = 300.0;
  rollup.ingest_share = 0.3;
  rollup.reader_rate_qps = 120.0;

  WorkloadSpec filter = rollup;
  filter.name = "filter_budget_wire";
  filter.num_groups = 27;
  filter.open_rate_qps = 60.0;
  filter.reader_rate_qps = 0.0;
  filter.accuracy_draws = 4;
  return {rollup, filter};
}

std::vector<int64_t> DistinctValues(const Table& table, size_t column) {
  std::vector<int64_t> values = table.Int64Column(column);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::vector<double> SortedColumn(const Table& table, size_t column) {
  std::vector<double> values = table.DoubleColumn(column);
  std::sort(values.begin(), values.end());
  return values;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

/// SELECT <cols>, <aggs> FROM lineitem [WHERE <where>] [GROUP BY <cols>]
/// [<tail>].
std::string Select(const std::vector<std::string>& cols,
                   const std::string& aggs, const std::string& where,
                   const std::string& tail = "") {
  std::string sql = "SELECT ";
  if (!cols.empty()) sql += Join(cols) + ", ";
  sql += aggs + " FROM lineitem";
  if (!where.empty()) sql += " WHERE " + where;
  if (!cols.empty()) sql += " GROUP BY " + Join(cols);
  if (!tail.empty()) sql += " " + tail;
  return sql;
}

/// All 8 groupings T of {l_returnflag, l_linestatus, l_shipdate}, each
/// with no predicate, a range on l_shipdate, and an equality on
/// l_returnflag: 24 queries whose predicates touch grouping columns only.
std::vector<BenchQuery> RollupQueries(const Table& table, Random* rng) {
  const std::vector<std::string> dims = {"l_returnflag", "l_linestatus",
                                         "l_shipdate"};
  const std::vector<int64_t> flags =
      DistinctValues(table, congress::tpcd::kLReturnFlag);
  const std::vector<int64_t> dates =
      DistinctValues(table, congress::tpcd::kLShipDate);
  const std::string aggs = "SUM(l_quantity), COUNT(*), AVG(l_extendedprice)";
  std::vector<BenchQuery> out;
  for (unsigned mask = 0; mask < 8; ++mask) {
    std::vector<std::string> cols;
    for (size_t d = 0; d < dims.size(); ++d) {
      if (mask & (1u << d)) cols.push_back(dims[d]);
    }
    const size_t span = std::max<size_t>(1, dates.size() / 2);
    const size_t lo = rng->UniformInt(dates.size() - span + 1);
    const std::string date_range = "l_shipdate BETWEEN " +
                                   std::to_string(dates[lo]) + " AND " +
                                   std::to_string(dates[lo + span - 1]);
    const std::string flag_eq =
        "l_returnflag = " +
        std::to_string(flags[rng->UniformInt(flags.size())]);
    for (const std::string& where : {std::string(), date_range, flag_eq}) {
      out.push_back({Select(cols, aggs, where), true});
    }
  }
  return out;
}

/// The paper's Qg0 l_id ranges at 7% selectivity, ranges on the measure
/// columns, and WITHIN tiers: error budgets loose enough for the sample,
/// tight enough to escalate to a combined plan, and tighter than the
/// sample can promise (exact), plus time budgets at both ends.
std::vector<BenchQuery> FilterBudgetQueries(const Table& table, Random* rng) {
  const int64_t n = static_cast<int64_t>(table.num_rows());
  const int64_t width = std::max<int64_t>(1, std::llround(0.07 * n));
  auto qg0 = [&]() {
    const int64_t s = rng->UniformRange(1, std::max<int64_t>(1, n - width));
    return "l_id BETWEEN " + std::to_string(s) + " AND " +
           std::to_string(s + width);
  };
  // Measure predicates select a seed-independent share of the rows: their
  // constants are quantiles of the column, so accuracy and cost do not
  // swing with the draw.
  const std::vector<double> quantity =
      SortedColumn(table, congress::tpcd::kLQuantity);
  const std::vector<double> price =
      SortedColumn(table, congress::tpcd::kLExtendedPrice);
  auto at = [](const std::vector<double>& sorted, double q) {
    const double rank = q * static_cast<double>(sorted.size() - 1);
    return std::to_string(
        static_cast<int64_t>(sorted[static_cast<size_t>(rank)]));
  };
  auto quantity_range = [&]() {  // About 30% of the rows.
    const double lo = 0.1 + 0.4 * rng->NextDouble();
    return "l_quantity BETWEEN " + at(quantity, lo) + " AND " +
           at(quantity, lo + 0.3);
  };
  auto price_floor = [&]() {  // About 30-50% of the rows.
    return "l_extendedprice >= " + at(price, 0.5 + 0.2 * rng->NextDouble());
  };
  const std::vector<std::string> rf_ls = {"l_returnflag", "l_linestatus"};
  // Sends per cycle. Qg0 is 86% of the requests, so the median request
  // sits well inside one latency class instead of on the boundary with the
  // slower classes, where it flipped between runs. The four combined and
  // exact tier queries are sent once: each takes 40-80 ms, and at weights
  // 3 and 1 for the rest they took 80% of the closed loop's time. CPU time
  // the host steals lands on most calls that long but on few 1-2 ms calls,
  // so their medians, and with them query_qps, moved with the host; at
  // these weights they take about a third.
  constexpr size_t kQg0Weight = 30;
  constexpr size_t kSampledWeight = 12;
  std::vector<BenchQuery> out;
  for (int i = 0; i < 40; ++i) {
    out.push_back({Select({}, "SUM(l_quantity)", qg0()), false, kQg0Weight});
  }
  for (int i = 0; i < 6; ++i) {
    out.push_back({Select(rf_ls, "SUM(l_extendedprice), COUNT(*)",
                          quantity_range()),
                   false, kSampledWeight});
    out.push_back({Select({"l_shipdate"}, "SUM(l_quantity), AVG(l_quantity)",
                          price_floor()),
                   false, kSampledWeight});
  }
  // Sample tier: the primary synopsis meets these.
  out.push_back({Select(rf_ls, "SUM(l_quantity)", "",
                        "WITHIN 20% CONFIDENCE 90"),
                 true, kSampledWeight});
  out.push_back({Select({"l_returnflag"}, "SUM(l_extendedprice)",
                        quantity_range(), "WITHIN 25% CONFIDENCE 90"),
                 false, kSampledWeight});
  out.push_back({Select(rf_ls, "SUM(l_quantity), COUNT(*)", "",
                        "WITHIN 1 MS"),
                 true, kSampledWeight});
  out.push_back({Select({"l_linestatus"}, "COUNT(*)", "",
                        "WITHIN 10% CONFIDENCE 90"),
                 true, kSampledWeight});
  // Combined tier: the sample's realized bound breaks the promise and
  // the planner escalates to exact outlier strata plus a sampled tail.
  for (int i = 0; i < 2; ++i) {
    out.push_back({Select({}, "SUM(l_quantity)", qg0(),
                          "WITHIN 5% CONFIDENCE 90"),
                   false});
  }
  // Exact tier: no sampled plan is predicted to meet these.
  out.push_back({Select(rf_ls, "SUM(l_quantity)", "",
                        "WITHIN 5% CONFIDENCE 95"),
                 true});
  out.push_back({Select(rf_ls, "SUM(l_quantity)", "", "WITHIN 100 MS"),
                 true});
  return out;
}

}  // namespace

congress::Result<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return congress::Status::InvalidArgument("unknown workload '" + name + "'");
}

congress::SynopsisConfig MakeSynopsisConfig(uint64_t seed) {
  congress::SynopsisConfig config;
  config.grouping_columns = congress::tpcd::LineitemGroupingColumnNames();
  config.strategy = congress::AllocationStrategy::kCongress;
  config.sample_fraction = 0.05;
  config.incremental = true;
  config.seed = seed * 2654435761ull + 17;
  return config;
}

std::vector<BenchQuery> MakeQueries(const WorkloadSpec& spec,
                                    const Table& table, uint64_t seed) {
  Random rng(seed * 0x9E3779B97F4A7C15ull + 3);
  if (spec.name == "filter_budget_wire") {
    return FilterBudgetQueries(table, &rng);
  }
  return RollupQueries(table, &rng);
}

std::vector<std::vector<Value>> MakeInsertBatch(const Table& table,
                                                uint64_t base_rows,
                                                uint64_t seed, uint64_t index) {
  Random rng((seed + 1) * 0xD1B54A32D192ED03ull + index);
  std::vector<std::vector<Value>> rows;
  rows.reserve(kBatchRows);
  for (size_t r = 0; r < kBatchRows; ++r) {
    const size_t src = static_cast<size_t>(rng.UniformInt(table.num_rows()));
    const int64_t id =
        static_cast<int64_t>(base_rows + index * kBatchRows + r + 1);
    rows.push_back({Value(id),
                    table.GetValue(src, congress::tpcd::kLReturnFlag),
                    table.GetValue(src, congress::tpcd::kLLineStatus),
                    table.GetValue(src, congress::tpcd::kLShipDate),
                    Value(static_cast<double>(rng.UniformRange(1, 50))),
                    Value(100.0 *
                          static_cast<double>(rng.UniformRange(1, 1000)))});
  }
  return rows;
}

}  // namespace perfbench
