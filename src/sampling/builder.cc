#include "sampling/builder.h"

#include <numeric>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "sampling/reservoir.h"
#include "storage/group_index.h"

namespace congress {

namespace {

Status CheckIndexMatches(const Table& table,
                         const std::vector<size_t>& grouping_columns,
                         const GroupIndex& index) {
  if (index.num_rows() != table.num_rows() ||
      index.group_columns() != grouping_columns) {
    return Status::InvalidArgument(
        "group index does not describe this table and grouping");
  }
  return Status::OK();
}

}  // namespace

Result<StratifiedSample> BuildStratifiedSample(
    const Table& table, const std::vector<size_t>& grouping_columns,
    const GroupStatistics& stats, const Allocation& allocation, Random* rng,
    const ExecutorOptions& options) {
  CONGRESS_SPAN(index_span, options.scope, "sample_index");
  auto index = GroupIndex::Build(table, grouping_columns,
                                 options.WithScope(index_span.scope()));
  if (!index.ok()) return index.status();
  index_span.Stop();
  return BuildStratifiedSample(table, grouping_columns, stats, allocation,
                               rng, *index, options);
}

Result<StratifiedSample> BuildStratifiedSample(
    const Table& table, const std::vector<size_t>& grouping_columns,
    const GroupStatistics& stats, const Allocation& allocation, Random* rng,
    const GroupIndex& index, const ExecutorOptions& options) {
  if (allocation.expected_sizes.size() != stats.num_groups()) {
    return Status::InvalidArgument(
        "allocation does not align with group statistics");
  }
  CONGRESS_RETURN_NOT_OK(CheckIndexMatches(table, grouping_columns, index));
  std::vector<uint64_t> sizes = RoundAllocation(stats, allocation);

  // One reservoir of base-row indices per stratum.
  std::vector<ReservoirSampler<uint64_t>> reservoirs;
  reservoirs.reserve(stats.num_groups());
  for (uint64_t k : sizes) {
    reservoirs.emplace_back(static_cast<size_t>(k));
  }

  // Resolve each distinct group against the statistics once instead of
  // per row. The reservoir Offer loop stays serial and in row order, so
  // the RNG stream — and therefore the sample — is reproducible and
  // independent of the thread count.
  std::vector<size_t> stats_index(index.num_groups());
  for (size_t g = 0; g < index.num_groups(); ++g) {
    auto idx = stats.IndexOf(index.keys()[g]);
    if (!idx.ok()) {
      return Status::InvalidArgument("table contains group " +
                                     GroupKeyToString(index.keys()[g]) +
                                     " absent from statistics");
    }
    stats_index[g] = *idx;
  }
  CONGRESS_SPAN(reservoir_span, options.scope, "reservoir");
  const std::vector<uint32_t>& row_ids = index.row_ids();
  for (size_t row = 0; row < table.num_rows(); ++row) {
    reservoirs[stats_index[row_ids[row]]].Offer(static_cast<uint64_t>(row),
                                                rng);
  }
  reservoir_span.Stop();
  CONGRESS_METRIC_INCR("sampling.rows_offered", table.num_rows());

  CONGRESS_SPAN(materialize_span, options.scope, "materialize");
  StratifiedSample sample(table.schema(), grouping_columns);
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    CONGRESS_RETURN_NOT_OK(
        sample.DeclareStratum(stats.keys()[i], stats.counts()[i]));
  }
  // Append in stratum order: sampled tuples of a group are contiguous,
  // mirroring the paper's "stored compactly in a few disk blocks" point.
  // Reservoir i holds stratum i's rows (strata were declared in
  // statistics order), so no row is re-keyed.
  sample.Reserve(std::accumulate(sizes.begin(), sizes.end(), uint64_t{0}));
  for (size_t i = 0; i < reservoirs.size(); ++i) {
    for (uint64_t row : reservoirs[i].items()) {
      CONGRESS_RETURN_NOT_OK(
          sample.AppendToStratum(table, static_cast<size_t>(row), i));
    }
  }
  return sample;
}

namespace {

Status ValidateBuildSample(const Table& table,
                           const std::vector<size_t>& grouping_columns,
                           double sample_size) {
  if (grouping_columns.empty()) {
    return Status::InvalidArgument("at least one grouping column required");
  }
  for (size_t c : grouping_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("grouping column out of range");
    }
  }
  if (sample_size <= 0.0) {
    return Status::InvalidArgument("sample size must be positive");
  }
  return Status::OK();
}

}  // namespace

Result<StratifiedSample> BuildSample(
    const Table& table, const std::vector<size_t>& grouping_columns,
    AllocationStrategy strategy, double sample_size, Random* rng,
    const ExecutorOptions& options) {
  CONGRESS_RETURN_NOT_OK(
      ValidateBuildSample(table, grouping_columns, sample_size));
  CONGRESS_SPAN(census_span, options.scope, "census");
  auto index = GroupIndex::Build(table, grouping_columns,
                                 options.WithScope(census_span.scope()));
  if (!index.ok()) return index.status();
  census_span.Stop();
  return BuildSample(table, grouping_columns, strategy, sample_size, rng,
                     *index, options);
}

Result<StratifiedSample> BuildSample(
    const Table& table, const std::vector<size_t>& grouping_columns,
    AllocationStrategy strategy, double sample_size, Random* rng,
    const GroupIndex& index, const ExecutorOptions& options) {
  CONGRESS_RETURN_NOT_OK(
      ValidateBuildSample(table, grouping_columns, sample_size));
  CONGRESS_RETURN_NOT_OK(CheckIndexMatches(table, grouping_columns, index));
  CONGRESS_METRIC_INCR_DYN(std::string("sampling.builds.") +
                               AllocationStrategyToString(strategy),
                           1);
  GroupStatistics stats = GroupStatistics::FromIndex(index);
  if (stats.num_groups() == 0) {
    return Status::FailedPrecondition("table is empty");
  }
  CONGRESS_SPAN(allocate_span, options.scope, "allocate");
  Allocation allocation = Allocate(strategy, stats, sample_size);
  allocate_span.Stop();
  return BuildStratifiedSample(table, grouping_columns, stats, allocation, rng,
                               index, options);
}

}  // namespace congress
