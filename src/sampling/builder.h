#ifndef CONGRESS_SAMPLING_BUILDER_H_
#define CONGRESS_SAMPLING_BUILDER_H_

#include <vector>

#include "sampling/allocation.h"
#include "sampling/stratified_sample.h"
#include "storage/group_index.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace congress {

/// Builds a stratified sample of `table` with per-group sizes given by
/// `allocation` (which must align with `stats`). One pass over the data
/// using an independent reservoir per group — the "constructing using a
/// data cube" path of Section 6, where the cube (= `stats`) supplies the
/// target sizes up front. The row→stratum interning pass is
/// morsel-parallel per `options`; the reservoir dispatch loop stays
/// serial so the RNG stream (and thus the drawn sample) is identical for
/// every thread count.
Result<StratifiedSample> BuildStratifiedSample(
    const Table& table, const std::vector<size_t>& grouping_columns,
    const GroupStatistics& stats, const Allocation& allocation, Random* rng,
    const ExecutorOptions& options = {});

/// As above, reusing `index` — the row→group index of `table` over
/// `grouping_columns` (GroupIndex::Build or Extend) — instead of
/// interning the table again, so every sample drawn from one table
/// shares one index. Draws the same sample.
Result<StratifiedSample> BuildStratifiedSample(
    const Table& table, const std::vector<size_t>& grouping_columns,
    const GroupStatistics& stats, const Allocation& allocation, Random* rng,
    const GroupIndex& index, const ExecutorOptions& options = {});

/// Convenience wrapper: computes the group census, allocates with
/// `strategy` for `sample_size` expected tuples, and builds the sample.
/// Two passes over the data (count, then sample).
Result<StratifiedSample> BuildSample(const Table& table,
                                     const std::vector<size_t>& grouping_columns,
                                     AllocationStrategy strategy,
                                     double sample_size, Random* rng,
                                     const ExecutorOptions& options = {});

/// As above, with the census and the sample both read from `index` (see
/// the indexed BuildStratifiedSample): no pass over the grouping columns.
Result<StratifiedSample> BuildSample(const Table& table,
                                     const std::vector<size_t>& grouping_columns,
                                     AllocationStrategy strategy,
                                     double sample_size, Random* rng,
                                     const GroupIndex& index,
                                     const ExecutorOptions& options = {});

}  // namespace congress

#endif  // CONGRESS_SAMPLING_BUILDER_H_
