#ifndef CONGRESS_PERFBENCH_WORKLOAD_H_
#define CONGRESS_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/synopsis.h"
#include "serve/server.h"
#include "storage/table.h"
#include "util/status.h"

namespace perfbench {

struct BenchQuery {
  std::string sql;
  /// Groups by grouping columns and filters, if at all, on grouping
  /// columns only: every answer is a roll-up of whole strata. The other
  /// queries filter on a key or measure column, so the sample rows must be
  /// read. Whether a query carries a WITHIN budget is separate.
  bool rollup = true;
  /// Times the query is sent per cycle of the send order.
  size_t weight = 1;
};

/// One named workload: the data it generates, the queries it sends, and
/// the load each phase applies. Phase lengths are shares of --seconds.
struct WorkloadSpec {
  std::string name;
  uint64_t num_groups = 1000;
  /// Mode of every read request.
  congress::serve::QueryMode read_mode =
      congress::serve::QueryMode::kApproximate;
  /// Closed-loop read phase (query_qps).
  double closed_share = 0.0;
  /// Open-loop read phase without writers (query_p50_ms, net.call_*).
  double open_share = 0.0;
  double open_rate_qps = 0.0;
  /// Ingest phase: an open-loop writer plus the row-count refresher, and,
  /// when reader_rate_qps > 0, an open-loop kResilient reader beside them.
  double ingest_share = 0.0;
  double reader_rate_qps = 0.0;
  /// Independent sample draws accuracy is pooled over: the served synopsis
  /// plus draws - 1 more engines registered with other sample seeds. With
  /// few strata one draw's errors all move together, so a single draw
  /// swings answer_l1_pct from seed to seed.
  size_t accuracy_draws = 1;
};

/// Finds a workload by name; InvalidArgument for an unknown name.
congress::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// Server worker threads and client connections for the read phases.
inline constexpr size_t kServerWorkers = 2;
inline constexpr size_t kReadConnections = 2;

/// Writer load of the ingest phase: fixed-size tokened batches at a fixed
/// rate, and a Refresh after every kRefreshEveryRows acknowledged rows.
inline constexpr size_t kBatchRows = 5;
inline constexpr double kBatchesPerSecond = 200.0;
inline constexpr uint64_t kRefreshEveryRows = 1000;

/// The synopsis every workload registers: Congress allocation, 5% sample,
/// incremental maintenance, grouping on the three lineitem dimensions.
congress::SynopsisConfig MakeSynopsisConfig(uint64_t seed);

/// The workload's distinct queries, instantiated from `seed` against the
/// generated table (predicate constants are drawn from its values).
std::vector<BenchQuery> MakeQueries(const WorkloadSpec& spec,
                                    const congress::Table& table,
                                    uint64_t seed);

/// Insert batch `index` of the writer's stream: kBatchRows new rows with
/// l_id values continuing after `base_rows`, each copying the grouping
/// values of a random existing row. Deterministic in (seed, index).
std::vector<std::vector<congress::Value>> MakeInsertBatch(
    const congress::Table& table, uint64_t base_rows, uint64_t seed,
    uint64_t index);

}  // namespace perfbench

#endif  // CONGRESS_PERFBENCH_WORKLOAD_H_
