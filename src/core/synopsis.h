#ifndef CONGRESS_CORE_SYNOPSIS_H_
#define CONGRESS_CORE_SYNOPSIS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/rewriter.h"
#include "sampling/allocation.h"
#include "sampling/builder.h"
#include "sampling/maintenance.h"
#include "sampling/moments.h"
#include "sampling/stratified_sample.h"
#include "storage/group_index.h"
#include "storage/table.h"
#include "util/status.h"

namespace congress {

/// Configuration for building a synopsis over one relation — the knobs
/// the Aqua warehouse administrator supplies (Section 2 of the paper).
struct SynopsisConfig {
  /// Which Section 4 allocation strategy to use.
  AllocationStrategy strategy = AllocationStrategy::kCongress;

  /// Sample size as a fraction of the relation (the paper's SP
  /// parameter). Ignored if `sample_size` is set.
  double sample_fraction = 0.07;

  /// Absolute sample size in tuples; 0 means "use sample_fraction".
  uint64_t sample_size = 0;

  /// Names of the grouping (dimensional) columns.
  std::vector<std::string> grouping_columns;

  /// Error-bound settings for approximate answers.
  EstimatorOptions estimator;

  /// If true, build via the one-pass incremental maintainer (Section 6)
  /// so the synopsis keeps absorbing Insert()s; otherwise build with the
  /// two-pass exact-allocation path and reject inserts.
  bool incremental = false;

  /// Ingest shards for the engine's streaming path (sampling/shard.h);
  /// 0 picks one per hardware thread. Only meaningful with
  /// `incremental`. The default (deterministic) ingest mode publishes
  /// bit-identical samples at any shard count.
  size_t ingest_shards = 0;

  /// Switches the engine's sharded ingest to free-running mode: each
  /// shard maintains its own sample at producer time and publishes merge
  /// re-allocations, trading bit-level determinism for parallel
  /// maintenance throughput (DESIGN.md §15). Validated statistically by
  /// testing::RunCoverage rather than bitwise oracles.
  bool free_running_ingest = false;

  uint64_t seed = 42;

  /// Parallelism for build scans and query answering (num_threads = 1 is
  /// the serial engine; 0 uses all hardware threads). Samples, estimates,
  /// and rewritten answers are bit-identical for every thread count.
  ExecutorOptions execution;
};

/// Resolves config.grouping_columns against `schema` to column indices.
/// Shared by the synopsis build paths and AquaEngine's register path.
Result<std::vector<size_t>> ResolveGroupingIndices(
    const Schema& schema, const SynopsisConfig& config);

/// Resolves the target sample size from config.sample_size /
/// config.sample_fraction for a relation of `num_rows` rows; errors on
/// infeasible fractions and sizes that round to zero.
Result<uint64_t> ResolveSampleSize(const SynopsisConfig& config,
                                   uint64_t num_rows);

/// A synopsis's vital signs, for health endpoints and the degradation
/// ladder's decision making.
struct SynopsisHealth {
  bool restored_from_snapshot = false;  ///< Came from RecoverSnapshot.
  bool can_insert = false;              ///< Has a live maintainer.
  size_t num_strata = 0;
  size_t num_rows = 0;
  uint64_t tuples_seen = 0;  ///< Stream position (maintainer or snapshot).
};

/// An Aqua-style synopsis over one base relation: a stratified sample,
/// its precomputed rewrite materializations, and (optionally) a live
/// incremental maintainer. This is the library's main facade.
class AquaSynopsis {
 public:
  /// Builds a synopsis from `base`. The base table is only read during
  /// the build; it is not retained.
  static Result<AquaSynopsis> Build(const Table& base,
                                    const SynopsisConfig& config);

  /// As above, with `index` the row→group index of `base` at the
  /// configured grouping (GroupIndex::Build or Extend): a two-pass build
  /// takes its census and strata from it instead of interning `base`
  /// again, and draws the same sample. Ignored for one-pass
  /// (config.incremental) builds.
  static Result<AquaSynopsis> Build(const Table& base,
                                    const SynopsisConfig& config,
                                    const GroupIndex& index);

  /// Reconstructs a read-only synopsis from a recovered sample (see
  /// resilience/recovery.h): queries are served, but Insert() is rejected — maintainer RNG state
  /// is not persisted, so the stream cannot resume; rebuild when the base
  /// relation becomes available again. `tuples_seen` records the stream
  /// position the snapshot captured. Grouping columns come from the
  /// sample itself, not `config`.
  static Result<AquaSynopsis> Restore(StratifiedSample sample,
                                      const SynopsisConfig& config,
                                      uint64_t tuples_seen);

  /// Freezes a maintainer-produced sample into a fully immutable,
  /// query-only synopsis: the result holds no maintainer, so concurrent
  /// readers can share it without synchronization. This is the publish step of the snapshot
  /// lifecycle — the engine streams inserts into an off-to-the-side
  /// maintainer and calls FromSample to mint the next published synopsis.
  /// `tuples_seen` records the maintainer's stream position at the
  /// freeze. Insert() on the result is rejected.
  static Result<AquaSynopsis> FromSample(StratifiedSample sample,
                                         const SynopsisConfig& config,
                                         uint64_t target_sample_size,
                                         uint64_t tuples_seen);

  /// Approximate answer with per-group error bounds, computed from the
  /// stratified estimators (Section 5.1) under config().estimator.
  Result<ApproximateResult> Answer(const GroupByQuery& query) const;

  /// The estimator under explicit `options` (the planner's promised
  /// confidence, a combined plan's excluded strata). A stratum roll-up
  /// (IsStratumRollup) is answered from moments() without a sample scan;
  /// any other query scans the sample (EstimateGroupBy). Both paths give
  /// bit-identical answers.
  Result<ApproximateResult> Estimate(const GroupByQuery& query,
                                     const EstimatorOptions& options) const;

  /// Approximate answer via a specific physical rewrite strategy
  /// (Section 5.2); point estimates only.
  Result<QueryResult> AnswerVia(const GroupByQuery& query,
                                RewriteStrategy strategy) const;

  /// Streams a newly inserted base tuple into the maintainer. Requires
  /// config.incremental; the visible sample updates on Refresh().
  Status Insert(const std::vector<Value>& row);

  /// Re-snapshots the maintainer; the rewrite materializations are
  /// rebuilt on their next use. No-op for non-incremental synopses.
  Status Refresh();

  const StratifiedSample& sample() const { return sample_; }
  /// The Section 5.2 rewrite materializations (four copies of the
  /// sample), built on first use — by this or AnswerVia — and then
  /// shared. Thread-safe on a shared frozen synopsis.
  const Rewriter& rewriter() const;
  const SynopsisConfig& config() const { return config_; }
  /// Per-stratum column moments, computed once per (re)build: roll-ups
  /// are answered from them, and the planner scores this synopsis with
  /// them, in O(#strata).
  const SampleMoments& moments() const { return moments_; }
  /// Column indices of the grouping columns in the base schema.
  const std::vector<size_t>& grouping_column_indices() const {
    return grouping_indices_;
  }

  bool restored_from_snapshot() const { return restored_; }
  /// The configured sample-size target X resolved at build time.
  uint64_t target_size() const { return target_sample_size_; }
  SynopsisHealth Health() const;

 private:
  AquaSynopsis() = default;

  static Result<AquaSynopsis> BuildWith(const Table& base,
                                        const SynopsisConfig& config,
                                        const GroupIndex* index);

  /// The rewriter of one sample generation, built at most once.
  struct LazyRewriter {
    std::once_flag once;
    std::unique_ptr<const Rewriter> rewriter;
  };

  SynopsisConfig config_;
  std::vector<size_t> grouping_indices_;
  StratifiedSample sample_;
  SampleMoments moments_;
  /// Replaced (not reset) whenever sample_ changes.
  std::shared_ptr<LazyRewriter> rewriter_ = std::make_shared<LazyRewriter>();
  std::shared_ptr<SampleMaintainer> maintainer_;  // Null unless incremental.
  uint64_t target_sample_size_ = 0;
  bool restored_ = false;
  uint64_t restored_tuples_seen_ = 0;
};

}  // namespace congress

#endif  // CONGRESS_CORE_SYNOPSIS_H_
