#include "core/aqua.h"

#include <utility>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "resilience/recovery.h"
#include "resilience/snapshot_io.h"
#include "sql/emitter.h"
#include "sql/parser.h"
#include "storage/group_index.h"

namespace congress {

namespace {

/// Builds one degradation-ladder fallback synopsis from the snapshot
/// table: the primary's config with the strategy swapped and incremental
/// maintenance off (fallbacks are frozen, like everything else in a
/// snapshot). Its census and strata come from the snapshot's base index
/// when there is one. Failure is recorded in the snapshot, not fatal —
/// the resilient walk reports it as the rung's cause.
void BuildFallback(const Table& table, const GroupIndex* index,
                   const SynopsisConfig& primary, AllocationStrategy strategy,
                   std::shared_ptr<const AquaSynopsis>* slot,
                   Status* slot_status) {
  SynopsisConfig fallback = primary;
  fallback.strategy = strategy;
  fallback.incremental = false;
  auto built = index != nullptr ? AquaSynopsis::Build(table, fallback, *index)
                                : AquaSynopsis::Build(table, fallback);
  if (!built.ok()) {
    *slot = nullptr;
    *slot_status = built.status();
    return;
  }
  *slot = std::make_shared<const AquaSynopsis>(std::move(built).value());
  *slot_status = Status::OK();
}

/// Records on a snapshot restored from a checkpoint that its base
/// relation, and with it both fallbacks built from it, is missing.
void MarkBaseUnavailable(AquaSnapshot* snapshot) {
  snapshot->base_available = false;
  const Status unavailable = Status::FailedPrecondition(
      "fallback unavailable: snapshot restored without base relation");
  snapshot->fallback_basic_status = unavailable;
  snapshot->fallback_house_status = unavailable;
}

}  // namespace

Status AquaEngine::PublishLocked(const std::string& name,
                                 MaintenanceState* state) {
  auto snapshot = std::make_shared<AquaSnapshot>();
  snapshot->name = name;

  // Incremental relations drain the ingest shards first — the merge
  // replays (deterministic) or re-allocates (free-running) the buffered
  // rows into the publishable sample, and the drained rows extend the
  // working table in merge order, so the snapshot's table and synopsis
  // describe the same stream prefix.
  std::optional<AquaSynopsis> synopsis;
  if (state->ingest != nullptr) {
    auto delta = state->ingest->MaterializeForPublish();
    if (!delta.ok()) return delta.status();
    for (const std::vector<Value>& row : delta->merged_rows) {
      CONGRESS_RETURN_NOT_OK(state->working_table.AppendRow(row));
    }
    auto frozen = AquaSynopsis::FromSample(
        std::move(delta->sample), state->config, state->target_sample_size,
        delta->tuples_seen);
    if (!frozen.ok()) return frozen.status();
    synopsis.emplace(std::move(frozen).value());
  }

  snapshot->table = std::make_shared<const Table>(state->working_table);

  // The row→stratum index over the snapshot table: the planner's
  // combined plans pull outlier rows through it, and every two-pass
  // sample below takes its census and strata from it. The table only
  // ever grows by appends, so the last publish's index is extended by
  // the new rows rather than rebuilt.
  auto built_index =
      state->base_index != nullptr
          ? GroupIndex::Extend(*state->base_index, *snapshot->table,
                               state->config.execution)
          : GroupIndex::Build(*snapshot->table, state->grouping,
                              state->config.execution);
  // On failure the next publish starts over with a full build.
  state->base_index =
      built_index.ok()
          ? std::make_shared<const GroupIndex>(std::move(built_index).value())
          : nullptr;
  const GroupIndex* index = state->base_index.get();

  // Non-incremental relations rebuild from the working table, which is
  // what registration built in the first place.
  if (!synopsis.has_value()) {
    auto built =
        index != nullptr
            ? AquaSynopsis::Build(*snapshot->table, state->config, *index)
            : AquaSynopsis::Build(*snapshot->table, state->config);
    if (!built.ok()) return built.status();
    synopsis.emplace(std::move(built).value());
  }
  snapshot->synopsis =
      std::make_shared<const AquaSynopsis>(*std::move(synopsis));

  // Degradation-ladder fallbacks are part of the snapshot, so the
  // resilient read path never builds (or caches) anything. The same goes
  // for the planner's input, the base index.
  snapshot->base_group_index = state->base_index;
  const SynopsisConfig& primary = snapshot->synopsis->config();
  BuildFallback(*snapshot->table, index, primary,
                AllocationStrategy::kBasicCongress, &snapshot->fallback_basic,
                &snapshot->fallback_basic_status);
  BuildFallback(*snapshot->table, index, primary, AllocationStrategy::kHouse,
                &snapshot->fallback_house, &snapshot->fallback_house_status);

  return catalog_.Publish(std::move(snapshot));
}

Status AquaEngine::RegisterTable(const std::string& name, Table table,
                                 const SynopsisConfig& config) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (states_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }

  MaintenanceState state;
  state.config = config;
  auto indices = ResolveGroupingIndices(table.schema(), config);
  if (!indices.ok()) return indices.status();
  state.grouping = *indices;
  if (config.incremental) {
    auto size = ResolveSampleSize(config, table.num_rows());
    if (!size.ok()) return size.status();
    state.target_sample_size = *size;
    ShardedIngestOptions ingest_options;
    ingest_options.strategy = config.strategy;
    ingest_options.target_sample_size = *size;
    ingest_options.seed = config.seed;
    ingest_options.num_shards = config.ingest_shards;
    ingest_options.mode = config.free_running_ingest
                              ? IngestMode::kFreeRunning
                              : IngestMode::kDeterministic;
    state.ingest = std::make_shared<ShardedMaintainer>(table.schema(),
                                                       *indices,
                                                       ingest_options);
    // Feed the base relation through the same batched fast path inserts
    // take; the initial publish below drains it into the working table.
    constexpr size_t kRegisterBatchRows = 1024;
    std::vector<std::vector<Value>> batch;
    batch.reserve(kRegisterBatchRows);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::vector<Value> row;
      row.reserve(table.num_columns());
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row.push_back(table.GetValue(r, c));
      }
      batch.push_back(std::move(row));
      if (batch.size() == kRegisterBatchRows) {
        CONGRESS_RETURN_NOT_OK(state.ingest->InsertBatch(batch));
        batch.clear();
      }
    }
    if (!batch.empty()) {
      CONGRESS_RETURN_NOT_OK(state.ingest->InsertBatch(batch));
    }
    CONGRESS_METRIC_INCR("synopsis.builds", 1);
    state.working_table = Table(table.schema());
  } else {
    state.working_table = std::move(table);
  }

  CONGRESS_RETURN_NOT_OK(PublishLocked(name, &state));
  {
    std::lock_guard<std::mutex> states_lock(states_mu_);
    states_.emplace(name, std::move(state));
  }
  return Status::OK();
}

Status AquaEngine::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  {
    std::lock_guard<std::mutex> states_lock(states_mu_);
    if (states_.erase(name) == 0) {
      return Status::NotFound("table '" + name + "' not registered");
    }
  }
  // Pinned readers keep the dropped snapshot alive until they release
  // it; in-flight inserters keep the ingest shards alive via their
  // shared handle, and their buffered rows vanish with the last
  // reference.
  return catalog_.Remove(name);
}

bool AquaEngine::HasTable(const std::string& name) const {
  return catalog_.Current()->Find(name) != nullptr;
}

std::vector<std::string> AquaEngine::TableNames() const {
  return catalog_.Current()->Names();
}

Result<std::shared_ptr<const AquaSnapshot>> AquaEngine::Pin(
    const std::string& name) const {
  std::shared_ptr<const AquaSnapshot> snapshot = catalog_.Pin(name);
  if (snapshot == nullptr) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  return snapshot;
}

Result<std::pair<std::shared_ptr<const AquaSnapshot>, GroupByQuery>>
AquaEngine::Route(const std::string& sql) const {
  auto statement = sql::ParseSelect(sql);
  if (!statement.ok()) return statement.status();
  auto snapshot = Pin(statement->table);
  if (!snapshot.ok()) return snapshot.status();
  auto query = sql::Bind(*statement, (*snapshot)->table->schema());
  if (!query.ok()) return query.status();
  return std::make_pair(std::move(snapshot).value(),
                        std::move(query).value());
}

Result<ApproximateResult> AquaEngine::Query(const std::string& sql) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  // Budget clauses go through the planner; everything else answers from
  // the primary synopsis directly (and bit-identically to builds that
  // predate the planner).
  if (routed->second.budget.active()) {
    planner::Planner planner;
    auto planned = planner.Run(*routed->first, routed->second);
    if (!planned.ok()) return planned.status();
    return std::move(planned->result);
  }
  return routed->first->synopsis->Answer(routed->second);
}

Result<std::string> AquaEngine::ExplainPlan(const std::string& sql) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  planner::Planner planner;
  auto report = planner.Plan(*routed->first, routed->second);
  if (!report.ok()) return report.status();
  return report->ToString();
}

Result<QueryResult> AquaEngine::QueryExact(const std::string& sql) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  if (!routed->first->base_available) {
    return Status::FailedPrecondition(
        "table '" + routed->first->name +
        "' was restored from a checkpoint; base relation unavailable");
  }
  return ExecuteExact(*routed->first->table, routed->second);
}

Result<QueryResult> AquaEngine::QueryVia(const std::string& sql,
                                         RewriteStrategy strategy) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  return routed->first->synopsis->AnswerVia(routed->second, strategy);
}

Result<ResilientAnswer> AquaEngine::QueryResilient(
    const std::string& sql,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  // Parse/bind errors are the caller's bug, not a synopsis failure — no
  // ladder for those.
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  planner::Planner planner;
  return planner.Run(*routed->first, routed->second, deadline);
}

Result<std::string> AquaEngine::ExplainRewrite(const std::string& sql,
                                               RewriteStrategy strategy) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  const AquaSnapshot& snapshot = *routed->first;
  sql::EmitOptions options;
  options.sample_table = "bs_" + snapshot.name;
  options.aux_table = "aux_" + snapshot.name;
  options.with_error_bounds = true;
  return sql::EmitRewritten(routed->second, snapshot.table->schema(),
                            strategy, options);
}

Result<std::shared_ptr<ShardedMaintainer>> AquaEngine::IngestHandle(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(states_mu_);
  auto it = states_.find(name);
  if (it == states_.end()) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  if (it->second.restored) {
    return Status::FailedPrecondition(
        "table '" + name +
        "' was restored from a checkpoint; base relation unavailable");
  }
  if (it->second.ingest == nullptr) {
    return Status::FailedPrecondition(
        "synopsis was not built with incremental maintenance enabled");
  }
  return it->second.ingest;
}

Status AquaEngine::Insert(const std::string& name,
                          const std::vector<Value>& row) {
  // Copy the shared ingest handle under the brief map lock, then buffer
  // outside every engine lock: inserts overlap queries and publishes.
  auto ingest = IngestHandle(name);
  if (!ingest.ok()) return ingest.status();
  return (*ingest)->Insert(row);
}

Status AquaEngine::InsertBatch(const std::string& name,
                               const std::vector<std::vector<Value>>& rows) {
  auto ingest = IngestHandle(name);
  if (!ingest.ok()) return ingest.status();
  return (*ingest)->InsertBatch(rows);
}

Status AquaEngine::Refresh(const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  auto it = states_.find(name);
  if (it == states_.end()) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  // Non-incremental relations have nothing new to publish; keep the old
  // no-op contract.
  if (it->second.ingest == nullptr) return Status::OK();
  CONGRESS_METRIC_INCR("synopsis.refreshes", 1);
  return PublishLocked(name, &it->second);
}

Status AquaEngine::Checkpoint(const std::string& name,
                              const std::string& path) const {
  auto snapshot = Pin(name);
  if (!snapshot.ok()) return snapshot.status();
  const AquaSynopsis& synopsis = *(*snapshot)->synopsis;
  resilience::SnapshotImage image;
  image.strategy = static_cast<uint32_t>(synopsis.config().strategy);
  image.target_size = synopsis.target_size();
  image.seed = synopsis.config().seed;
  image.tuples_seen = synopsis.Health().tuples_seen;
  image.sample = synopsis.sample();
  CONGRESS_METRIC_INCR("resilience.engine_checkpoints", 1);
  return resilience::WriteSnapshot(image, path);
}

Status AquaEngine::RestoreTable(const std::string& name,
                                const std::string& path,
                                const SynopsisConfig& config) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (states_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  auto recovered = resilience::RecoverSnapshot(path);
  if (!recovered.ok()) return recovered.status();
  auto synopsis =
      AquaSynopsis::Restore(std::move(recovered->image.sample), config,
                            recovered->image.tuples_seen);
  if (!synopsis.ok()) return synopsis.status();

  MaintenanceState state;
  state.config = synopsis->config();
  state.working_table = Table(synopsis->sample().base_schema());
  state.target_sample_size = synopsis->target_size();
  state.restored = true;

  auto snapshot = std::make_shared<AquaSnapshot>();
  snapshot->name = name;
  snapshot->table = std::make_shared<const Table>(state.working_table);
  snapshot->synopsis =
      std::make_shared<const AquaSynopsis>(std::move(synopsis).value());
  MarkBaseUnavailable(snapshot.get());
  CONGRESS_RETURN_NOT_OK(catalog_.Publish(std::move(snapshot)));
  {
    std::lock_guard<std::mutex> states_lock(states_mu_);
    states_.emplace(name, std::move(state));
  }
  return Status::OK();
}

Result<std::shared_ptr<const AquaSnapshot>> AquaEngine::GetSnapshot(
    const std::string& name) const {
  return Pin(name);
}

Result<std::shared_ptr<const AquaSynopsis>> AquaEngine::GetSynopsis(
    const std::string& name) const {
  auto snapshot = Pin(name);
  if (!snapshot.ok()) return snapshot.status();
  // Aliasing handle: shares the pin's lifetime, points at the synopsis.
  return std::shared_ptr<const AquaSynopsis>(*snapshot,
                                             (*snapshot)->synopsis.get());
}

Result<std::shared_ptr<const Table>> AquaEngine::GetTable(
    const std::string& name) const {
  auto snapshot = Pin(name);
  if (!snapshot.ok()) return snapshot.status();
  return std::shared_ptr<const Table>(*snapshot, (*snapshot)->table.get());
}

}  // namespace congress
