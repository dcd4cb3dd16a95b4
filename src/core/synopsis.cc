#include "core/synopsis.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "resilience/failpoint.h"

namespace congress {

Result<std::vector<size_t>> ResolveGroupingIndices(
    const Schema& schema, const SynopsisConfig& config) {
  if (config.grouping_columns.empty()) {
    return Status::InvalidArgument("no grouping columns configured");
  }
  std::vector<size_t> indices;
  for (const std::string& name : config.grouping_columns) {
    auto idx = schema.FieldIndex(name);
    if (!idx.ok()) return idx.status();
    indices.push_back(*idx);
  }
  return indices;
}

Result<uint64_t> ResolveSampleSize(const SynopsisConfig& config,
                                   uint64_t num_rows) {
  uint64_t sample_size = config.sample_size;
  if (sample_size == 0) {
    if (config.sample_fraction <= 0.0 || config.sample_fraction > 1.0) {
      return Status::InvalidArgument("sample_fraction must be in (0, 1]");
    }
    sample_size = static_cast<uint64_t>(std::llround(
        config.sample_fraction * static_cast<double>(num_rows)));
  }
  if (sample_size == 0) {
    return Status::InvalidArgument("sample size rounds to zero");
  }
  return sample_size;
}

Result<AquaSynopsis> AquaSynopsis::Build(const Table& base,
                                         const SynopsisConfig& config) {
  auto indices = ResolveGroupingIndices(base.schema(), config);
  if (!indices.ok()) return indices.status();
  auto size = ResolveSampleSize(config, base.num_rows());
  if (!size.ok()) return size.status();
  const uint64_t sample_size = *size;

  AquaSynopsis synopsis;
  synopsis.config_ = config;
  synopsis.grouping_indices_ = *indices;
  synopsis.target_sample_size_ = sample_size;

  CONGRESS_METRIC_INCR("synopsis.builds", 1);
  CONGRESS_SPAN(build_span, config.execution.scope, "synopsis_build");
  if (config.incremental) {
    synopsis.maintainer_ = MakeMaintainer(config.strategy, base.schema(),
                                          *indices, sample_size, config.seed);
    CONGRESS_SPAN(maintain_span, build_span.scope(), "maintenance");
    std::vector<Value> row;
    for (size_t r = 0; r < base.num_rows(); ++r) {
      row.clear();
      for (size_t c = 0; c < base.num_columns(); ++c) {
        row.push_back(base.GetValue(r, c));
      }
      CONGRESS_RETURN_NOT_OK(synopsis.maintainer_->Insert(row));
    }
    maintain_span.Stop();
    CONGRESS_RETURN_NOT_OK(synopsis.Refresh());
  } else {
    Random rng(config.seed);
    auto sample = BuildSample(base, *indices, config.strategy,
                              static_cast<double>(sample_size), &rng,
                              config.execution.WithScope(build_span.scope()));
    if (!sample.ok()) return sample.status();
    synopsis.sample_ = std::move(sample).value();
    synopsis.rewriter_ = std::make_shared<Rewriter>(synopsis.sample_);
    synopsis.moments_ = SampleMoments::Compute(synopsis.sample_);
  }
  return synopsis;
}

Result<AquaSynopsis> AquaSynopsis::Restore(StratifiedSample sample,
                                           const SynopsisConfig& config,
                                           uint64_t tuples_seen) {
  if (sample.grouping_columns().empty()) {
    return Status::InvalidArgument(
        "recovered sample declares no grouping columns");
  }
  AquaSynopsis synopsis;
  synopsis.config_ = config;
  // The sample is the source of truth for grouping structure; re-derive
  // the configured names from its schema so config() stays consistent.
  synopsis.grouping_indices_ = sample.grouping_columns();
  synopsis.config_.grouping_columns.clear();
  for (size_t c : synopsis.grouping_indices_) {
    if (c >= sample.base_schema().num_fields()) {
      return Status::InvalidArgument("recovered grouping column " +
                                     std::to_string(c) + " out of range");
    }
    synopsis.config_.grouping_columns.push_back(
        sample.base_schema().field(c).name);
  }
  synopsis.config_.incremental = false;
  synopsis.target_sample_size_ =
      config.sample_size != 0 ? config.sample_size : sample.num_rows();
  synopsis.sample_ = std::move(sample);
  synopsis.rewriter_ = std::make_shared<Rewriter>(synopsis.sample_);
  synopsis.moments_ = SampleMoments::Compute(synopsis.sample_);
  synopsis.restored_ = true;
  synopsis.restored_tuples_seen_ = tuples_seen;
  CONGRESS_METRIC_INCR("synopsis.restores", 1);
  return synopsis;
}

Result<AquaSynopsis> AquaSynopsis::FromSample(StratifiedSample sample,
                                              const SynopsisConfig& config,
                                              uint64_t target_sample_size,
                                              uint64_t tuples_seen) {
  AquaSynopsis synopsis;
  synopsis.config_ = config;
  // The sample is authoritative for grouping structure, exactly as in
  // Restore(): keep config() consistent with what the sample declares.
  synopsis.grouping_indices_ = sample.grouping_columns();
  synopsis.config_.grouping_columns.clear();
  for (size_t c : synopsis.grouping_indices_) {
    if (c >= sample.base_schema().num_fields()) {
      return Status::InvalidArgument("sample grouping column " +
                                     std::to_string(c) + " out of range");
    }
    synopsis.config_.grouping_columns.push_back(
        sample.base_schema().field(c).name);
  }
  synopsis.target_sample_size_ = target_sample_size;
  synopsis.sample_ = std::move(sample);
  synopsis.rewriter_ = std::make_shared<Rewriter>(synopsis.sample_);
  synopsis.moments_ = SampleMoments::Compute(synopsis.sample_);
  // No maintainer: the frozen synopsis never mutates, so it is safe to
  // share across reader threads. The stream position is carried over for
  // Health() and checkpointing.
  synopsis.restored_tuples_seen_ = tuples_seen;
  return synopsis;
}

SynopsisHealth AquaSynopsis::Health() const {
  SynopsisHealth health;
  health.restored_from_snapshot = restored_;
  health.can_insert = maintainer_ != nullptr;
  health.num_strata = sample_.strata().size();
  health.num_rows = sample_.num_rows();
  health.tuples_seen =
      maintainer_ != nullptr ? maintainer_->tuples_seen() : restored_tuples_seen_;
  return health;
}

Result<ApproximateResult> AquaSynopsis::Answer(
    const GroupByQuery& query) const {
  CONGRESS_FAILPOINT("synopsis/answer");
  auto result = Estimate(query, config_.estimator);
#ifndef CONGRESS_DISABLE_OBS
  if (result.ok()) {
    // Mean relative half-width of the error bounds across groups — the
    // "estimated error" the system promises. Benches pair it with the
    // actual error gauge CompareAnswers() sets, so a snapshot shows how
    // honest the bounds were on the last query.
    double total = 0.0;
    size_t terms = 0;
    for (const ApproximateGroupRow& row : result->rows()) {
      for (size_t a = 0; a < row.estimates.size(); ++a) {
        if (row.estimates[a] != 0.0) {
          total += std::abs(row.bounds[a] / row.estimates[a]);
          ++terms;
        }
      }
    }
    CONGRESS_METRIC_SET("estimator.last_mean_relative_bound",
                        terms == 0 ? 0.0 : total / static_cast<double>(terms));
  }
#endif
  return result;
}

Result<ApproximateResult> AquaSynopsis::Estimate(
    const GroupByQuery& query, const EstimatorOptions& options) const {
  if (IsStratumRollup(sample_, query)) {
    return EstimateRollup(sample_, moments_, query, options,
                          config_.execution);
  }
  return EstimateGroupBy(sample_, query, options, config_.execution);
}

Result<QueryResult> AquaSynopsis::AnswerVia(const GroupByQuery& query,
                                            RewriteStrategy strategy) const {
  return rewriter_->Answer(query, strategy, config_.execution);
}

Status AquaSynopsis::Insert(const std::vector<Value>& row) {
  if (maintainer_ == nullptr) {
    return Status::FailedPrecondition(
        "synopsis was not built with incremental maintenance enabled");
  }
  return maintainer_->Insert(row);
}

Status AquaSynopsis::Refresh() {
  if (maintainer_ == nullptr) return Status::OK();
  CONGRESS_METRIC_INCR("synopsis.refreshes", 1);
  CONGRESS_SPAN(refresh_span, config_.execution.scope, "synopsis_refresh");
  auto snapshot = MaterializeSnapshot(maintainer_.get(),
                                      target_sample_size_);
  if (!snapshot.ok()) return snapshot.status();
  sample_ = std::move(snapshot).value();
  rewriter_ = std::make_shared<Rewriter>(sample_);
  moments_ = SampleMoments::Compute(sample_);
  return Status::OK();
}

Status SynopsisManager::Register(const std::string& name, const Table& base,
                                 const SynopsisConfig& config) {
  if (synopses_.count(name) > 0) {
    return Status::AlreadyExists("synopsis '" + name + "' already registered");
  }
  auto synopsis = AquaSynopsis::Build(base, config);
  if (!synopsis.ok()) return synopsis.status();
  synopses_.emplace(name, std::make_unique<AquaSynopsis>(
                              std::move(synopsis).value()));
  return Status::OK();
}

Status SynopsisManager::Drop(const std::string& name) {
  if (synopses_.erase(name) == 0) {
    return Status::NotFound("synopsis '" + name + "' not registered");
  }
  return Status::OK();
}

bool SynopsisManager::Has(const std::string& name) const {
  return synopses_.count(name) > 0;
}

Result<const AquaSynopsis*> SynopsisManager::Get(
    const std::string& name) const {
  auto it = synopses_.find(name);
  if (it == synopses_.end()) {
    CONGRESS_METRIC_INCR("synopsis.lookup_misses", 1);
    return Status::NotFound("synopsis '" + name + "' not registered");
  }
  CONGRESS_METRIC_INCR("synopsis.lookup_hits", 1);
  return static_cast<const AquaSynopsis*>(it->second.get());
}

Result<ApproximateResult> SynopsisManager::Answer(
    const std::string& name, const GroupByQuery& query) const {
  auto synopsis = Get(name);
  if (!synopsis.ok()) return synopsis.status();
  return (*synopsis)->Answer(query);
}

Result<QueryResult> SynopsisManager::AnswerVia(const std::string& name,
                                               const GroupByQuery& query,
                                               RewriteStrategy strategy) const {
  auto synopsis = Get(name);
  if (!synopsis.ok()) return synopsis.status();
  return (*synopsis)->AnswerVia(query, strategy);
}

Status SynopsisManager::Insert(const std::string& name,
                               const std::vector<Value>& row) {
  auto it = synopses_.find(name);
  if (it == synopses_.end()) {
    return Status::NotFound("synopsis '" + name + "' not registered");
  }
  return it->second->Insert(row);
}

Status SynopsisManager::Refresh(const std::string& name) {
  auto it = synopses_.find(name);
  if (it == synopses_.end()) {
    return Status::NotFound("synopsis '" + name + "' not registered");
  }
  return it->second->Refresh();
}

std::vector<std::string> SynopsisManager::Names() const {
  std::vector<std::string> names;
  names.reserve(synopses_.size());
  for (const auto& [name, synopsis] : synopses_) names.push_back(name);
  return names;
}

}  // namespace congress
