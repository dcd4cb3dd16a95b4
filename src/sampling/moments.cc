#include "sampling/moments.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "storage/value.h"

namespace congress {

namespace internal {
/// Memoized roll-ups, one per distinct key-position list: an append-only
/// linked list that readers walk without a lock (a synopsis has few
/// distinct roll-ups, and server workers look one up on every query). A
/// miss builds the node under `build_mu` and publishes it with a release
/// store of `head`, so a reader that sees a node sees it fully built.
/// Nodes are freed only with the cache.
struct RollupCache {
  struct Node {
    StratumRollup rollup;
    const Node* next = nullptr;
  };
  std::atomic<const Node*> head{nullptr};
  std::mutex build_mu;

  ~RollupCache() {
    const Node* node = head.load(std::memory_order_relaxed);
    while (node != nullptr) {
      const Node* next = node->next;
      delete node;
      node = next;
    }
  }

  static const StratumRollup* Find(const Node* node,
                                   const std::vector<size_t>& positions) {
    for (; node != nullptr; node = node->next) {
      if (node->rollup.key_positions == positions) return &node->rollup;
    }
    return nullptr;
  }
};
}  // namespace internal

StratumTerms ComputeStratumTerms(const Stratum& stratum, uint64_t count,
                                 double sum_v, double sum_v2, double max_abs) {
  StratumTerms t;
  const double sf = stratum.ScaleFactor();
  const double n = static_cast<double>(stratum.sample_count);
  const double big_n = static_cast<double>(stratum.population);
  const double m = static_cast<double>(count);
  t.support = count;
  t.est_sum = sf * sum_v;
  t.est_cnt = sf * m;
  t.hoeff_c2 = n * (sf * max_abs) * (sf * max_abs);
  if (n < 2.0) return t;  // Variance is not estimable from one draw.
  double fpc = big_n - n;
  if (fpc < 0.0) fpc = 0.0;
  // Finite-population variance N(N − n)S²/n, with S² the sample variance
  // of the n draws of the variable (zero for the draws that do not
  // count): Σ(z − z̄)² = Σv² − n·z̄².
  auto variance = [&](double sum, double sum_sq) {
    const double mean = sum / n;
    double ss = sum_sq - n * mean * mean;
    if (ss < 0.0) ss = 0.0;
    return big_n * fpc * (ss / (n - 1.0)) / n;
  };
  t.var_sum = variance(sum_v, sum_v2);
  t.var_cnt = variance(m, m);
  // Σ z_v·z_c = Σv, since z_c is 1 exactly where v counts.
  t.cov = big_n * fpc * ((sum_v - sum_v * m / n) / (n - 1.0)) / n;
  return t;
}

SampleMoments::SampleMoments()
    : cache_(std::make_shared<internal::RollupCache>()) {}

SampleMoments SampleMoments::Compute(const StratifiedSample& sample) {
  SampleMoments moments;
  const Schema& schema = sample.base_schema();
  moments.column_slot_.assign(schema.num_fields(), SIZE_MAX);
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (schema.field(c).type == DataType::kString) continue;
    moments.column_slot_[c] = moments.numeric_columns_.size();
    moments.numeric_columns_.push_back(c);
  }

  const Table& rows = sample.rows();
  const std::vector<uint32_t>& row_strata = sample.row_strata();
  const size_t num_strata = sample.strata().size();
  moments.rows_.assign(num_strata, 0);
  moments.first_row_.assign(num_strata, kNoRow);
  moments.per_stratum_.assign(
      num_strata, std::vector<ColumnMoments>(moments.numeric_columns_.size()));
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const uint32_t s = row_strata[r];
    if (moments.rows_[s]++ == 0) {
      moments.first_row_[s] = static_cast<uint32_t>(r);
    }
    std::vector<ColumnMoments>& strat = moments.per_stratum_[s];
    for (size_t slot = 0; slot < moments.numeric_columns_.size(); ++slot) {
      const double v = rows.NumericAt(r, moments.numeric_columns_[slot]);
      ColumnMoments& m = strat[slot];
      ++m.count;
      m.sum += v;
      m.sum_sq += v * v;
      m.max_abs = std::max(m.max_abs, std::fabs(v));
    }
  }
  moments.total_sum_sq_.assign(moments.numeric_columns_.size(), 0.0);
  for (const std::vector<ColumnMoments>& strat : moments.per_stratum_) {
    for (size_t slot = 0; slot < strat.size(); ++slot) {
      moments.total_sum_sq_[slot] += strat[slot].sum_sq;
    }
  }
  return moments;
}

double SampleMoments::TotalSumSq(size_t column) const {
  const size_t slot = SlotOf(column);
  return slot == SIZE_MAX ? 0.0 : total_sum_sq_[slot];
}

StratumTerms SampleMoments::TermsOf(const Stratum& stratum, size_t s,
                                    size_t slot) const {
  if (slot == kCountSlot) {
    const double m = static_cast<double>(rows_[s]);
    return ComputeStratumTerms(stratum, rows_[s], m, m,
                               rows_[s] > 0 ? 1.0 : 0.0);
  }
  const ColumnMoments& m = per_stratum_[s][slot];
  return ComputeStratumTerms(stratum, m.count, m.sum, m.sum_sq, m.max_abs);
}

const StratumRollup& SampleMoments::Rollup(
    const StratifiedSample& sample,
    const std::vector<size_t>& key_positions) const {
  using Node = internal::RollupCache::Node;
  const StratumRollup* found = internal::RollupCache::Find(
      cache_->head.load(std::memory_order_acquire), key_positions);
  if (found != nullptr) return *found;

  std::lock_guard<std::mutex> lock(cache_->build_mu);
  const Node* head = cache_->head.load(std::memory_order_acquire);
  found = internal::RollupCache::Find(head, key_positions);
  if (found != nullptr) return *found;

  auto node = std::make_unique<Node>();
  StratumRollup& rollup = node->rollup;
  rollup.key_positions = key_positions;
  const std::vector<Stratum>& strata = sample.strata();
  const std::vector<size_t>& grouping = sample.grouping_columns();

  // Intern the projected stratum keys (first-occurrence ids), noting each
  // group's lowest sampled row.
  std::unordered_map<GroupKey, uint32_t, GroupKeyHash> ids;
  std::vector<uint32_t> first_id(strata.size());
  std::vector<GroupKey> keys;
  std::vector<uint32_t> rep_row;
  GroupKey key;
  for (size_t s = 0; s < strata.size(); ++s) {
    key.clear();
    for (size_t pos : key_positions) key.push_back(strata[s].key[pos]);
    auto [it, inserted] = ids.emplace(key, static_cast<uint32_t>(keys.size()));
    if (inserted) {
      keys.push_back(key);
      rep_row.push_back(kNoRow);
    }
    first_id[s] = it->second;
    rep_row[it->second] = std::min(rep_row[it->second], first_row_[s]);
  }
  // Read output keys from the sample rows: the stratum key holds the
  // value first seen in the base relation, which need not be the sample's
  // representation (a double 0.0 against -0.0).
  for (size_t g = 0; g < keys.size(); ++g) {
    if (rep_row[g] == kNoRow) continue;
    for (size_t i = 0; i < key_positions.size(); ++i) {
      keys[g][i] =
          sample.rows().GetValue(rep_row[g], grouping[key_positions[i]]);
    }
  }
  // Number the groups in ascending key order, so answers come out sorted.
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  std::vector<uint32_t> rank(keys.size());
  rollup.keys.reserve(keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<uint32_t>(i);
    rollup.keys.push_back(std::move(keys[order[i]]));
  }
  rollup.group_of.resize(strata.size());
  for (size_t s = 0; s < strata.size(); ++s) {
    rollup.group_of[s] = rank[first_id[s]];
  }

  const size_t g_count = rollup.num_groups();
  const size_t num_slots = numeric_columns_.size();
  rollup.count_terms.assign(g_count, StratumTerms{});
  rollup.column_terms.assign(num_slots * g_count, StratumTerms{});
  for (size_t s = 0; s < strata.size(); ++s) {
    if (rows_[s] == 0) continue;
    const uint32_t g = rollup.group_of[s];
    rollup.count_terms[g].Add(TermsOf(strata[s], s, kCountSlot));
    for (size_t slot = 0; slot < num_slots; ++slot) {
      rollup.column_terms[slot * g_count + g].Add(TermsOf(strata[s], s, slot));
    }
  }

  node->next = head;
  const Node* published = node.release();
  cache_->head.store(published, std::memory_order_release);
  return published->rollup;
}

}  // namespace congress
