#include "sampling/stratified_sample.h"

#include <cassert>
#include <sstream>

namespace congress {

StratifiedSample::StratifiedSample(Schema base_schema,
                                   std::vector<size_t> grouping_columns)
    : grouping_columns_(std::move(grouping_columns)),
      rows_(std::move(base_schema)) {}

Status StratifiedSample::DeclareStratum(const GroupKey& key,
                                        uint64_t population) {
  auto it = stratum_index_.find(key);
  if (it != stratum_index_.end()) {
    if (strata_[it->second].population != population) {
      return Status::AlreadyExists("stratum " + GroupKeyToString(key) +
                                   " already declared with population " +
                                   std::to_string(strata_[it->second].population));
    }
    return Status::OK();
  }
  stratum_index_.emplace(key, strata_.size());
  strata_.push_back(Stratum{key, population, 0});
  total_population_ += population;
  return Status::OK();
}

Status StratifiedSample::Append(const Table& base, size_t base_row) {
  GroupKey key = base.KeyForRow(base_row, grouping_columns_);
  auto it = stratum_index_.find(key);
  if (it == stratum_index_.end()) {
    return Status::NotFound("row belongs to undeclared stratum " +
                            GroupKeyToString(key));
  }
  rows_.AppendRowFrom(base, base_row);
  row_strata_.push_back(static_cast<uint32_t>(it->second));
  strata_[it->second].sample_count += 1;
  return Status::OK();
}

Status StratifiedSample::AppendRowValues(const std::vector<Value>& row) {
  GroupKey key;
  key.reserve(grouping_columns_.size());
  for (size_t c : grouping_columns_) {
    if (c >= row.size()) {
      return Status::InvalidArgument("grouping column out of range for row");
    }
    key.push_back(row[c]);
  }
  auto it = stratum_index_.find(key);
  if (it == stratum_index_.end()) {
    return Status::NotFound("row belongs to undeclared stratum " +
                            GroupKeyToString(key));
  }
  CONGRESS_RETURN_NOT_OK(rows_.AppendRow(row));
  row_strata_.push_back(static_cast<uint32_t>(it->second));
  strata_[it->second].sample_count += 1;
  return Status::OK();
}

Status StratifiedSample::AppendToStratum(const Table& base, size_t base_row,
                                         size_t stratum) {
  if (stratum >= strata_.size()) {
    return Status::InvalidArgument("stratum index out of range");
  }
  assert(base.KeyForRow(base_row, grouping_columns_) == strata_[stratum].key);
  rows_.AppendRowFrom(base, base_row);
  row_strata_.push_back(static_cast<uint32_t>(stratum));
  strata_[stratum].sample_count += 1;
  return Status::OK();
}

Status StratifiedSample::AppendRowValuesToStratum(
    const std::vector<Value>& row, size_t stratum) {
  if (stratum >= strata_.size()) {
    return Status::InvalidArgument("stratum index out of range");
  }
  CONGRESS_RETURN_NOT_OK(rows_.AppendRow(row));
  row_strata_.push_back(static_cast<uint32_t>(stratum));
  strata_[stratum].sample_count += 1;
  return Status::OK();
}

void StratifiedSample::Reserve(size_t rows) {
  rows_.Reserve(rows);
  row_strata_.reserve(rows);
}

Result<size_t> StratifiedSample::StratumIndex(const GroupKey& key) const {
  auto it = stratum_index_.find(key);
  if (it == stratum_index_.end()) {
    return Status::NotFound("stratum " + GroupKeyToString(key) +
                            " not present");
  }
  return it->second;
}

Table StratifiedSample::MaterializeIntegrated() const {
  auto schema = rows_.schema().AddField(Field{"sf", DataType::kDouble});
  // "sf" collides only if the base relation has an sf column; treat as a
  // precondition of the synopsis schema.
  Table out{schema.ok() ? std::move(schema).value() : rows_.schema()};
  out.Reserve(rows_.num_rows());
  std::vector<Value> row;
  for (size_t r = 0; r < rows_.num_rows(); ++r) {
    row.clear();
    for (size_t c = 0; c < rows_.num_columns(); ++c) {
      row.push_back(rows_.GetValue(r, c));
    }
    row.push_back(Value(strata_[row_strata_[r]].ScaleFactor()));
    Status st = out.AppendRow(row);
    (void)st;
  }
  return out;
}

Table StratifiedSample::MaterializeAuxNormalized() const {
  std::vector<Field> fields;
  for (size_t c : grouping_columns_) {
    fields.push_back(rows_.schema().field(c));
  }
  fields.push_back(Field{"sf", DataType::kDouble});
  Table aux{Schema(std::move(fields))};
  std::vector<Value> row;
  for (const Stratum& s : strata_) {
    if (s.sample_count == 0) continue;  // No sampled tuples to scale.
    row.assign(s.key.begin(), s.key.end());
    row.push_back(Value(s.ScaleFactor()));
    Status st = aux.AppendRow(row);
    (void)st;
  }
  return aux;
}

StratifiedSample::KeyNormalizedForm StratifiedSample::MaterializeKeyNormalized()
    const {
  auto samp_schema = rows_.schema().AddField(Field{"gid", DataType::kInt64});
  Table samp{samp_schema.ok() ? std::move(samp_schema).value()
                              : rows_.schema()};
  samp.Reserve(rows_.num_rows());
  std::vector<Value> row;
  for (size_t r = 0; r < rows_.num_rows(); ++r) {
    row.clear();
    for (size_t c = 0; c < rows_.num_columns(); ++c) {
      row.push_back(rows_.GetValue(r, c));
    }
    row.push_back(Value(static_cast<int64_t>(row_strata_[r])));
    Status st = samp.AppendRow(row);
    (void)st;
  }

  Table aux{Schema({Field{"gid", DataType::kInt64},
                    Field{"sf", DataType::kDouble}})};
  for (size_t i = 0; i < strata_.size(); ++i) {
    if (strata_[i].sample_count == 0) continue;
    Status st = aux.AppendRow({Value(static_cast<int64_t>(i)),
                               Value(strata_[i].ScaleFactor())});
    (void)st;
  }
  return KeyNormalizedForm{std::move(samp), std::move(aux)};
}

std::string StratifiedSample::ToString() const {
  std::ostringstream oss;
  oss << "StratifiedSample: " << rows_.num_rows() << " rows, "
      << strata_.size() << " strata, population " << total_population_
      << "\n";
  size_t shown = std::min<size_t>(10, strata_.size());
  for (size_t i = 0; i < shown; ++i) {
    const Stratum& s = strata_[i];
    oss << "  " << GroupKeyToString(s.key) << ": n=" << s.population
        << " sampled=" << s.sample_count << " sf=" << s.ScaleFactor() << "\n";
  }
  if (shown < strata_.size()) {
    oss << "  ... (" << (strata_.size() - shown) << " more strata)\n";
  }
  return oss.str();
}

}  // namespace congress
