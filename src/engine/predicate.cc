#include "engine/predicate.h"

#include <sstream>
#include <utility>

namespace congress {

namespace {

std::string ColName(const Schema* schema, size_t col) {
  if (schema != nullptr && col < schema->num_fields()) {
    return schema->field(col).name;
  }
  return "col" + std::to_string(col);
}

/// Runs a comparison against `rhs` over the widened double view of a
/// numeric column, through the SIMD-dispatched filter kernels. Returns
/// false — leaving `sel_out` untouched — when the column is not numeric,
/// so the caller can fall back to the scalar default and misbehave
/// exactly as Matches would.
bool FilterNumericCompare(const Table& table, size_t col, uint32_t begin,
                          uint32_t end, const uint32_t* sel_in,
                          SelectionVector* sel_out, simd::Cmp op,
                          double rhs) {
  switch (table.schema().field(col).type) {
    case DataType::kInt64:
      kernels::FilterCompareInt64(table.Int64Column(col).data(), begin, end,
                                  sel_in, op, rhs, sel_out);
      return true;
    case DataType::kDouble:
      kernels::FilterCompareDouble(table.DoubleColumn(col).data(), begin, end,
                                   sel_in, op, rhs, sel_out);
      return true;
    case DataType::kString:
      return false;
  }
  return false;
}

/// Range form of FilterNumericCompare: keeps lo <= v <= hi.
bool FilterNumericRange(const Table& table, size_t col, uint32_t begin,
                        uint32_t end, const uint32_t* sel_in,
                        SelectionVector* sel_out, double lo, double hi) {
  switch (table.schema().field(col).type) {
    case DataType::kInt64:
      kernels::FilterRangeInt64(table.Int64Column(col).data(), begin, end,
                                sel_in, lo, hi, sel_out);
      return true;
    case DataType::kDouble:
      kernels::FilterRangeDouble(table.DoubleColumn(col).data(), begin, end,
                                 sel_in, lo, hi, sel_out);
      return true;
    case DataType::kString:
      return false;
  }
  return false;
}

/// String equality/inequality against a constant, on dictionary codes:
/// one dictionary probe resolves the constant, then every row is an int32
/// compare (SIMD) instead of a string compare. A constant absent from the
/// dictionary short-circuits: no row can equal it.
void FilterStringEquals(const Table& table, size_t col, uint32_t begin,
                        uint32_t end, const uint32_t* sel_in,
                        SelectionVector* sel_out, const std::string& want,
                        bool keep_equal) {
  const int32_t code = table.Dictionary(col).Find(want);
  if (code == StringDictionary::kNoCode) {
    if (!keep_equal) {
      kernels::FilterGeneric(begin, end, sel_in, sel_out,
                             [](uint32_t) { return true; });
    }
    return;
  }
  kernels::FilterStringCode(table.CodeColumn(col), begin, end, sel_in, code,
                            keep_equal, sel_out);
}

class TruePredicate final : public Predicate {
 public:
  bool Matches(const Table&, size_t) const override { return true; }

  void MatchBatch(const Table&, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    kernels::FilterGeneric(begin, end, sel_in, sel_out,
                           [](uint32_t) { return true; });
  }

  std::string ToString(const Schema*) const override { return "TRUE"; }

  bool CollectColumns(std::vector<size_t>*) const override { return true; }
};

class RangePredicate final : public Predicate {
 public:
  RangePredicate(size_t col, double lo, double hi)
      : col_(col), lo_(lo), hi_(hi) {}

  bool Matches(const Table& table, size_t row) const override {
    double v = table.NumericAt(row, col_);
    return v >= lo_ && v <= hi_;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    if (!FilterNumericRange(table, col_, begin, end, sel_in, sel_out, lo_,
                            hi_)) {
      Predicate::MatchBatch(table, begin, end, sel_in, sel_out);
    }
  }

  std::string ToString(const Schema* schema) const override {
    std::ostringstream oss;
    oss << ColName(schema, col_) << " BETWEEN " << lo_ << " AND " << hi_;
    return oss.str();
  }

  bool CollectColumns(std::vector<size_t>* columns) const override {
    columns->push_back(col_);
    return true;
  }

 private:
  size_t col_;
  double lo_;
  double hi_;
};

class EqualsPredicate final : public Predicate {
 public:
  EqualsPredicate(size_t col, Value value)
      : col_(col), value_(std::move(value)) {}

  bool Matches(const Table& table, size_t row) const override {
    return table.GetValue(row, col_) == value_;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    // Value::operator== is false across types, so a type-mismatched
    // constant matches nothing — no per-row work at all.
    if (table.schema().field(col_).type != value_.type()) return;
    switch (value_.type()) {
      case DataType::kInt64:
        kernels::FilterEqualsInt64(table.Int64Column(col_).data(), begin, end,
                                   sel_in, value_.AsInt64(), sel_out);
        break;
      case DataType::kDouble:
        kernels::FilterCompareDouble(table.DoubleColumn(col_).data(), begin,
                                     end, sel_in, simd::Cmp::kEq,
                                     value_.AsDouble(), sel_out);
        break;
      case DataType::kString:
        FilterStringEquals(table, col_, begin, end, sel_in, sel_out,
                           value_.AsString(), /*keep_equal=*/true);
        break;
    }
  }

  std::string ToString(const Schema* schema) const override {
    return ColName(schema, col_) + " = " + value_.ToString();
  }

  bool CollectColumns(std::vector<size_t>* columns) const override {
    columns->push_back(col_);
    return true;
  }

 private:
  size_t col_;
  Value value_;
};

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  bool Matches(const Table& table, size_t row) const override {
    for (const auto& child : children_) {
      if (!child->Matches(table, row)) return false;
    }
    return true;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    // Chained filtering: each child's output selection is the next
    // child's candidate slice. Predicates are pure, so this yields the
    // same set, in the same order, as the scalar short-circuit AND.
    if (children_.empty()) {
      kernels::FilterGeneric(begin, end, sel_in, sel_out,
                             [](uint32_t) { return true; });
      return;
    }
    if (children_.size() == 1) {
      children_[0]->MatchBatch(table, begin, end, sel_in, sel_out);
      return;
    }
    SelectionVector current;
    SelectionVector next;
    children_[0]->MatchBatch(table, begin, end, sel_in, &current);
    for (size_t i = 1; i + 1 < children_.size(); ++i) {
      next.clear();
      children_[i]->MatchBatch(table, 0,
                               static_cast<uint32_t>(current.size()),
                               current.data(), &next);
      std::swap(current, next);
    }
    children_.back()->MatchBatch(table, 0,
                                 static_cast<uint32_t>(current.size()),
                                 current.data(), sel_out);
  }

  std::string ToString(const Schema* schema) const override {
    std::string out = "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += children_[i]->ToString(schema);
    }
    out += ")";
    return out;
  }

  bool CollectColumns(std::vector<size_t>* columns) const override {
    for (const auto& child : children_) {
      if (!child->CollectColumns(columns)) return false;
    }
    return true;
  }

 private:
  std::vector<PredicatePtr> children_;
};

class LessEqualPredicate final : public Predicate {
 public:
  LessEqualPredicate(size_t col, double bound) : col_(col), bound_(bound) {}

  bool Matches(const Table& table, size_t row) const override {
    return table.NumericAt(row, col_) <= bound_;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    if (!FilterNumericCompare(table, col_, begin, end, sel_in, sel_out,
                              simd::Cmp::kLe, bound_)) {
      Predicate::MatchBatch(table, begin, end, sel_in, sel_out);
    }
  }

  std::string ToString(const Schema* schema) const override {
    std::ostringstream oss;
    oss << ColName(schema, col_) << " <= " << bound_;
    return oss.str();
  }

  bool CollectColumns(std::vector<size_t>* columns) const override {
    columns->push_back(col_);
    return true;
  }

 private:
  size_t col_;
  double bound_;
};

class ComparisonPredicate final : public Predicate {
 public:
  ComparisonPredicate(size_t col, CompareOp op, Value value)
      : col_(col), op_(op), value_(std::move(value)) {}

  bool Matches(const Table& table, size_t row) const override {
    if (op_ == CompareOp::kEq || op_ == CompareOp::kNe) {
      bool eq;
      if (value_.is_string()) {
        eq = table.GetValue(row, col_) == value_;
      } else {
        // Numeric equality compares values, not representations, so
        // `col = 5` matches an int64 5 and a double 5.0 alike.
        eq = table.NumericAt(row, col_) == value_.ToNumeric();
      }
      return op_ == CompareOp::kEq ? eq : !eq;
    }
    double lhs = table.NumericAt(row, col_);
    double rhs = value_.ToNumeric();
    switch (op_) {
      case CompareOp::kLt:
        return lhs < rhs;
      case CompareOp::kLe:
        return lhs <= rhs;
      case CompareOp::kGt:
        return lhs > rhs;
      case CompareOp::kGe:
        return lhs >= rhs;
      default:
        return false;
    }
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    const DataType col_type = table.schema().field(col_).type;
    if ((op_ == CompareOp::kEq || op_ == CompareOp::kNe) &&
        value_.is_string()) {
      const bool want_eq = op_ == CompareOp::kEq;
      if (col_type != DataType::kString) {
        // GetValue == value_ is false across types: = matches nothing,
        // <> matches everything.
        if (!want_eq) {
          kernels::FilterGeneric(begin, end, sel_in, sel_out,
                                 [](uint32_t) { return true; });
        }
        return;
      }
      FilterStringEquals(table, col_, begin, end, sel_in, sel_out,
                         value_.AsString(), want_eq);
      return;
    }
    const double rhs = value_.ToNumeric();
    simd::Cmp op = simd::Cmp::kEq;
    switch (op_) {
      case CompareOp::kEq: op = simd::Cmp::kEq; break;
      case CompareOp::kNe: op = simd::Cmp::kNe; break;
      case CompareOp::kLt: op = simd::Cmp::kLt; break;
      case CompareOp::kLe: op = simd::Cmp::kLe; break;
      case CompareOp::kGt: op = simd::Cmp::kGt; break;
      case CompareOp::kGe: op = simd::Cmp::kGe; break;
    }
    if (!FilterNumericCompare(table, col_, begin, end, sel_in, sel_out, op,
                              rhs)) {
      // Non-numeric column under a numeric comparison: defer to the
      // scalar loop, which fails in exactly the way Matches always has.
      Predicate::MatchBatch(table, begin, end, sel_in, sel_out);
    }
  }

  std::string ToString(const Schema* schema) const override {
    return ColName(schema, col_) + " " + CompareOpToString(op_) + " " +
           value_.ToString();
  }

  bool CollectColumns(std::vector<size_t>* columns) const override {
    columns->push_back(col_);
    return true;
  }

 private:
  size_t col_;
  CompareOp op_;
  Value value_;
};

}  // namespace

void Predicate::MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                           const uint32_t* sel_in,
                           SelectionVector* sel_out) const {
  kernels::FilterGeneric(
      begin, end, sel_in, sel_out,
      [&](uint32_t row) { return Matches(table, row); });
}

bool Predicate::CollectColumns(std::vector<size_t>*) const { return false; }

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

PredicatePtr MakeComparisonPredicate(size_t col, CompareOp op, Value value) {
  return std::make_shared<ComparisonPredicate>(col, op, std::move(value));
}

PredicatePtr MakeTruePredicate() { return std::make_shared<TruePredicate>(); }

PredicatePtr MakeRangePredicate(size_t col, double lo, double hi) {
  return std::make_shared<RangePredicate>(col, lo, hi);
}

PredicatePtr MakeEqualsPredicate(size_t col, Value value) {
  return std::make_shared<EqualsPredicate>(col, std::move(value));
}

PredicatePtr MakeAndPredicate(std::vector<PredicatePtr> children) {
  return std::make_shared<AndPredicate>(std::move(children));
}

PredicatePtr MakeLessEqualPredicate(size_t col, double bound) {
  return std::make_shared<LessEqualPredicate>(col, bound);
}

}  // namespace congress
