#include "checks.h"

#include <cmath>
#include <cstring>

#include "core/metrics.h"

namespace perfbench {
namespace {

using congress::ApproximateGroupRow;

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

std::string DiffAnswers(const congress::ApproximateResult& expected,
                        const congress::ApproximateResult& got) {
  if (expected.num_groups() != got.num_groups()) {
    return "group count " + std::to_string(got.num_groups()) + " != " +
           std::to_string(expected.num_groups());
  }
  for (size_t i = 0; i < expected.num_groups(); ++i) {
    const ApproximateGroupRow& e = expected.rows()[i];
    const ApproximateGroupRow& g = got.rows()[i];
    const std::string where =
        "group " + std::to_string(i) + " " + congress::GroupKeyToString(e.key);
    if (e.key != g.key) return where + ": key differs";
    if (!SameBits(e.estimates, g.estimates)) {
      return where + ": estimates differ";
    }
    if (!SameBits(e.std_errors, g.std_errors)) {
      return where + ": std errors differ";
    }
    if (!SameBits(e.bounds, g.bounds)) return where + ": bounds differ";
    if (e.support != g.support) return where + ": support differs";
    if (e.provenance != g.provenance) return where + ": provenance differs";
  }
  return "";
}

Accuracy ScoreAnswer(const congress::QueryResult& exact,
                     const congress::ApproximateResult& approx) {
  Accuracy acc;
  if (exact.rows().empty()) return acc;
  const size_t num_aggs = exact.rows().front().aggregates.size();
  for (size_t a = 0; a < num_aggs; ++a) {
    const congress::GroupByErrorReport report =
        congress::CompareAnswers(exact, approx, a);
    for (double e : report.per_group_errors) acc.error_pct_sum += e;
  }
  for (const congress::GroupResult& row : exact.rows()) {
    const ApproximateGroupRow* found = approx.Find(row.key);
    for (size_t a = 0; a < num_aggs; ++a) {
      ++acc.cells;
      if (found == nullptr) continue;
      const double truth = row.aggregates[a];
      // Exact rungs report zero-width bounds; allow for the last-bit
      // difference of a differently ordered sum.
      const double slack = 1e-9 * std::fabs(truth);
      if (std::fabs(found->estimates[a] - truth) <= found->bounds[a] + slack) {
        ++acc.covered;
      }
    }
  }
  return acc;
}

}  // namespace perfbench
