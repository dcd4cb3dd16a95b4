// Self-test of the benchmark's answer check: a wire round trip of a real
// answer must pass DiffAnswers, and the same answer perturbed here in the
// test (one ulp in one estimate or bound, a dropped group, a changed
// key) must fail it. Also checks ScoreAnswer on a hand-built case. Exits 0
// when every check holds.

#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"
#include "core/aqua.h"
#include "net/wire.h"
#include "tpcd/lineitem.h"
#include "workload.h"

namespace perfbench {
namespace {

using congress::ApproximateGroupRow;
using congress::ApproximateResult;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Rebuilds `answer` with `edit` applied to row `row`; the row is dropped
/// when `edit` returns false.
template <typename Edit>
ApproximateResult Perturb(const ApproximateResult& answer, size_t row,
                          Edit edit) {
  ApproximateResult out;
  for (size_t i = 0; i < answer.num_groups(); ++i) {
    ApproximateGroupRow copy = answer.rows()[i];
    if (i == row && !edit(&copy)) continue;
    out.Add(std::move(copy));
  }
  return out;
}

congress::Result<congress::serve::Response> RoundTrip(
    const ApproximateResult& answer) {
  congress::serve::Response response;
  response.result = answer;
  const std::string payload = congress::net::EncodeResponse(response);
  return congress::net::DecodeResponse(payload.data(), payload.size());
}

int Run() {
  congress::tpcd::LineitemConfig data_config;
  data_config.num_tuples = 20'000;
  data_config.num_groups = 27;
  auto data = congress::tpcd::GenerateLineitem(data_config);
  if (!data.ok()) return 2;
  congress::AquaEngine engine;
  if (!engine.RegisterTable("lineitem", data->table, MakeSynopsisConfig(3))
           .ok()) {
    return 2;
  }
  const std::string sql =
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity), COUNT(*) "
      "FROM lineitem GROUP BY l_returnflag, l_linestatus";
  auto answer = engine.Query(sql);
  auto exact = engine.QueryExact(sql);
  if (!answer.ok() || !exact.ok() || answer->num_groups() < 2) return 2;

  auto decoded = RoundTrip(*answer);
  Expect(decoded.ok() && DiffAnswers(*answer, decoded->result).empty(),
         "wire round trip of an unperturbed answer passes");

  const size_t row = answer->num_groups() / 2;
  auto one_ulp = Perturb(*answer, row, [](ApproximateGroupRow* r) {
    r->estimates[0] = std::nextafter(r->estimates[0], INFINITY);
    return true;
  });
  auto wire_ulp = RoundTrip(one_ulp);
  Expect(wire_ulp.ok() && !DiffAnswers(*answer, wire_ulp->result).empty(),
         "an estimate one ulp off fails the check after the wire");
  Expect(!DiffAnswers(*answer, Perturb(*answer, row,
                                       [](ApproximateGroupRow* r) {
                                         r->bounds[0] = std::nextafter(
                                             r->bounds[0], INFINITY);
                                         return true;
                                       }))
              .empty(),
         "a bound one ulp wider fails the check");
  Expect(!DiffAnswers(*answer, Perturb(*answer, row,
                                       [](ApproximateGroupRow*) {
                                         return false;
                                       }))
              .empty(),
         "a dropped group fails the check");
  Expect(!DiffAnswers(*answer, Perturb(*answer, row,
                                       [](ApproximateGroupRow* r) {
                                         r->key[0] = congress::Value(
                                             r->key[0].AsInt64() + 1);
                                         return true;
                                       }))
              .empty(),
         "a changed group key fails the check");

  // Scoring: the exact answer itself has no error and full coverage; an
  // answer missing one group scores that group at 100%.
  const ApproximateResult as_exact = congress::ExactAsApproximate(*exact);
  const Accuracy perfect = ScoreAnswer(*exact, as_exact);
  Expect(perfect.error_pct_sum == 0.0 && perfect.covered == perfect.cells &&
             perfect.cells == 2 * exact->num_groups(),
         "exact answer scores 0% error and full coverage");
  const Accuracy missing = ScoreAnswer(
      *exact, Perturb(as_exact, 0, [](ApproximateGroupRow*) { return false; }));
  Expect(missing.error_pct_sum == 200.0 && missing.covered == missing.cells - 2,
         "a missing group scores 100% in each of its cells, none covered");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Run(); }
