// End-to-end benchmark driver. One invocation runs one workload over the
// real request path in this process:
//
//   AquaClient -> loopback TCP -> TcpFrontEnd -> AquaServer -> AquaEngine
//
// Usage:
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--rows <n>] [--trace-out <csv>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same load
// with spans recorded around every call into the program and prints the
// per-layer metrics. Every answer and every durability invariant is
// checked; any failure sets "correct": false and the exit code to 1. The
// last line of standard output is the JSON result.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/aqua.h"
#include "engine/executor.h"
#include "net/client.h"
#include "net/front_end.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "planner/planner.h"
#include "serve/server.h"
#include "sql/parser.h"
#include "stats.h"
#include "storage/group_index.h"
#include "tpcd/lineitem.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {
namespace {

using congress::AquaEngine;
using congress::ApproximateResult;
using congress::QueryResult;
using congress::Status;
using congress::Table;
namespace net = congress::net;
namespace serve = congress::serve;

constexpr char kTable[] = "lineitem";
/// An open-loop phase whose requests go out this long after their due time
/// (p99) did not apply the load it claims; the run is invalid.
constexpr double kMaxGeneratorLateMs = 50.0;
/// Set-ups per run; setup_s is their median. A traced run sets up once.
constexpr size_t kSetupReps = 5;
/// Open-loop senders spin for the last stretch before a due time.
constexpr std::chrono::microseconds kSpinBeforeDue{300};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  uint64_t rows = 1'000'000;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--rows") {
      args->rows = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (!have_workload || args->seconds <= 0.0 || args->rows == 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

/// Counts every operation attempted and every one that failed, was
/// refused, or returned a wrong answer, and keeps the first few reasons.
class Tally {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& why) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (reasons_.size() < 10) reasons_.push_back(why);
  }
  /// A check that is not an operation (an invariant over the run).
  void Check(bool ok, const std::string& why) {
    Attempt();
    if (!ok) Fail(why);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  void PrintReasons() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& r : reasons_) {
      std::fprintf(stderr, "FAILED: %s\n", r.c_str());
    }
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

/// Engine, server and front-end on an ephemeral loopback port. Stops the
/// front-end before the server, and both before the engine goes away.
struct Stack {
  std::unique_ptr<AquaEngine> engine;
  std::unique_ptr<serve::AquaServer> server;
  std::unique_ptr<net::TcpFrontEnd> front_end;

  ~Stack() {
    if (front_end) front_end->Stop();
    if (server) server->Stop();
  }
};

/// Registers a copy of `base`, starts the server and front-end, and waits
/// until the front-end has accepted a first connection. `*seconds` is the
/// time from RegisterTable to that accept (the copy is not timed).
congress::Result<std::unique_ptr<Stack>> BuildStack(
    const Table& base, const congress::SynopsisConfig& config,
    double* seconds) {
  Table copy = base;
  auto stack = std::make_unique<Stack>();
  const Clock::time_point start = Clock::now();
  stack->engine = std::make_unique<AquaEngine>();
  CONGRESS_RETURN_NOT_OK(
      stack->engine->RegisterTable(kTable, std::move(copy), config));
  serve::ServeOptions serve_options;
  serve_options.num_threads = kServerWorkers;
  stack->server =
      std::make_unique<serve::AquaServer>(stack->engine.get(), serve_options);
  CONGRESS_RETURN_NOT_OK(stack->server->Start());
  stack->front_end = std::make_unique<net::TcpFrontEnd>(
      stack->server.get(), net::FrontEndOptions{});
  CONGRESS_RETURN_NOT_OK(stack->front_end->Start());
  auto probe = net::ConnectTo("127.0.0.1", stack->front_end->port(),
                              std::chrono::milliseconds(2000));
  if (!probe.ok()) return probe.status();
  while (stack->front_end->stats().accepts == 0) {
    if (SecondsBetween(start, Clock::now()) > 60.0) {
      return Status::DeadlineExceeded("front-end never accepted");
    }
    std::this_thread::yield();
  }
  *seconds = SecondsBetween(start, Clock::now());
  return stack;
}

net::ClientOptions MakeClientOptions(uint64_t seed) {
  net::ClientOptions options;
  options.seed = seed;
  return options;
}

/// Everything recorded about one wire call.
struct CallRecord {
  size_t query = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  double generator_late_ms = 0.0;
  double queue_us = 0.0;
  double exec_us = 0.0;
  /// Time spent recording this call's spans (traced calls only).
  double trace_us = 0.0;
  bool ok = false;
  bool traced = false;
};

/// Client-side totals of every connection a phase opened.
struct ClientTotals {
  std::mutex mu;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  void Add(const net::ClientStats& stats) {
    std::lock_guard<std::mutex> lock(mu);
    retries += stats.retries;
    // The client counts its first connect as a reconnect too.
    reconnects += stats.reconnects > 0 ? stats.reconnects - 1 : 0;
  }
};

/// Shared state of the read path: the queries, the expected answer of each
/// on the snapshot the read phases see, and the bookkeeping every call
/// updates.
struct ReadContext {
  uint16_t port = 0;
  serve::QueryMode mode = serve::QueryMode::kApproximate;
  const std::vector<BenchQuery>* queries = nullptr;
  /// Expected answers (index-aligned with *queries); null when answers
  /// may legitimately change under concurrent publishes.
  const std::vector<ApproximateResult>* expected = nullptr;
  /// Query indices in send order, cycled so every query is sent equally
  /// often and a run's mix does not depend on how many calls it made.
  std::vector<size_t> order;
  Tally* tally = nullptr;
  ClientTotals* clients = nullptr;
  Trace* trace = nullptr;
  std::atomic<uint64_t>* next_request_id = nullptr;
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> resilient_answers{0};
};

/// Sends one read and checks the reply. Per-connection epoch
/// monotonicity is checked through `*last_epoch`.
CallRecord ReadCall(ReadContext* ctx, net::AquaClient* client, size_t query,
                    uint64_t* last_epoch, bool traced) {
  CallRecord rec;
  rec.query = query;
  rec.traced = traced;
  serve::Request request;
  request.sql = (*ctx->queries)[query].sql;
  request.mode = ctx->mode;
  ctx->tally->Attempt();
  rec.sent = Clock::now();
  auto response = client->Call(request);
  rec.done = Clock::now();
  if (!response.ok()) {
    ctx->tally->Fail("transport: " + response.status().ToString());
    return rec;
  }
  if (!response->status.ok()) {
    ctx->tally->Fail("query: " + response->status.ToString());
    return rec;
  }
  rec.queue_us = response->queue_seconds * 1e6;
  rec.exec_us = response->exec_seconds * 1e6;
  if (ctx->expected != nullptr) {
    const std::string diff =
        DiffAnswers((*ctx->expected)[query], response->result);
    if (!diff.empty()) {
      ctx->tally->Fail("wrong answer to '" + request.sql + "': " + diff);
      return rec;
    }
  }
  if (ctx->mode == serve::QueryMode::kResilient) {
    ctx->resilient_answers.fetch_add(1);
    if (response->degradation.degraded()) ctx->degraded.fetch_add(1);
    if (response->epoch < *last_epoch) {
      ctx->tally->Fail("epoch went backwards on one connection: " +
                       std::to_string(response->epoch) + " after " +
                       std::to_string(*last_epoch));
      return rec;
    }
    *last_epoch = response->epoch;
  }
  rec.ok = true;
  if (traced && ctx->trace != nullptr) {
    // Server queue and exec are reported as durations; they are placed
    // inside the call assuming transport time splits evenly around them.
    // Spans are recorded after the reply, so their cost delays only this
    // sender's next call; trace_us measures it.
    const Clock::time_point record_start = Clock::now();
    const uint64_t id = ctx->next_request_id->fetch_add(1);
    const int64_t root =
        ctx->trace->Add(id, "net.call", -1, rec.sent, rec.done);
    const auto server_ns = std::chrono::nanoseconds(
        static_cast<int64_t>((rec.queue_us + rec.exec_us) * 1e3));
    const Clock::time_point queue_start =
        rec.sent + (rec.done - rec.sent - server_ns) / 2;
    const Clock::time_point exec_start =
        queue_start +
        std::chrono::nanoseconds(static_cast<int64_t>(rec.queue_us * 1e3));
    ctx->trace->Add(id, "serve.queue", root, queue_start, exec_start);
    ctx->trace->Add(id, "serve.exec", root, exec_start,
                    exec_start + std::chrono::nanoseconds(static_cast<int64_t>(
                                     rec.exec_us * 1e3)));
    rec.trace_us = MicrosBetween(record_start, Clock::now());
  }
  return rec;
}

/// Closed-loop rates: `median_rate` is connections / the mean, weighted by
/// the send mix, of each distinct query's median latency; `wall_rate` is
/// answered queries over the phase's wall time.
struct ClosedLoopRate {
  double median_rate = 0.0;
  double wall_rate = 0.0;
};

/// Closed loop: `connections` clients each send their next query as soon
/// as the previous reply arrives, cycling through the send order from
/// their own offsets. On a shared VM the host takes CPUs away for seconds
/// at a time; that slows the calls it lands on, a minority of each
/// query's calls, so the per-query medians move less with it than the
/// wall rate does (see README.md).
ClosedLoopRate RunClosedLoop(ReadContext* ctx, size_t connections,
                             double seconds, uint64_t seed) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const size_t num_queries = ctx->queries->size();
  // Per connection, per distinct query: latencies of answered calls.
  std::vector<std::vector<std::vector<double>>> latency_us(
      connections, std::vector<std::vector<double>>(num_queries));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::AquaClient client("127.0.0.1", ctx->port,
                             MakeClientOptions(seed + c));
      uint64_t last_epoch = 0;
      size_t i = c * ctx->order.size() / connections;
      while (Clock::now() < end) {
        const size_t query = ctx->order[i++ % ctx->order.size()];
        const CallRecord rec =
            ReadCall(ctx, &client, query, &last_epoch, false);
        if (rec.ok && rec.done <= end) {
          latency_us[c][query].push_back(MicrosBetween(rec.sent, rec.done));
        }
      }
      ctx->clients->Add(client.stats());
    });
  }
  for (std::thread& t : threads) t.join();

  ClosedLoopRate rate;
  double answered = 0.0, weighted_us = 0.0, weight = 0.0;
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<double> all;
    for (const auto& per : latency_us) {
      all.insert(all.end(), per[q].begin(), per[q].end());
    }
    answered += static_cast<double>(all.size());
    if (all.empty()) continue;  // Only in a phase too short for one cycle.
    const double w = static_cast<double>((*ctx->queries)[q].weight);
    weighted_us += w * Median(all);
    weight += w;
  }
  rate.wall_rate = answered / seconds;
  if (weighted_us > 0.0) {
    rate.median_rate =
        static_cast<double>(connections) * weight / (weighted_us * 1e-6);
  }
  return rate;
}

/// Sleeps until shortly before `due`, then spins to it, so a sender's own
/// timer wake-up does not count as latency of the call it then makes.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinBeforeDue);
  while (Clock::now() < due) {
  }
}

/// Open loop at a fixed rate: request i is due at start + i / rate,
/// whatever happened to earlier requests. `connections` senders share the
/// schedule. Latency is measured from the due time. Generator lateness is
/// send time minus due time, so it also counts the wait for a sender that
/// is still busy with an earlier call: a generator that has fallen back to
/// a closed loop shows here.
std::vector<CallRecord> RunOpenLoop(ReadContext* ctx, size_t connections,
                                    double rate, double seconds,
                                    uint64_t seed) {
  const Clock::time_point start = Clock::now();
  const size_t total = static_cast<size_t>(rate * seconds);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };
  std::atomic<size_t> next{0};
  std::vector<std::vector<CallRecord>> records(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::AquaClient client("127.0.0.1", ctx->port,
                             MakeClientOptions(seed + 100 + c));
      uint64_t last_epoch = 0;
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= total) break;
        const Clock::time_point due_at = due(i);
        WaitUntil(due_at);
        CallRecord rec =
            ReadCall(ctx, &client, ctx->order[i % ctx->order.size()],
                     &last_epoch, ctx->trace != nullptr);
        rec.due = due_at;
        rec.generator_late_ms = MillisBetween(due_at, rec.sent);
        records[c].push_back(rec);
      }
      ctx->clients->Add(client.stats());
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<CallRecord> all;
  for (auto& per : records) all.insert(all.end(), per.begin(), per.end());
  return all;
}

/// Latencies from due time of the answered calls.
std::vector<double> LatenciesMs(const std::vector<CallRecord>& records) {
  std::vector<double> out;
  for (const CallRecord& r : records) {
    if (!r.ok) continue;
    out.push_back(MillisBetween(r.due, r.done));
  }
  return out;
}

/// Results of the ingest phase.
struct IngestResult {
  std::vector<double> insert_ms;           // From due time, acked batches.
  std::vector<double> writer_late_ms;      // Send minus due time.
  std::vector<double> refresh_ms;
  std::vector<double> visibility_lag_ms;
  std::vector<CallRecord> reads;
  uint64_t acked_rows = 0;
  uint64_t batches_sent = 0;
  uint64_t refreshes = 0;
};

/// The ingest phase: an open-loop writer sends tokened insert batches over
/// its own connection; a refresher publishes after every kRefreshEveryRows
/// acknowledged rows (so the publish count depends on rows, not on how
/// fast Refresh is), plus once at the end for any remainder; and, when
/// `reader_rate` > 0, an open-loop reader queries beside them. Checks the
/// durability invariants afterwards.
IngestResult RunIngest(Stack* stack, const Table& base, ReadContext* reads,
                       double reader_rate, double seconds, uint64_t seed,
                       Tally* tally, ClientTotals* clients) {
  IngestResult result;
  AquaEngine* engine = stack->engine.get();
  const uint64_t base_rows = base.num_rows();
  const uint64_t epoch_before = engine->epoch();
  const size_t max_batches =
      static_cast<size_t>(kBatchesPerSecond * seconds);
  // Batches are generated before the clock starts.
  std::vector<std::vector<std::vector<congress::Value>>> batches;
  batches.reserve(max_batches);
  for (size_t i = 0; i < max_batches; ++i) {
    batches.push_back(MakeInsertBatch(base, base_rows, seed, i));
  }

  const Clock::time_point start = Clock::now();
  auto due = [&](size_t i, double rate) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };
  std::atomic<uint64_t> acked_rows{0};
  std::atomic<bool> writer_done{false};
  std::vector<Clock::time_point> ack_time(max_batches);
  std::vector<bool> acked(max_batches, false);
  std::vector<double> writer_late;

  std::thread writer([&] {
    net::AquaClient client("127.0.0.1", stack->front_end->port(),
                           MakeClientOptions(seed + 500));
    for (size_t i = 0; i < max_batches; ++i) {
      const Clock::time_point due_at = due(i, kBatchesPerSecond);
      WaitUntil(due_at);
      const Clock::time_point sent = Clock::now();
      writer_late.push_back(MillisBetween(due_at, sent));
      tally->Attempt();
      std::string token = "s";
      token += std::to_string(seed);
      token += "-b";
      token += std::to_string(i);
      auto response = client.Insert(kTable, batches[i], token);
      const Clock::time_point done = Clock::now();
      if (!response.ok() || !response->status.ok()) {
        tally->Fail("insert batch " + std::to_string(i) + ": " +
                    (response.ok() ? response->status.ToString()
                                   : response.status().ToString()));
        continue;
      }
      ack_time[i] = done;
      acked[i] = true;
      result.insert_ms.push_back(MillisBetween(due_at, done));
      acked_rows.fetch_add(kBatchRows);
    }
    clients->Add(client.stats());
    writer_done.store(true);
  });

  // (end time, inserted rows visible after it) per publish.
  std::vector<std::pair<Clock::time_point, uint64_t>> publishes;
  auto refresh = [&] {
    tally->Attempt();
    const Clock::time_point t0 = Clock::now();
    const Status st = engine->Refresh(kTable);
    const Clock::time_point t1 = Clock::now();
    ++result.refreshes;
    if (!st.ok()) {
      tally->Fail("refresh: " + st.ToString());
      return;
    }
    result.refresh_ms.push_back(MillisBetween(t0, t1));
    auto snap = engine->GetSnapshot(kTable);
    publishes.emplace_back(
        t1, snap.ok() ? (*snap)->table->num_rows() - base_rows : 0);
  };
  std::thread refresher([&] {
    while (true) {
      const uint64_t target = (result.refreshes + 1) * kRefreshEveryRows;
      while (acked_rows.load() < target && !writer_done.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      if (acked_rows.load() < target) break;
      refresh();
    }
  });

  std::thread reader;
  if (reader_rate > 0.0) {
    reader = std::thread([&] {
      result.reads = RunOpenLoop(reads, 1, reader_rate, seconds, seed + 700);
    });
  }
  writer.join();
  refresher.join();
  if (reader.joinable()) reader.join();
  result.acked_rows = acked_rows.load();
  result.batches_sent = max_batches;
  if (result.acked_rows % kRefreshEveryRows != 0) refresh();
  result.writer_late_ms = writer_late;

  // Publish count implied by the row trigger, and one epoch per publish.
  const uint64_t expected_publishes =
      (result.acked_rows + kRefreshEveryRows - 1) / kRefreshEveryRows;
  tally->Check(result.refreshes == expected_publishes,
               "publishes " + std::to_string(result.refreshes) +
                   " != row trigger's " + std::to_string(expected_publishes));
  tally->Check(engine->epoch() - epoch_before == result.refreshes,
               "epoch advanced by " +
                   std::to_string(engine->epoch() - epoch_before) + " over " +
                   std::to_string(result.refreshes) + " refreshes");

  // Every acked row is published exactly once: the final table holds the
  // initial ids 1..N plus exactly the ids of the acked batches.
  auto snap = engine->GetSnapshot(kTable);
  if (!snap.ok()) {
    tally->Check(false, "final snapshot: " + snap.status().ToString());
    return result;
  }
  const Table& table = *(*snap)->table;
  tally->Check(table.num_rows() == base_rows + result.acked_rows,
               "final rows " + std::to_string(table.num_rows()) +
                   " != initial " + std::to_string(base_rows) + " + acked " +
                   std::to_string(result.acked_rows));
  std::vector<int64_t> ids = table.Int64Column(congress::tpcd::kLId);
  std::sort(ids.begin(), ids.end());
  std::vector<int64_t> want;
  want.reserve(base_rows + result.acked_rows);
  for (uint64_t i = 1; i <= base_rows; ++i) {
    want.push_back(static_cast<int64_t>(i));
  }
  for (size_t b = 0; b < max_batches; ++b) {
    if (!acked[b]) continue;
    for (size_t r = 0; r < kBatchRows; ++r) {
      want.push_back(static_cast<int64_t>(base_rows + b * kBatchRows + r + 1));
    }
  }
  tally->Check(ids == want,
               "published l_id set differs from initial + acked rows "
               "(lost or twice-applied rows)");

  // Visibility: the writer is sequential, so the rows visible after a
  // publish are a prefix of the acked batches.
  uint64_t rows_through = 0;
  size_t p = 0;
  for (size_t b = 0; b < max_batches; ++b) {
    if (!acked[b]) continue;
    rows_through += kBatchRows;
    while (p < publishes.size() && publishes[p].second < rows_through) ++p;
    if (p == publishes.size()) break;
    result.visibility_lag_ms.push_back(
        std::max(0.0, MillisBetween(ack_time[b], publishes[p].first)));
  }
  return result;
}

/// Adds the accuracy of every query's answer to `*total`. Errors are pooled
/// over every (group, aggregate) cell rather than averaged per query, so a
/// group of single-group queries (Qg0) whose errors all move with the one
/// sample drawn does not outweigh the many-group answers.
void Pool(const std::vector<QueryResult>& exact,
          const std::vector<ApproximateResult>& approx, Accuracy* total) {
  for (size_t q = 0; q < exact.size(); ++q) {
    const Accuracy acc = ScoreAnswer(exact[q], approx[q]);
    total->error_pct_sum += acc.error_pct_sum;
    total->cells += acc.cells;
    total->covered += acc.covered;
  }
}

/// Answers every query in-process on the current snapshot in the request
/// mode, and exactly unless `exact` is null.
Status AnswerAll(const AquaEngine& engine, const std::vector<BenchQuery>& qs,
                 serve::QueryMode mode, std::vector<ApproximateResult>* approx,
                 std::vector<QueryResult>* exact) {
  approx->clear();
  if (exact != nullptr) exact->clear();
  for (const BenchQuery& q : qs) {
    if (mode == serve::QueryMode::kResilient) {
      auto answer = engine.QueryResilient(q.sql);
      if (!answer.ok()) return answer.status();
      approx->push_back(std::move(answer->result));
    } else {
      auto answer = engine.Query(q.sql);
      if (!answer.ok()) return answer.status();
      approx->push_back(std::move(answer).value());
    }
    if (exact == nullptr) continue;
    auto truth = engine.QueryExact(q.sql);
    if (!truth.ok()) return truth.status();
    exact->push_back(std::move(truth).value());
  }
  return Status::OK();
}

/// Pools one more independent sample draw into `*total`: the same
/// configuration with another sample seed, in a fresh engine over the same
/// table, scored against the same exact answers.
Status AddAccuracyDraw(const Table& base, congress::SynopsisConfig config,
                       uint64_t draw, const std::vector<BenchQuery>& queries,
                       serve::QueryMode mode,
                       const std::vector<QueryResult>& exact,
                       Accuracy* total) {
  config.seed += draw * 7919;
  AquaEngine engine;
  CONGRESS_RETURN_NOT_OK(engine.RegisterTable(kTable, base, config));
  std::vector<ApproximateResult> approx;
  CONGRESS_RETURN_NOT_OK(AnswerAll(engine, queries, mode, &approx, nullptr));
  Pool(exact, approx, total);
  return Status::OK();
}

/// Ordered metric list printed as "name value unit" lines and as the JSON
/// result's "metrics" object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return MillisBetween(t0, Clock::now());
}

double CounterValue(const char* name) {
  return static_cast<double>(
      congress::obs::MetricsRegistry::Global().GetCounter(name).value());
}

/// The traced run's in-process replay: every query goes through the public
/// calls the server path makes (parse, pin, bind, answer or plan-and-run,
/// then the response codec), each recorded as a span under one root per
/// replay. Planner::Plan, Planner::Run and ExecuteExact are also timed once
/// per query as off-path roots, so their cost is known on every workload.
/// Planner::Run on a budget-free query plans and runs the primary answer.
struct ReplayResult {
  std::map<congress::planner::PlanKind, size_t> chosen;
  size_t budget_queries = 0;
  size_t escalated = 0;
  std::vector<double> response_bytes;
  /// Mean path time (parse + pin + bind + answer) per query, in us.
  std::vector<double> path_us;
  /// Per budget-free query: sample rows the estimator read / groups returned.
  std::vector<double> sample_rows_per_group;
};

Status Replay(const AquaEngine& engine, const std::vector<BenchQuery>& qs,
              size_t reps, Trace* trace, std::atomic<uint64_t>* next_id,
              ReplayResult* out) {
  out->path_us.assign(qs.size(), 0.0);
  congress::planner::Planner planner;
  for (size_t q = 0; q < qs.size(); ++q) {
    for (size_t rep = 0; rep < reps; ++rep) {
      const uint64_t id = next_id->fetch_add(1);
      // Nothing else runs now, so the counters move only for this query.
      const double match_in = CounterValue("kernels.match.rows_in");
      const double eval_rows = CounterValue("kernels.eval.rows");
      const Clock::time_point t0 = Clock::now();
      auto statement = congress::sql::ParseSelect(qs[q].sql);
      const Clock::time_point t1 = Clock::now();
      auto snapshot = engine.GetSnapshot(kTable);
      const Clock::time_point t2 = Clock::now();
      if (!statement.ok()) return statement.status();
      if (!snapshot.ok()) return snapshot.status();
      auto query =
          congress::sql::Bind(*statement, (*snapshot)->table->schema());
      const Clock::time_point t3 = Clock::now();
      if (!query.ok()) return query.status();
      serve::Response response;
      const char* exec_name = "synopsis.answer";
      if (query->budget.active()) {
        exec_name = "planner.run";
        auto planned = planner.Run(**snapshot, *query);
        if (!planned.ok()) return planned.status();
        if (rep == 0) {
          ++out->budget_queries;
          ++out->chosen[planned->report.chosen.kind];
          if (planned->report.escalations > 0) ++out->escalated;
        }
        response.result = std::move(planned->result);
      } else {
        auto answer = (*snapshot)->synopsis->Answer(*query);
        if (!answer.ok()) return answer.status();
        response.result = std::move(answer).value();
      }
      const Clock::time_point t4 = Clock::now();
      const std::string payload = net::EncodeResponse(response);
      const Clock::time_point t5 = Clock::now();
      auto decoded = net::DecodeResponse(payload.data(), payload.size());
      const Clock::time_point t6 = Clock::now();
      if (!decoded.ok()) return decoded.status();

      const int64_t root = trace->Add(id, "replay", -1, t0, t6);
      trace->Add(id, "sql.parse", root, t0, t1);
      trace->Add(id, "catalog.pin", root, t1, t2);
      trace->Add(id, "sql.bind", root, t2, t3);
      trace->Add(id, exec_name, root, t3, t4);
      trace->Add(id, "net.encode_response", root, t4, t5);
      trace->Add(id, "net.decode_response", root, t5, t6);
      out->path_us[q] += MicrosBetween(t0, t4) / static_cast<double>(reps);
      if (rep == 0) {
        out->response_bytes.push_back(static_cast<double>(payload.size()));
        if (!query->budget.active() && response.result.num_groups() > 0) {
          // Rows a predicate was matched on or, without a predicate, rows
          // fed to aggregate evaluation (counted once per aggregate).
          const double num_aggs =
              static_cast<double>(query->aggregates.size());
          const double rows_read =
              std::max(CounterValue("kernels.match.rows_in") - match_in,
                       (CounterValue("kernels.eval.rows") - eval_rows) /
                           num_aggs);
          out->sample_rows_per_group.push_back(
              rows_read / static_cast<double>(response.result.num_groups()));
        }
        const uint64_t plan_id = next_id->fetch_add(1);
        const Clock::time_point p0 = Clock::now();
        auto report = planner.Plan(**snapshot, *query);
        trace->Add(plan_id, "planner.plan", -1, p0, Clock::now());
        if (!report.ok()) return report.status();
        const uint64_t run_id = next_id->fetch_add(1);
        const Clock::time_point r0 = Clock::now();
        auto run = planner.Run(**snapshot, *query);
        trace->Add(run_id, "planner.run_once", -1, r0, Clock::now());
        if (!run.ok()) return run.status();
        const uint64_t exact_id = next_id->fetch_add(1);
        const Clock::time_point e0 = Clock::now();
        auto exact = congress::ExecuteExact(
            *(*snapshot)->table, *query,
            (*snapshot)->synopsis->config().execution);
        trace->Add(exact_id, "engine.exact", -1, e0, Clock::now());
        if (!exact.ok()) return exact.status();
      }
    }
  }
  return Status::OK();
}

double Share(size_t part, size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / whole;
}

double HistogramMeanUs(const char* name) {
  return congress::obs::MetricsRegistry::Global()
             .GetHistogram(name)
             .mean_nanos() /
         1e3;
}

int Run(const Args& args) {
  auto spec = FindWorkload(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  Tally tally;
  ClientTotals clients;
  Trace trace;
  std::atomic<uint64_t> next_request_id{1};

  congress::tpcd::LineitemConfig data_config;
  data_config.num_tuples = args.rows;
  data_config.num_groups = spec->num_groups;
  data_config.seed = args.seed;
  auto data = congress::tpcd::GenerateLineitem(data_config);
  if (!data.ok()) {
    std::fprintf(stderr, "datagen: %s\n", data.status().ToString().c_str());
    return 2;
  }
  const Table& base = data->table;
  const congress::SynopsisConfig config = MakeSynopsisConfig(args.seed);
  const std::vector<BenchQuery> queries = MakeQueries(*spec, base, args.seed);

  // Set-up, several times; the last stack stays up for the run.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  const size_t reps = args.trace ? 1 : kSetupReps;
  for (size_t r = 0; r < reps; ++r) {
    stack.reset();
    double seconds = 0.0;
    auto built = BuildStack(base, config, &seconds);
    if (!built.ok()) {
      std::fprintf(stderr, "setup: %s\n", built.status().ToString().c_str());
      return 2;
    }
    stack = std::move(built).value();
    setup_s.push_back(seconds);
  }
  const AquaEngine& engine = *stack->engine;

  // Expected answers and exact references on the initial snapshot.
  std::vector<ApproximateResult> expected;
  std::vector<QueryResult> exact;
  Status st = AnswerAll(engine, queries, spec->read_mode, &expected, &exact);
  if (!st.ok()) {
    std::fprintf(stderr, "reference answers: %s\n", st.ToString().c_str());
    return 2;
  }

  ReadContext reads;
  reads.port = stack->front_end->port();
  reads.mode = spec->read_mode;
  reads.queries = &queries;
  reads.expected = &expected;
  for (size_t i = 0; i < queries.size(); ++i) {
    reads.order.insert(reads.order.end(), queries[i].weight, i);
  }
  congress::Random order_rng(args.seed + 11);
  order_rng.Shuffle(&reads.order);
  reads.tally = &tally;
  reads.clients = &clients;
  reads.next_request_id = &next_request_id;

  // Warm-up: fills caches and brings every thread of the path up.
  RunClosedLoop(&reads, kReadConnections, 0.5, args.seed + 1000);
  congress::obs::MetricsRegistry::Global().ResetAll();
  const uint64_t warmup_reads = tally.attempted();

  const double s = args.seconds;
  const ClosedLoopRate qps = RunClosedLoop(&reads, kReadConnections,
                                           spec->closed_share * s, args.seed);
  if (args.trace) reads.trace = &trace;
  const std::vector<CallRecord> open =
      RunOpenLoop(&reads, kReadConnections, spec->open_rate_qps,
                  spec->open_share * s, args.seed);
  // Program counters over the read-only phases.
  const double read_queries =
      static_cast<double>(tally.attempted() - warmup_reads);
  const double rows_scanned = CounterValue("engine.rows_scanned");
  const double match_in = CounterValue("kernels.match.rows_in");
  const double match_selected = CounterValue("kernels.match.rows_selected");

  // Answers may change once publishes start: the ingest reader asks in
  // kResilient mode, the mode that serves across publishes, and its
  // answers are checked by epoch, not bits.
  reads.expected = nullptr;
  reads.mode = serve::QueryMode::kResilient;
  IngestResult ingest =
      RunIngest(stack.get(), base, &reads, spec->reader_rate_qps,
                spec->ingest_share * s, args.seed, &tally, &clients);
  Accuracy accuracy;
  Pool(exact, expected, &accuracy);

  // Every open-loop sender's lateness, each call counted once.
  std::vector<double> late = ingest.writer_late_ms;
  for (const CallRecord& r : open) late.push_back(r.generator_late_ms);
  for (const CallRecord& r : ingest.reads) late.push_back(r.generator_late_ms);
  const Tail gen_late = HighTail(late);
  tally.Check(gen_late.value <= kMaxGeneratorLateMs,
              "load generator fell behind: p" +
                  std::to_string(gen_late.quantile * 100) + " lateness " +
                  std::to_string(gen_late.value) + " ms");

  const std::vector<double> latency = LatenciesMs(open);
  const Tail query_tail = HighTail(latency);
  const Tail insert_tail = HighTail(ingest.insert_ms);
  std::printf("workload %s seed %llu: %zu queries, %zu open-loop samples "
              "(tail = p%.2f), %zu insert samples (tail = p%.2f), "
              "%llu publishes\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              queries.size(), query_tail.samples, query_tail.quantile * 100,
              insert_tail.samples, insert_tail.quantile * 100,
              static_cast<unsigned long long>(ingest.refreshes));
  std::printf("setup_s reps");
  for (double t : setup_s) std::printf(" %.4f", t);
  std::printf(" s\n");
  std::printf("gen_late_ms p%.2f %.4f ms\n", gen_late.quantile * 100,
              gen_late.value);
  // Printed but not gated: on a shared host these swing between runs by
  // more than any useful bound (see README.md).
  std::printf("query_p50_ms %.4f ms\n", Median(latency));
  std::printf("query_tail_ms p%.2f %.4f ms\n", query_tail.quantile * 100,
              query_tail.value);
  std::printf("insert_p50_ms %.4f ms\n", Median(ingest.insert_ms));
  std::printf("insert_tail_ms p%.2f %.4f ms\n", insert_tail.quantile * 100,
              insert_tail.value);
  std::printf("refresh_p50_ms %.4f ms\n", Median(ingest.refresh_ms));
  std::printf("query_qps_wall %.4f 1/s\n", qps.wall_rate);
  std::printf("error_frac %.6g ratio (%llu failed of %llu attempted)\n",
              Share(tally.failed(), tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));

  MetricSet metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("query_qps", qps.median_rate, "1/s");
    // Peak RSS of the served run, before the extra accuracy draws, which
    // run after the stack is torn down.
    const double peak_rss_mb = PeakRssMb();
    stack.reset();
    for (size_t d = 1; d < spec->accuracy_draws; ++d) {
      st = AddAccuracyDraw(base, config, d, queries, spec->read_mode, exact,
                           &accuracy);
      if (!st.ok()) tally.Check(false, "accuracy draw: " + st.ToString());
    }
    const double cells = static_cast<double>(accuracy.cells);
    metrics.Add("answer_l1_pct", accuracy.error_pct_sum / cells, "%");
    metrics.Add("bound_coverage", accuracy.covered / cells, "ratio");
    metrics.Add("visibility_lag_p50_ms", Median(ingest.visibility_lag_ms),
                "ms");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Registry figures kept by the program during the measured phases.
    const double swap_us = HistogramMeanUs("catalog.swap_latency");
    const double merge_us = HistogramMeanUs("ingest.merge_latency");
    const serve::ServerStats server_stats = stack->server->stats();

    ReplayResult replay;
    st = Replay(engine, queries, 5, &trace, &next_request_id, &replay);
    if (!st.ok()) tally.Check(false, "replay: " + st.ToString());

    // In-process InsertBatch on batches like the writer's (fresh ids).
    std::vector<double> insert_batch_us;
    for (size_t i = 0; i < 200; ++i) {
      auto batch = MakeInsertBatch(base, base.num_rows(), args.seed,
                                   ingest.batches_sent + i);
      const Clock::time_point t0 = Clock::now();
      const Status ist = stack->engine->InsertBatch(kTable, batch);
      insert_batch_us.push_back(MicrosBetween(t0, Clock::now()));
      if (!ist.ok()) tally.Check(false, "InsertBatch: " + ist.ToString());
    }

    // The parts a publish is made of, timed from outside on the last
    // snapshot's table.
    auto snap = engine.GetSnapshot(kTable);
    std::vector<double> copy_ms, index_ms;
    double build_ms = 0.0, fallback_ms = 0.0;
    if (snap.ok()) {
      const Table& table = *(*snap)->table;
      const std::vector<size_t>& grouping =
          (*snap)->synopsis->grouping_column_indices();
      for (int r = 0; r < 3; ++r) {
        copy_ms.push_back(TimeMs([&] { Table copy = table; }));
        index_ms.push_back(TimeMs([&] {
          auto index = congress::GroupIndex::Build(table, grouping,
                                                   config.execution);
        }));
      }
      build_ms = TimeMs([&] {
        auto built = congress::AquaSynopsis::Build(table, config);
        if (!built.ok()) tally.Check(false, "synopsis build");
      });
      for (auto strategy : {congress::AllocationStrategy::kBasicCongress,
                            congress::AllocationStrategy::kHouse}) {
        congress::SynopsisConfig fallback = config;
        fallback.strategy = strategy;
        fallback.incremental = false;
        fallback_ms += TimeMs([&] {
          auto built = congress::AquaSynopsis::Build(table, fallback);
          if (!built.ok()) tally.Check(false, "fallback build");
        });
      }
    } else {
      tally.Check(false, "snapshot: " + snap.status().ToString());
    }

    // Client call vs the server's share of it; server exec vs the replayed
    // path of the same queries.
    double call_sum = 0.0, server_sum = 0.0, exec_sum = 0.0, path_sum = 0.0;
    std::vector<double> trace_us;
    for (const CallRecord& r : open) {
      if (!r.ok || !r.traced) continue;
      trace_us.push_back(r.trace_us);
      call_sum += MicrosBetween(r.sent, r.done);
      server_sum += r.queue_us + r.exec_us;
      exec_sum += r.exec_us;
      path_sum += replay.path_us[r.query];
    }
    const std::vector<double> calls = trace.DurationsUs("net.call");
    const std::vector<double> queue = trace.DurationsUs("serve.queue");

    using congress::planner::PlanKind;
    auto share = [&](std::initializer_list<PlanKind> kinds) {
      size_t n = 0;
      for (PlanKind k : kinds) {
        auto it = replay.chosen.find(k);
        if (it != replay.chosen.end()) n += it->second;
      }
      return Share(n, replay.budget_queries);
    };
    size_t rollup = 0;
    for (const BenchQuery& q : queries) rollup += q.rollup;

    metrics.Add("net.call_us_p50", Median(calls), "us");
    metrics.Add("net.call_us_p99", HighTail(calls).value, "us");
    metrics.Add("net.transport_us_p50", Median(trace.SelfUs("net.call")), "us");
    metrics.Add("net.encode_response_us_p50",
                Median(trace.DurationsUs("net.encode_response")), "us");
    metrics.Add("net.decode_response_us_p50",
                Median(trace.DurationsUs("net.decode_response")), "us");
    metrics.Add("net.response_bytes_mean", Mean(replay.response_bytes),
                "bytes");
    metrics.Add("net.client_retries", static_cast<double>(clients.retries),
                "count");
    metrics.Add("net.client_reconnects",
                static_cast<double>(clients.reconnects), "count");
    metrics.Add("serve.queue_us_p50", Median(queue), "us");
    metrics.Add("serve.queue_us_p99", HighTail(queue).value, "us");
    metrics.Add("serve.exec_us_p50", Median(trace.DurationsUs("serve.exec")),
                "us");
    metrics.Add("serve.admission_rejected",
                static_cast<double>(server_stats.rejected), "count");
    metrics.Add("serve.deadline_expired",
                static_cast<double>(server_stats.deadline_expired), "count");
    metrics.Add("sql.parse_us_p50", Median(trace.DurationsUs("sql.parse")),
                "us");
    metrics.Add("sql.bind_us_p50", Median(trace.DurationsUs("sql.bind")),
                "us");
    metrics.Add("catalog.pin_us_p50", Median(trace.DurationsUs("catalog.pin")),
                "us");
    metrics.Add("catalog.swap_latency_us_mean", swap_us, "us");
    metrics.Add("synopsis.answer_us_p50",
                Median(trace.DurationsUs("synopsis.answer")), "us");
    metrics.Add("synopsis.sample_rows_per_group",
                Median(replay.sample_rows_per_group), "count");
    metrics.Add("synopsis.rollup_query_frac", Share(rollup, queries.size()),
                "ratio");
    metrics.Add("planner.plan_us_p50",
                Median(trace.DurationsUs("planner.plan")), "us");
    metrics.Add("planner.run_us_mean",
                Mean(trace.DurationsUs("planner.run_once")), "us");
    metrics.Add("planner.share.primary_synopsis",
                share({PlanKind::kPrimarySynopsis}), "ratio");
    metrics.Add("planner.share.fallback",
                share({PlanKind::kFallbackBasic, PlanKind::kFallbackHouse}),
                "ratio");
    metrics.Add("planner.share.combined", share({PlanKind::kCombined}),
                "ratio");
    metrics.Add("planner.share.exact", share({PlanKind::kExact}), "ratio");
    metrics.Add("planner.escalation_frac",
                Share(replay.escalated, replay.budget_queries), "ratio");
    metrics.Add("engine.exact_us_p50",
                Median(trace.DurationsUs("engine.exact")), "us");
    metrics.Add("engine.rows_scanned_per_query",
                read_queries == 0.0 ? 0.0 : rows_scanned / read_queries,
                "count");
    metrics.Add("kernels.selectivity",
                match_in == 0.0 ? 0.0 : match_selected / match_in, "ratio");
    metrics.Add("resilience.degraded_frac",
                Share(reads.degraded.load(), reads.resilient_answers.load()),
                "ratio");
    metrics.Add("ingest.insert_batch_us_p50", Median(insert_batch_us), "us");
    metrics.Add("ingest.merge_latency_us_mean", merge_us, "us");
    metrics.Add("core.refresh_ms_p50", Median(ingest.refresh_ms), "ms");
    metrics.Add("core.publishes", static_cast<double>(ingest.refreshes),
                "count");
    metrics.Add("storage.table_copy_ms", Median(copy_ms), "ms");
    metrics.Add("storage.group_index_build_ms", Median(index_ms), "ms");
    metrics.Add("synopsis.build_ms", build_ms, "ms");
    metrics.Add("sampling.fallback_build_ms", fallback_ms, "ms");
    metrics.Add("loadgen.late_ms_p99", gen_late.value, "ms");
    metrics.Add("trace.unattributed_frac.client",
                call_sum == 0.0 ? 0.0 : 1.0 - server_sum / call_sum, "ratio");
    metrics.Add("trace.unattributed_frac.server",
                exec_sum == 0.0 ? 0.0 : 1.0 - path_sum / exec_sum, "ratio");
    metrics.Add("trace.overhead_us_p50", Median(trace_us), "us");

    if (!args.trace_out.empty() && !trace.WriteCsv(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  stack.reset();
  const bool correct = tally.failed() == 0;
  tally.PrintReasons();
  metrics.Print();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted()),
      static_cast<unsigned long long>(tally.failed()), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::Run(args);
}
