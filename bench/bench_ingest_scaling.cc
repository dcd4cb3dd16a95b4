// Streaming-ingest scaling: inserts/sec through the engine's sharded
// lock-free ingest path vs producer thread count, with query readers
// running concurrently the whole time (DESIGN.md §15). Not a paper
// figure — it validates the throughput claim: batched inserts never
// take the writer lock, so ingest should scale with producers while
// every published snapshot stays exact. A last record times the publish
// itself: Refresh after a fixed-size delta.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/aqua.h"
#include "tpcd/lineitem.h"
#include "util/stopwatch.h"

namespace congress {
namespace {

constexpr char kSql[] =
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), COUNT(*) "
    "FROM lineitem GROUP BY l_returnflag, l_linestatus";

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Ingest scaling: batched inserts/sec vs producer thread count",
      "sharded lock-free buffering scales with producers while concurrent "
      "readers keep answering from pinned snapshots");

  tpcd::LineitemConfig defaults;
  defaults.group_skew_z = 1.2;
  const tpcd::LineitemConfig config =
      bench::LineitemConfigFromArgs(argc, argv, defaults);
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& base = data->table;
  const size_t stream_rows = static_cast<size_t>(
      bench::ArgOr(argc, argv, "--stream",
                   static_cast<int64_t>(base.num_rows() / 2)));
  const size_t batch_rows = static_cast<size_t>(
      bench::ArgOr(argc, argv, "--batch", 256));
  const size_t shards =
      static_cast<size_t>(bench::ArgOr(argc, argv, "--shards", 8));

  std::printf("T=%zu base tuples, %zu streamed per round (batch %zu), "
              "%zu shards, %u hardware threads\n\n",
              base.num_rows(), stream_rows, batch_rows, shards,
              std::thread::hardware_concurrency());

  bench::JsonReport report(argc, argv);

  SynopsisConfig synopsis_config;
  synopsis_config.strategy = AllocationStrategy::kCongress;
  synopsis_config.sample_size = 20000;
  synopsis_config.incremental = true;
  synopsis_config.ingest_shards = shards;
  synopsis_config.seed = config.seed;
  {
    const std::vector<size_t> grouping = tpcd::LineitemGroupingColumns();
    for (size_t c : grouping) {
      synopsis_config.grouping_columns.push_back(base.schema().field(c).name);
    }
  }

  auto row_at = [&](size_t r) {
    std::vector<Value> row;
    row.reserve(base.num_columns());
    for (size_t c = 0; c < base.num_columns(); ++c) {
      row.push_back(base.GetValue(r, c));
    }
    return row;
  };

  // Legacy reference: the pre-sharding shape — one thread, one row per
  // Insert call, nobody reading.
  double serial_seconds = 0.0;
  {
    AquaEngine engine;
    auto st = engine.RegisterTable("lineitem", base, synopsis_config);
    if (!st.ok()) {
      std::printf("register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Stopwatch sw;
    for (size_t r = 0; r < stream_rows; ++r) {
      if (!engine.Insert("lineitem", row_at(r % base.num_rows())).ok()) {
        std::printf("serial insert failed\n");
        return 1;
      }
    }
    serial_seconds = sw.ElapsedSeconds();
    std::printf("%-10s %12.4f s %14.0f rows/s   (single-row Insert, no "
                "readers)\n",
                "serial", serial_seconds,
                static_cast<double>(stream_rows) / serial_seconds);
    report.Add("ingest_serial",
               {{"tuples", static_cast<double>(stream_rows)},
                {"shards", static_cast<double>(shards)}},
               serial_seconds, engine.Refresh("lineitem").ok() ? 0.0 : -1.0);
  }

  std::printf("\n%-10s %12s %14s %9s %10s\n", "threads", "seconds", "rows/s",
              "speedup", "exact");
  double one_thread_seconds = 0.0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    AquaEngine engine;
    auto st = engine.RegisterTable("lineitem", base, synopsis_config);
    if (!st.ok()) {
      std::printf("register failed: %s\n", st.ToString().c_str());
      return 1;
    }

    // Two readers hammer the published snapshot for the whole round;
    // they must never fail and never block a producer.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::atomic<int> reader_errors{0};
    std::vector<std::thread> readers;
    for (int q = 0; q < 2; ++q) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          if (engine.Query(kSql).ok()) {
            reads.fetch_add(1, std::memory_order_relaxed);
          } else {
            reader_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    const size_t per_thread = stream_rows / threads;
    std::atomic<int> insert_errors{0};
    std::vector<std::thread> producers;
    Stopwatch sw;
    for (size_t t = 0; t < threads; ++t) {
      producers.emplace_back([&, t] {
        std::vector<std::vector<Value>> batch;
        batch.reserve(batch_rows);
        const size_t begin = t * per_thread;
        for (size_t i = 0; i < per_thread; ++i) {
          batch.push_back(row_at((begin + i) % base.num_rows()));
          if (batch.size() == batch_rows || i + 1 == per_thread) {
            if (!engine.InsertBatch("lineitem", batch).ok()) {
              insert_errors.fetch_add(1, std::memory_order_relaxed);
            }
            batch.clear();
          }
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    const double seconds = sw.ElapsedSeconds();
    stop.store(true, std::memory_order_release);
    for (std::thread& reader : readers) reader.join();
    if (threads == 1) one_thread_seconds = seconds;

    // Correctness: publish and demand the snapshot accounts for every
    // streamed row exactly (populations are exact by construction).
    const size_t streamed = per_thread * threads;
    bool exact = insert_errors.load() == 0 && reader_errors.load() == 0;
    if (!engine.Refresh("lineitem").ok()) exact = false;
    auto table = engine.GetTable("lineitem");
    if (!table.ok() ||
        (*table)->num_rows() != base.num_rows() + streamed) {
      exact = false;
    }
    auto synopsis = engine.GetSynopsis("lineitem");
    if (!synopsis.ok() ||
        (*synopsis)->sample().total_population() !=
            base.num_rows() + streamed) {
      exact = false;
    }

    const double rate = static_cast<double>(streamed) / seconds;
    std::printf("%-10zu %12.4f %14.0f %8.2fx %10s   (%llu reads served)\n",
                threads, seconds, rate, one_thread_seconds / seconds,
                exact ? "yes" : "NO",
                static_cast<unsigned long long>(reads.load()));
    report.Add("ingest_scaling",
               {{"threads", static_cast<double>(threads)},
                {"tuples", static_cast<double>(stream_rows)},
                {"shards", static_cast<double>(shards)}},
               seconds, exact ? 0.0 : -1.0);
    if (!exact) return 1;
  }

  // Publish cost per delta: Refresh after kDeltaRows inserted rows,
  // summed over kRefreshRounds publishes so the record runs well past
  // the gate's timing floor at CI scale. A publish extends the last base
  // index and draws the fallbacks from it, so this should track the
  // delta and the sample sizes, plus one table copy.
  {
    constexpr size_t kDeltaRows = 1000;
    constexpr size_t kRefreshRounds = 10;
    AquaEngine engine;
    auto st = engine.RegisterTable("lineitem", base, synopsis_config);
    if (!st.ok()) {
      std::printf("register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    bool exact = true;
    double refresh_seconds = 0.0;
    size_t next_row = 0;
    for (size_t round = 0; round < kRefreshRounds; ++round) {
      std::vector<std::vector<Value>> delta;
      delta.reserve(kDeltaRows);
      for (size_t i = 0; i < kDeltaRows; ++i) {
        delta.push_back(row_at(next_row++ % base.num_rows()));
      }
      if (!engine.InsertBatch("lineitem", delta).ok()) exact = false;
      Stopwatch sw;
      if (!engine.Refresh("lineitem").ok()) exact = false;
      refresh_seconds += sw.ElapsedSeconds();
    }
    const uint64_t expected_rows = base.num_rows() + next_row;
    auto table = engine.GetTable("lineitem");
    if (!table.ok() || (*table)->num_rows() != expected_rows) exact = false;
    auto synopsis = engine.GetSynopsis("lineitem");
    if (!synopsis.ok() ||
        (*synopsis)->sample().total_population() != expected_rows) {
      exact = false;
    }
    std::printf("\nrefresh after %zu inserted rows: %.3f ms per publish "
                "(%zu publishes)   exact %s\n",
                kDeltaRows,
                1e3 * refresh_seconds / static_cast<double>(kRefreshRounds),
                kRefreshRounds, exact ? "yes" : "NO");
    report.Add("refresh_delta",
               {{"tuples", static_cast<double>(base.num_rows())},
                {"delta", static_cast<double>(kDeltaRows)},
                {"rounds", static_cast<double>(kRefreshRounds)}},
               refresh_seconds, exact ? 0.0 : -1.0);
    if (!exact) return 1;
  }

  std::printf("\n(rows/s counts producer-side batched inserts; speedup is "
              "relative to 1 producer thread and requires real cores — on a "
              "single-core machine only the exactness column is meaningful; "
              "'exact' verifies the published snapshot accounts for every "
              "streamed row and no reader or producer ever failed)\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
