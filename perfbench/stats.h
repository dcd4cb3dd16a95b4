#ifndef CONGRESS_PERFBENCH_STATS_H_
#define CONGRESS_PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to);
double MillisBetween(Clock::time_point from, Clock::time_point to);
double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// Nearest-rank quantile (`q` in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest percentile (capped at the 99th) that still has at least ten
/// samples beyond it, so a tail figure never rests on a handful of points.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  size_t samples = 0;
};
Tail HighTail(std::vector<double> values);

/// Process peak resident set size in MB (getrusage).
double PeakRssMb();

/// One timed interval of one request. Spans of a request share `request`;
/// `parent` is the index of the enclosing span in the same Trace, or -1
/// for a root.
struct Span {
  uint64_t request = 0;
  std::string name;
  int64_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store. Spans are appended under a mutex (a few per
/// request, far off the measured path's critical section) and written out
/// once when the run ends.
class Trace {
 public:
  /// Appends a span and returns its index (the handle children use as
  /// their parent).
  int64_t Add(uint64_t request, std::string name, int64_t parent,
              Clock::time_point start, Clock::time_point end);

  /// Span durations in microseconds, by name.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Self time (duration minus the time covered by direct children) of
  /// every span named `name`, in microseconds.
  std::vector<double> SelfUs(const std::string& name) const;

  /// Writes one CSV line per span (request, index, parent, name,
  /// start_us, end_us relative to the first span). Returns false when the
  /// file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // CONGRESS_PERFBENCH_STATS_H_
