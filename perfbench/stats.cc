#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail HighTail(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  const double n = static_cast<double>(values.size());
  tail.quantile = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  tail.value = Quantile(std::move(values), tail.quantile);
  return tail;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

int64_t Trace::Add(uint64_t request, std::string name, int64_t parent,
                   Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{request, std::move(name), parent, start, end});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Trace::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(MicrosBetween(s.start, s.end));
  }
  return out;
}

std::vector<double> Trace::SelfUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += MicrosBetween(s.start, s.end);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    out.push_back(MicrosBetween(spans_[i].start, spans_[i].end) - child_us[i]);
  }
  return out;
}

bool Trace::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "request,index,parent,name,start_us,end_us\n");
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu,%zu,%lld,%s,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.request), i,
                 static_cast<long long>(s.parent), s.name.c_str(),
                 MicrosBetween(origin, s.start), MicrosBetween(origin, s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
