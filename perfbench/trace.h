// Spans recorded by the benchmark around its calls into the program, kept
// in memory and written out when the run ends. Root spans are client
// requests (id = request id); route-wrapper spans name their request as
// parent; setup and recovery steps are roots of their own.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `epoch`.
inline double SecondsSince(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  double start_s = 0.0;  // relative to the run's epoch
  double end_s = 0.0;
  double ms() const { return (end_s - start_s) * 1e3; }
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  double Now() const { return SecondsSince(epoch_); }

  /// Thread-safe. Ids below 2^40 are request ids; Add() assigns ids above.
  void Add(Span s);
  uint64_t NextId();

  /// Spans named `name`, in recording order.
  std::vector<Span> Named(const std::string& name) const;

  /// Writes every span as Chrome trace_event JSON (complete "X" events).
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = uint64_t{1} << 40;  // guarded by mu_
};

/// Nearest-rank percentile (p in [0,1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// 64-bit FNV-1a.
uint64_t Fnv1a(const char* data, size_t n, uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
