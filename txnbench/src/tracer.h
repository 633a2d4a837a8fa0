// In-memory span and sample recorder for the traced run.
//
// Every recording call is a no-op unless the recorder is armed, which
// happens only for the measured window of a `--trace 1` run. Spans are
// kept in memory (capped) and written out as CSV when the run ends; the
// per-layer percentiles come from the sample series recorded beside them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace txnbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty series.
double Quantile(std::vector<double>& v, double q);

struct Span {
  uint64_t trace_id = 0;  ///< shared by every span of one request; 0 = none
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Span storage cap; spans past it are counted, not kept.
  static constexpr size_t kMaxSpans = size_t{1} << 20;

  void Arm(bool on) { armed_.store(on, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  uint64_t NewSpanId() { return next_span_.fetch_add(1) + 1; }

  void AddSpan(const Span& span);
  /// Appends one sample (in microseconds) to the named series.
  void AddSample(const std::string& series, double us);

  /// Moves the named series out (empty if never recorded).
  std::vector<double> TakeSeries(const std::string& series);

  /// Writes `trace_id,span_id,parent_id,name,start_us,end_us` rows, times
  /// relative to `origin_ns`. Returns false if the file cannot be written.
  bool WriteCsv(const std::string& path, int64_t origin_ns);

  size_t spans_kept();
  uint64_t spans_dropped() const { return dropped_.load(); }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> next_span_{0};
  std::atomic<uint64_t> dropped_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> series_;
};

}  // namespace txnbench
