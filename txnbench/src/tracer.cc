#include "tracer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace txnbench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

void Tracer::AddSpan(const Span& span) {
  if (!armed()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(span);
}

void Tracer::AddSample(const std::string& series, double us) {
  if (!armed()) return;
  std::lock_guard<std::mutex> lock(mu_);
  series_[series].push_back(us);
}

std::vector<double> Tracer::TakeSeries(const std::string& series) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return {};
  return std::move(it->second);
}

size_t Tracer::spans_kept() {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteCsv(const std::string& path, int64_t origin_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "trace_id,span_id,parent_id,name,start_us,end_us\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent_id), s.name,
                 static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.end_ns - origin_ns) / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace txnbench
