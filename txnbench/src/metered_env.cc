#include "metered_env.h"

namespace txnbench {

class MeteredFile : public snapper::WritableFile {
 public:
  MeteredFile(std::unique_ptr<snapper::WritableFile> base, MeteredEnv* env)
      : base_(std::move(base)), env_(env) {}

  snapper::Status Append(std::string_view data) override {
    env_->bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    if (!env_->tracer_->armed()) return base_->Append(data);
    return Timed("wal.append", "wal.append_us",
                 [&] { return base_->Append(data); });
  }

  snapper::Status Sync() override {
    env_->syncs_.fetch_add(1, std::memory_order_relaxed);
    if (!env_->tracer_->armed()) return base_->Sync();
    return Timed("wal.sync", "wal.sync_us", [&] { return base_->Sync(); });
  }

  snapper::Status Close() override { return base_->Close(); }

 private:
  template <typename Fn>
  snapper::Status Timed(const char* span, const char* series, Fn&& fn) {
    const int64_t start = NowNs();
    snapper::Status s = fn();
    const int64_t end = NowNs();
    Tracer& t = *env_->tracer_;
    t.AddSpan(Span{0, t.NewSpanId(), 0, span, start, end});
    t.AddSample(series, static_cast<double>(end - start) / 1e3);
    return s;
  }

  std::unique_ptr<snapper::WritableFile> base_;
  MeteredEnv* env_;
};

snapper::Status MeteredEnv::NewWritableFile(
    const std::string& name, std::unique_ptr<snapper::WritableFile>* file) {
  std::unique_ptr<snapper::WritableFile> base;
  snapper::Status s = base_->NewWritableFile(name, &base);
  if (!s.ok()) return s;
  *file = std::make_unique<MeteredFile>(std::move(base), this);
  return s;
}

}  // namespace txnbench
