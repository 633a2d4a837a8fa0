// Counting and timing Env wrapper: sits between Snapper's loggers and the
// simulated WAL device (MemEnv) and observes the storage layer from
// outside. It always counts appended bytes and syncs (a relaxed atomic add
// each); when the tracer is armed it also times every Append and Sync call
// and records them as device spans.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "tracer.h"
#include "wal/env.h"

namespace txnbench {

class MeteredEnv : public snapper::Env {
 public:
  MeteredEnv(snapper::Env* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  snapper::Status NewWritableFile(
      const std::string& name,
      std::unique_ptr<snapper::WritableFile>* file) override;
  snapper::Status ReadFile(const std::string& name, std::string* out) override {
    return base_->ReadFile(name, out);
  }
  snapper::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  std::vector<std::string> ListFiles() override { return base_->ListFiles(); }

  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  friend class MeteredFile;
  snapper::Env* base_;
  Tracer* tracer_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace txnbench
