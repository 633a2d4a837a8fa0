// Closed-loop client: each client thread keeps a fixed number of requests
// in flight against SnapperRuntime's public Submit API and replaces every
// finished request with a new one. An aborted ACT is resubmitted after a
// jittered exponential backoff until it commits or its retry budget runs
// out; a PACT is never retried (PACTs do not abort on conflicts, so any
// PACT abort counts as a failed request).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "snapper/snapper_runtime.h"
#include "tracer.h"
#include "workloads.h"

namespace txnbench {

struct ClientOptions {
  size_t threads = 2;
  size_t in_flight = 64;  ///< per thread
  int max_act_attempts = 32;
  int64_t backoff_base_us = 1000;
  int64_t backoff_cap_us = 32000;
  uint64_t seed = 1;
};

/// The measured window, set by the run; completions inside it count.
struct Window {
  std::atomic<int64_t> start_ns{INT64_MAX};
  std::atomic<int64_t> end_ns{INT64_MAX};
  bool Contains(int64_t t) const {
    return t >= start_ns.load(std::memory_order_acquire) &&
           t < end_ns.load(std::memory_order_acquire);
  }
};

/// ACT attempt accounting, shared by the client threads and the ACT probe.
struct ActTally {
  uint64_t attempts = 0;
  uint64_t commits = 0;
  /// Indexed by snapper::AbortReason.
  std::array<uint64_t, 16> aborts{};
  void Merge(const ActTally& o);
};

/// Per-thread results; merged by Client::Collect.
struct ClientStats {
  uint64_t attempted = 0;  ///< requests started, whole run
  uint64_t failed = 0;     ///< requests that never committed, whole run
  uint64_t committed = 0;  ///< in the measured window
  /// Commits per whole second of the measured window.
  std::vector<uint64_t> committed_per_second;
  std::vector<double> latency_us;  ///< committed requests in the window
  ActTally act;                    ///< ACT attempts finished in the window
  Outcomes outcomes;               ///< everything that committed
};

class Client {
 public:
  Client(snapper::SnapperRuntime* rt, const Workload* workload,
         const Window* window, Tracer* tracer, ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Start();
  /// Stops issuing new requests, lets in-flight ones (and their retries)
  /// finish, and joins the threads.
  void StopAndJoin();
  /// Requires StopAndJoin().
  ClientStats Collect();

  /// Records the phase spans and samples of one finished attempt.
  static void TraceAttempt(Tracer* tracer, uint64_t trace_id,
                           uint64_t parent_span, bool pact, int64_t submit_ns,
                           int64_t done_ns, const snapper::TxnResult& result);

 private:
  class Worker;
  snapper::SnapperRuntime* rt_;
  const Workload* workload_;
  const Window* window_;
  Tracer* tracer_;
  ClientOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Classifies a resolved submission future into a TxnResult (an exception
/// becomes a non-OK status).
snapper::TxnResult ResultOf(const snapper::Future<snapper::TxnResult>& f);

}  // namespace txnbench
