#include "client.h"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <utility>

namespace txnbench {

using snapper::TxnResult;

void ActTally::Merge(const ActTally& o) {
  attempts += o.attempts;
  commits += o.commits;
  for (size_t i = 0; i < aborts.size(); ++i) aborts[i] += o.aborts[i];
}

TxnResult ResultOf(const snapper::Future<TxnResult>& f) {
  try {
    return f.Peek();
  } catch (...) {
    TxnResult r;
    r.status = snapper::StatusFromExceptionPtr(std::current_exception());
    return r;
  }
}

void Client::TraceAttempt(Tracer* tracer, uint64_t trace_id,
                          uint64_t parent_span, bool pact, int64_t submit_ns,
                          int64_t done_ns, const TxnResult& result) {
  if (!tracer->armed()) return;
  const uint64_t attempt = tracer->NewSpanId();
  tracer->AddSpan(Span{trace_id, attempt, parent_span,
                       pact ? "pact.attempt" : "act.attempt", submit_ns,
                       done_ns});
  // Phases laid end to end from the attempt's submission, as the runtime
  // reports them in TxnResult::timings.
  struct Phase {
    const char* span;
    const char* series;
    uint32_t us;
  };
  const snapper::TxnTimings& t = result.timings;
  const Phase phases[] = {
      {pact ? "pact.start" : "act.start",
       pact ? "snapper.pact.start_us" : "snapper.act.start_us", t.start_us},
      {pact ? "pact.exec" : "act.exec",
       pact ? "snapper.pact.exec_us" : "snapper.act.exec_us", t.exec_us},
      {pact ? "pact.commit" : "act.commit",
       pact ? "snapper.pact.commit_us" : "snapper.act.commit_us",
       t.commit_us},
  };
  int64_t at = submit_ns;
  for (const Phase& p : phases) {
    const int64_t end = at + int64_t{p.us} * 1000;
    tracer->AddSpan(Span{trace_id, tracer->NewSpanId(), attempt, p.span, at,
                         end});
    tracer->AddSample(p.series, p.us);
    at = end;
  }
}

class Client::Worker {
 public:
  Worker(Client* owner, size_t index)
      : owner_(owner),
        index_(index),
        gen_(DeriveSeed(owner->options_.seed, 2 * index + 1)),
        jitter_(DeriveSeed(owner->options_.seed, 2 * index + 2)),
        slots_(owner->options_.in_flight) {}

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }
  void Stop() { stop_.store(true, std::memory_order_release); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  ClientStats& stats() { return stats_; }

 private:
  struct Slot {
    Request req;
    int attempts = 0;
    int64_t first_ns = 0;
    int64_t attempt_ns = 0;
    uint64_t trace_id = 0;
    uint64_t request_span = 0;
    snapper::Future<TxnResult> future;
  };

  void Run() {
    active_ = slots_.size();
    for (size_t i = 0; i < slots_.size(); ++i) StartRequest(i);
    std::vector<std::pair<size_t, int64_t>> ready;
    using Due = std::pair<int64_t, size_t>;
    while (active_ > 0) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        int64_t wake = NowNs() + 5'000'000;
        if (!retries_.empty()) wake = std::min(wake, retries_.top().first);
        const auto deadline =
            Clock::time_point(std::chrono::nanoseconds(wake));
        cv_.wait_until(lock, deadline, [&] { return !ready_.empty(); });
        ready.swap(ready_);
      }
      for (const auto& [slot, done_ns] : ready) Complete(slot, done_ns);
      ready.clear();
      while (!retries_.empty() && retries_.top().first <= NowNs()) {
        const Due due = retries_.top();
        retries_.pop();
        Submit(due.second);
      }
    }
  }

  void StartRequest(size_t slot) {
    if (stop_.load(std::memory_order_acquire)) {
      --active_;
      return;
    }
    Slot& s = slots_[slot];
    s.req = owner_->workload_->Next(gen_);
    s.attempts = 0;
    s.first_ns = NowNs();
    s.trace_id = (uint64_t{index_ + 1} << 48) | ++seq_;
    s.request_span = owner_->tracer_->NewSpanId();
    ++stats_.attempted;
    Submit(slot);
  }

  void Submit(size_t slot) {
    Slot& s = slots_[slot];
    snapper::SnapperRuntime& rt = *owner_->rt_;
    ++s.attempts;
    s.attempt_ns = NowNs();
    // PACTs are never resubmitted, so their input moves; an ACT keeps its
    // request for a possible retry.
    if (s.req.pact) {
      s.future = rt.SubmitPact(s.req.root, s.req.method, std::move(s.req.input),
                               std::move(s.req.info));
    } else {
      s.future = rt.SubmitAct(s.req.root, s.req.method, s.req.input);
    }
    Tracer* tracer = owner_->tracer_;
    if (tracer->armed()) {
      tracer->AddSample("snapper.submit_call_us",
                        static_cast<double>(NowNs() - s.attempt_ns) / 1e3);
    }
    s.future.OnReady([this, slot] {
      std::lock_guard<std::mutex> lock(mu_);
      ready_.emplace_back(slot, NowNs());
      cv_.notify_one();
    });
  }

  void Complete(size_t slot, int64_t done_ns) {
    Slot& s = slots_[slot];
    const TxnResult result = ResultOf(s.future);
    s.future = {};
    const bool in_window = owner_->window_->Contains(done_ns);
    Tracer* tracer = owner_->tracer_;
    TraceAttempt(tracer, s.trace_id, s.request_span, s.req.pact, s.attempt_ns,
                 done_ns, result);
    if (!s.req.pact && in_window) {
      ActTally& act = stats_.act;
      ++act.attempts;
      if (result.ok()) {
        ++act.commits;
      } else if (result.status.IsTxnAborted()) {
        const size_t reason = static_cast<size_t>(result.status.abort_reason());
        if (reason < act.aborts.size()) ++act.aborts[reason];
      }
    }
    if (result.ok()) {
      owner_->workload_->RecordCommit(s.req, result, &stats_.outcomes);
      if (in_window) {
        ++stats_.committed;
        const size_t second = static_cast<size_t>(
            (done_ns - owner_->window_->start_ns.load()) / 1'000'000'000);
        auto& buckets = stats_.committed_per_second;
        if (buckets.size() <= second) buckets.resize(second + 1, 0);
        ++buckets[second];
        stats_.latency_us.push_back(static_cast<double>(done_ns - s.first_ns) /
                                    1e3);
      }
      tracer->AddSpan(Span{s.trace_id, s.request_span, 0, "request",
                           s.first_ns, done_ns});
      StartRequest(slot);
      return;
    }
    const ClientOptions& o = owner_->options_;
    if (!s.req.pact && result.status.IsTxnAborted() &&
        s.attempts < o.max_act_attempts) {
      // Jittered exponential backoff: uniform in [b/2, b], b doubling per
      // attempt up to the cap.
      const int shift = std::min(s.attempts - 1, 20);
      const int64_t b = std::min(o.backoff_cap_us, o.backoff_base_us << shift);
      const int64_t wait_us =
          b / 2 + static_cast<int64_t>(jitter_.Uniform(uint64_t(b / 2 + 1)));
      retries_.emplace(done_ns + wait_us * 1000, slot);
      return;
    }
    ++stats_.failed;
    if (s.req.pact && result.status.IsTxnAborted()) {
      ++stats_.outcomes.pact_aborts;
    }
    if (stats_.failed <= 3) {
      std::fprintf(stderr, "txnbench: request failed after %d attempt(s): %s\n",
                   s.attempts, result.status.ToString().c_str());
    }
    StartRequest(slot);
  }

  Client* owner_;
  const size_t index_;
  Gen gen_;
  Gen jitter_;
  std::vector<Slot> slots_;
  size_t active_ = 0;  ///< slots with a request in flight or waiting
  uint64_t seq_ = 0;
  std::priority_queue<std::pair<int64_t, size_t>,
                      std::vector<std::pair<int64_t, size_t>>,
                      std::greater<>>
      retries_;
  ClientStats stats_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<size_t, int64_t>> ready_;  // guarded by mu_
  std::thread thread_;  // last: joined before the members it uses go
};

Client::Client(snapper::SnapperRuntime* rt, const Workload* workload,
               const Window* window, Tracer* tracer, ClientOptions options)
    : rt_(rt),
      workload_(workload),
      window_(window),
      tracer_(tracer),
      options_(options) {
  for (size_t i = 0; i < options_.threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
  }
}

Client::~Client() { StopAndJoin(); }

void Client::Start() {
  for (auto& w : workers_) w->Start();
}

void Client::StopAndJoin() {
  for (auto& w : workers_) w->Stop();
  for (auto& w : workers_) w->Join();
}

ClientStats Client::Collect() {
  ClientStats all;
  for (auto& w : workers_) {
    ClientStats& s = w->stats();
    all.attempted += s.attempted;
    all.failed += s.failed;
    all.committed += s.committed;
    auto& buckets = all.committed_per_second;
    if (buckets.size() < s.committed_per_second.size()) {
      buckets.resize(s.committed_per_second.size(), 0);
    }
    for (size_t i = 0; i < s.committed_per_second.size(); ++i) {
      buckets[i] += s.committed_per_second[i];
    }
    all.latency_us.insert(all.latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
    all.act.Merge(s.act);
    all.outcomes.Merge(std::move(s.outcomes));
  }
  return all;
}

}  // namespace txnbench
