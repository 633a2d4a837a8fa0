// txnbench: closed-loop transaction benchmark for SnapperRuntime.
//
//   txnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//   txnbench --self-test [--seed <n>]
//
// One run: set-up (runtime, types, Start, actor activation), warm-up load,
// the measured window, drain, then a fresh runtime recovered from the
// run's WAL is checked against the client's own record of what committed.
// The last stdout line is the result object; `--trace 0` reports the
// end-to-end metrics, `--trace 1` the per-layer ones. `--self-test` feeds
// every output check a wrong expectation and exits 0 only if each one
// reports the outputs incorrect.
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "metered_env.h"
#include "tracer.h"
#include "workloads.h"

#ifndef TXNBENCH_BUILD_TYPE
#define TXNBENCH_BUILD_TYPE "unknown"
#endif

namespace txnbench {
namespace {

using snapper::AbortReason;

constexpr size_t kWorkers = 4;           // the paper's 4-core base unit
constexpr int64_t kSyncLatencyUs = 100;  // simulated WAL device sync
constexpr int64_t kProbeTickUs = 2000;   // executor and NT actor probes
constexpr int kActProbeEvery = 5;        // ACT probe every 5th tick
// Timed recoveries: at least kMinRecoveries, more (up to kMaxRecoveries)
// while their total stays under kRecoveryBudgetS, so short recoveries,
// whose relative noise is largest, get more samples. recovery_s is the
// median.
constexpr int kMinRecoveries = 5;
constexpr int kMaxRecoveries = 9;
constexpr double kRecoveryBudgetS = 8.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double warmup = -1;  ///< < 0: the workload's default
  std::string out_dir = ".bench_out";
  bool self_test = false;
};

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Peak resident set (VmHWM) in MB (10^6 bytes).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

struct ChildRecovery {
  double seconds = -1;  ///< Recover() + Start(); < 0 if recovery failed
  double scan_seconds = 0;  ///< the WAL scan and replay inside Recover()
  uint64_t replay_records = 0;
};

/// Forks a child that builds a fresh runtime over `env` and times
/// Recover() + Start(), and waits for it. Call only while this process has
/// no other threads: the child starts the runtime's own.
ChildRecovery RecoverInChild(const snapper::SnapperConfig& config,
                             Workload& workload, snapper::Env* env) {
  ChildRecovery result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    ChildRecovery r;
    snapper::SnapperRuntime rt(config, env);
    workload.Register(rt);
    const int64_t start = NowNs();
    snapper::Result<snapper::RecoveryResult> rec = rt.Recover();
    rt.Start();
    if (rec.ok()) {
      r.seconds = static_cast<double>(NowNs() - start) / 1e9;
      r.replay_records = rec.value().replay_records;
      r.scan_seconds =
          static_cast<double>(rec.value().recovery_time_us) / 1e6;
    }
    const bool sent = write(fds[1], &r, sizeof(r)) == sizeof(r);
    _exit(sent ? 0 : 1);  // no teardown: the process is discarded
  }
  close(fds[1]);
  ChildRecovery r;
  if (read(fds[0], &r, sizeof(r)) == sizeof(r)) result = r;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) result.seconds = -1;
  return result;
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Counter readings at the edges of the measured window.
struct Snapshot {
  int64_t ns = 0;
  double cpu_s = 0;
  uint64_t batch_msgs = 0;
  uint64_t token_passes = 0;
  uint64_t act_prepares = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
};

Snapshot Take(snapper::SnapperRuntime& rt, const MeteredEnv& env) {
  const snapper::MessageCounters& c = rt.context().counters;
  Snapshot s;
  s.ns = NowNs();
  s.cpu_s = CpuSeconds();
  s.batch_msgs = c.batch_msgs.load();
  s.token_passes = c.token_passes.load();
  s.act_prepares = c.act_prepares.load();
  s.wal_bytes = env.bytes();
  s.wal_syncs = env.syncs();
  return s;
}

/// The probe thread of a traced run: at a fixed cadence it times a no-op
/// posted to the runtime's executor (post to run), an NT call to an actor
/// the workload never touches, and, on workloads without ACTs of their own,
/// a read-only ACT on another untouched actor.
class Prober {
 public:
  Prober(snapper::SnapperRuntime* rt, const Workload* workload,
         Tracer* tracer, const Window* window)
      : rt_(rt), workload_(workload), tracer_(tracer), window_(window) {}
  ~Prober() { StopAndJoin(); }
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }
  void StopAndJoin() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const ActTally& act() const { return act_; }

 private:
  void Run() {
    const ActorCall nt = workload_->NtProbe();
    const ActorCall act = workload_->ActProbe();
    const bool with_act = !workload_->submits_acts();
    auto next = Clock::now();
    for (int tick = 0; !stop_.load(); ++tick) {
      Tracer* tracer = tracer_;
      const int64_t posted = NowNs();
      rt_->runtime().executor().Post([tracer, posted] {
        const int64_t ran = NowNs();
        tracer->AddSpan(
            Span{0, tracer->NewSpanId(), 0, "async.probe", posted, ran});
        tracer->AddSample("async.post_wait_us",
                          static_cast<double>(ran - posted) / 1e3);
      });

      const int64_t sent = NowNs();
      rt_->SubmitNt(nt.actor, nt.method, nt.input).state()->Wait();
      const int64_t back = NowNs();
      tracer_->AddSpan(Span{0, tracer_->NewSpanId(), 0, "actor.probe", sent,
                            back});
      tracer_->AddSample("actor.probe_rtt_us",
                         static_cast<double>(back - sent) / 1e3);

      if (with_act && tick % kActProbeEvery == 0) ProbeAct(act);

      next += std::chrono::microseconds(kProbeTickUs);
      const auto now = Clock::now();
      if (next < now) next = now;
      std::this_thread::sleep_until(next);
    }
  }

  void ProbeAct(const ActorCall& target) {
    const int64_t sent = NowNs();
    snapper::Future<snapper::TxnResult> f =
        rt_->SubmitAct(target.actor, target.method, target.input);
    f.state()->Wait();
    const snapper::TxnResult r = ResultOf(f);
    const int64_t back = NowNs();
    Client::TraceAttempt(tracer_, 0, 0, false, sent, back, r);
    if (!window_->Contains(back)) return;
    ++act_.attempts;
    if (r.ok()) {
      ++act_.commits;
    } else if (r.status.IsTxnAborted()) {
      const size_t reason = static_cast<size_t>(r.status.abort_reason());
      if (reason < act_.aborts.size()) ++act_.aborts[reason];
    }
  }

  snapper::SnapperRuntime* rt_;
  const Workload* workload_;
  Tracer* tracer_;
  const Window* window_;
  ActTally act_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string info;  ///< one-line JSON with counts and settings
};

/// Called with the recovered runtime and the client's outcomes, before the
/// recovered runtime shuts down. Returns whether the outputs are correct.
using Checker =
    std::function<bool(snapper::SnapperRuntime&, const Workload&, Outcomes&)>;

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ec == std::errc() ? end : buf);
}

double PerK(uint64_t n, uint64_t base) {
  return base == 0 ? 0.0 : 1000.0 * static_cast<double>(n) / base;
}
double Ratio(double n, double base) { return base == 0 ? 0.0 : n / base; }

RunResult RunOnce(const Options& opt, const Checker& check) {
  const int64_t process_start = NowNs();
  RunResult out;
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload);

  // ---- set-up: everything up to the first request of the load.
  snapper::MemEnv device;
  device.set_sync_latency(std::chrono::microseconds(kSyncLatencyUs));
  Tracer tracer;
  MeteredEnv env(&device, &tracer);
  snapper::SnapperConfig config;
  config.num_workers = kWorkers;
  config.seed = opt.seed;
  workload->Configure(config);
  auto rt = std::make_unique<snapper::SnapperRuntime>(config, &env);
  workload->Register(*rt);
  rt->Start();
  const bool prepopulated = workload->Prepopulate(*rt);
  const double setup_s = static_cast<double>(NowNs() - process_start) / 1e9;

  // ---- load: warm-up, measured window, drain.
  Window window;
  ClientOptions copt;
  copt.seed = opt.seed;
  copt.in_flight = workload->in_flight();
  Client client(rt.get(), workload.get(), &window, &tracer, copt);
  Prober prober(rt.get(), workload.get(), &tracer, &window);
  client.Start();
  if (opt.trace) prober.Start();
  SleepSeconds(opt.warmup >= 0 ? opt.warmup : workload->warmup_seconds());
  const Snapshot a = Take(*rt, env);
  window.start_ns.store(a.ns);
  tracer.Arm(opt.trace);
  SleepSeconds(opt.seconds);
  const Snapshot b = Take(*rt, env);
  window.end_ns.store(b.ns);
  tracer.Arm(false);
  prober.StopAndJoin();
  client.StopAndJoin();
  ClientStats stats = client.Collect();
  const double window_s = static_cast<double>(b.ns - a.ns) / 1e9;

  const uint64_t activations = rt->runtime().num_activations();
  rt->SyncWalCounters();
  const uint64_t checkpoints = rt->context().counters.checkpoints_taken.load();
  const uint64_t segments_deleted =
      rt->context().counters.wal_segments_truncated.load();
  const double retained_mb =
      static_cast<double>(device.TotalSyncedBytes()) / 1e6;
  // The running silo's footprint, read before the parent's own recovery
  // below allocates a second copy of every state.
  const double peak_rss_mb = PeakRssMb();
  rt.reset();

  // ---- recovery: a restarted silo over the run's WAL. Each timed
  // recovery runs in a forked child, so it starts cold like a restarted
  // process and sees the WAL exactly as the run left it (Recover() re-logs
  // the states and retires the old files, in the child's copy only). The
  // parent, single-threaded again here, then recovers once more, untimed,
  // for the checks.
  std::vector<double> recovery_times;
  std::vector<double> scan_times;
  uint64_t replay_records = 0;
  bool correct = prepopulated;
  double timed_s = 0;
  for (int i = 0; i < kMaxRecoveries &&
                  (i < kMinRecoveries || timed_s < kRecoveryBudgetS);
       ++i) {
    const ChildRecovery child = RecoverInChild(config, *workload, &env);
    if (child.seconds < 0 ||
        (i > 0 && child.replay_records != replay_records)) {
      std::fprintf(stderr, "txnbench: recovery %d failed or replayed %llu "
                   "records instead of %llu\n", i,
                   static_cast<unsigned long long>(child.replay_records),
                   static_cast<unsigned long long>(replay_records));
      correct = false;
      continue;
    }
    replay_records = child.replay_records;
    timed_s += child.seconds;
    recovery_times.push_back(child.seconds);
    scan_times.push_back(child.scan_seconds);
  }
  auto recovered = std::make_unique<snapper::SnapperRuntime>(config, &env);
  workload->Register(*recovered);
  snapper::Result<snapper::RecoveryResult> rec = recovered->Recover();
  recovered->Start();
  if (!rec.ok()) {
    std::fprintf(stderr, "txnbench: recovery failed: %s\n",
                 rec.status().ToString().c_str());
    correct = false;
  }
  correct = check(*recovered, *workload, stats.outcomes) && correct;
  recovered.reset();
  std::vector<double> sorted_recoveries = recovery_times;
  const double recovery_s = Quantile(sorted_recoveries, 0.5);

  const uint64_t committed = stats.committed;
  const uint64_t act_commits_client = stats.act.commits;
  const uint64_t pact_commits = committed - act_commits_client;
  out.correct = correct;
  out.attempted = stats.attempted;
  out.failed = stats.failed;

  std::string per_second;
  for (uint64_t n : stats.committed_per_second) {
    if (!per_second.empty()) per_second += ", ";
    per_second += std::to_string(n);
  }
  std::string recoveries;
  for (size_t i = 0; i < recovery_times.size(); ++i) {
    if (!recoveries.empty()) recoveries += ", ";
    recoveries +=
        "[" + Num(recovery_times[i]) + ", " + Num(scan_times[i]) + "]";
  }
  char info[1280];
  std::snprintf(
      info, sizeof(info),
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": \"%s\", \"nproc\": %u, \"workers\": %zu, "
      "\"window_s\": %s, \"committed_in_window\": %llu, "
      "\"latency_samples\": %zu, \"commit_per_s\": %s, \"act_attempts\": %llu, "
      "\"spans_kept\": %zu, \"spans_dropped\": %llu, "
      "\"committed_per_second\": [%s], \"recovery_s\": [%s]}}",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, TXNBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), kWorkers, Num(window_s).c_str(),
      static_cast<unsigned long long>(committed), stats.latency_us.size(),
      Num(Ratio(static_cast<double>(committed), window_s)).c_str(),
      static_cast<unsigned long long>(stats.act.attempts), tracer.spans_kept(),
      static_cast<unsigned long long>(tracer.spans_dropped()),
      per_second.c_str(), recoveries.c_str());
  out.info = info;

  if (!opt.trace) {
    std::vector<double>& lat = stats.latency_us;
    const double p50 = Quantile(lat, 0.50) / 1e3;
    const double p99 = Quantile(lat, 0.99) / 1e3;
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"commit_per_s", Ratio(static_cast<double>(committed), window_s),
         "txn/s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_p99_ms", p99, "ms"},
        {"wal_bytes_per_commit",
         Ratio(static_cast<double>(b.wal_bytes - a.wal_bytes),
               static_cast<double>(committed)),
         "B/txn"},
        {"recovery_s", recovery_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    return out;
  }

  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + ".trace.csv";
    if (!tracer.WriteCsv(path, a.ns)) {
      std::fprintf(stderr, "txnbench: cannot write %s\n", path.c_str());
    }
  }
  ActTally act = stats.act;
  act.Merge(prober.act());
  auto pq = [&](const std::string& series, std::vector<Metric>* m) {
    std::vector<double> v = tracer.TakeSeries(series);
    const double p50 = Quantile(v, 0.50);
    const double p99 = Quantile(v, 0.99);
    m->push_back({series + ".p50", p50, "us"});
    m->push_back({series + ".p99", p99, "us"});
  };
  std::vector<Metric>& m = out.metrics;
  pq("snapper.submit_call_us", &m);
  for (const char* mode : {"pact", "act"}) {
    for (const char* phase : {"start_us", "exec_us", "commit_us"}) {
      pq(std::string("snapper.") + mode + "." + phase, &m);
    }
  }
  const double dsyncs = static_cast<double>(b.wal_syncs - a.wal_syncs);
  m.push_back({"snapper.subbatch_msgs_per_pact",
               Ratio(static_cast<double>(b.batch_msgs - a.batch_msgs),
                     static_cast<double>(pact_commits)),
               "msg/txn"});
  m.push_back({"snapper.token_passes_per_s",
               Ratio(static_cast<double>(b.token_passes - a.token_passes),
                     window_s),
               "1/s"});
  m.push_back({"snapper.act_prepares_per_act",
               Ratio(static_cast<double>(b.act_prepares - a.act_prepares),
                     static_cast<double>(act.attempts)),
               "msg/txn"});
  m.push_back({"snapper.act_attempts_per_commit",
               Ratio(static_cast<double>(act.attempts),
                     static_cast<double>(act.commits)),
               "ratio"});
  const std::pair<const char*, AbortReason> reasons[] = {
      {"snapper.aborts.act_act_conflict", AbortReason::kActActConflict},
      {"snapper.aborts.pact_act_deadlock", AbortReason::kPactActDeadlock},
      {"snapper.aborts.incomplete_afterset", AbortReason::kIncompleteAfterSet},
      {"snapper.aborts.serializability_check",
       AbortReason::kSerializabilityCheck},
  };
  for (const auto& [name, reason] : reasons) {
    m.push_back({name, PerK(act.aborts[static_cast<size_t>(reason)],
                            act.attempts),
                 "1/1000"});
  }
  pq("wal.append_us", &m);
  pq("wal.sync_us", &m);
  m.push_back({"wal.syncs_per_commit",
               Ratio(dsyncs, static_cast<double>(committed)), "sync/txn"});
  m.push_back({"wal.bytes_per_sync",
               Ratio(static_cast<double>(b.wal_bytes - a.wal_bytes), dsyncs),
               "B/sync"});
  m.push_back({"wal.retained_mb", retained_mb, "MB"});
  m.push_back({"wal.segments_deleted", static_cast<double>(segments_deleted),
               "count"});
  m.push_back({"wal.checkpoints", static_cast<double>(checkpoints), "count"});
  m.push_back({"wal.recovery_replay_records",
               static_cast<double>(replay_records), "count"});
  pq("async.post_wait_us", &m);
  pq("actor.probe_rtt_us", &m);
  m.push_back({"actor.activations", static_cast<double>(activations), "count"});
  m.push_back({"process.cpu_us_per_commit",
               Ratio((b.cpu_s - a.cpu_s) * 1e6, static_cast<double>(committed)),
               "us/txn"});
  return out;
}

bool CheckOutputs(snapper::SnapperRuntime& rt, const Workload& w,
                  Outcomes& outcomes) {
  CheckReport report = w.Check(rt, outcomes);
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "txnbench: check failed: %s\n", e.c_str());
  }
  return report.ok;
}

void PrintResult(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n%s\n", r.info.c_str(), json.c_str());
  std::fflush(stdout);
}

/// Feeds every output check one wrong expectation and requires it to
/// report the outputs incorrect; the unaltered expectation must pass.
int SelfTest(const Options& base) {
  int bad = 0;
  auto expect = [&](const char* what, const CheckReport& got, bool want_ok) {
    const bool as_expected = got.ok == want_ok;
    std::fprintf(stderr, "self-test: %-38s %s%s%s\n", what,
                 as_expected ? "as expected" : "WRONG",
                 got.errors.empty() ? "" : ": ",
                 got.errors.empty() ? "" : got.errors.front().c_str());
    if (!as_expected) ++bad;
  };
  for (const char* name : {"smallbank-hybrid", "tpcc-neworder"}) {
    Options opt = base;
    opt.workload = name;
    opt.seconds = 1;
    opt.warmup = 0.5;
    opt.trace = false;
    const bool tpcc = std::strcmp(name, "tpcc-neworder") == 0;
    RunOnce(opt, [&](snapper::SnapperRuntime& rt, const Workload& w,
                     Outcomes& outcomes) {
      expect(tpcc ? "tpcc: true expectations" : "smallbank: true expectations",
             w.Check(rt, outcomes), true);
      Outcomes wrong = outcomes;
      wrong.pact_aborts += 1;
      expect(tpcc ? "tpcc: one PACT abort" : "smallbank: one PACT abort",
             w.Check(rt, wrong), false);
      if (!tpcc) {
        wrong = outcomes;
        wrong.transfers.pop_back();
        expect("smallbank: one ledger entry dropped", w.Check(rt, wrong),
               false);
        return true;
      }
      wrong = outcomes;
      wrong.orders.push_back(wrong.orders.front());
      expect("tpcc: one district count off by one", w.Check(rt, wrong), false);
      wrong = outcomes;
      wrong.orders.front().returned_total += 0.01;
      expect("tpcc: one NewOrder total perturbed", w.Check(rt, wrong), false);
      return true;
    });
  }
  std::fprintf(stderr, "self-test: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      opt->self_test = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      opt->out_dir = v;
    } else {
      return false;
    }
  }
  return opt->self_test ||
         (MakeWorkload(opt->workload) != nullptr && opt->seconds > 0);
}

}  // namespace
}  // namespace txnbench

int main(int argc, char** argv) {
  using namespace txnbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: txnbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n"
                 "       txnbench --self-test [--seed <n>]\nworkloads:");
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (opt.self_test) return SelfTest(opt);
  PrintResult(RunOnce(opt, CheckOutputs));
  return 0;
}
