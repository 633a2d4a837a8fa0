// The benchmark's workloads: input generation from a seed, the client-side
// record of what committed, and the output checks run against a runtime
// recovered from the run's WAL. Everything the checks compare against is
// computed here, apart from the program: the opening balances, the TPC-C
// synthetic row formulas and the NewOrder total.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snapper/snapper_runtime.h"

namespace txnbench {

/// splitmix64. The benchmark's own generator, so its inputs do not move
/// when the program's Rng changes.
class Gen {
 public:
  explicit Gen(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t s_;
};

/// Independent sub-seed for stream `stream` of master seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// One generated transaction plus what the checks need to know about it.
struct Request {
  snapper::ActorId root;
  std::string method;
  snapper::Value input;
  snapper::ActorAccessInfo info;  ///< PACT submissions only
  bool pact = true;
  // SmallBank MultiTransfer: `from` pays `amount` to each of `to`.
  uint64_t from = 0;
  std::vector<uint64_t> to;
  int64_t amount = 0;
  // TPC-C NewOrder: flat district index and the benchmark's own total.
  uint32_t district = 0;
  double expected_total = 0;
};

struct OrderOutcome {
  uint32_t district = 0;
  double expected_total = 0;
  double returned_total = 0;
};

/// What the client saw commit (all phases of the run, not only the
/// measured window), merged across client threads before the checks.
struct Outcomes {
  std::vector<Request> transfers;  ///< committed SmallBank MultiTransfers
  std::vector<OrderOutcome> orders;
  uint64_t pact_aborts = 0;

  void Merge(Outcomes&& other);
};

struct CheckReport {
  bool ok = true;
  std::vector<std::string> errors;  ///< first few mismatches, for the log
  void Fail(std::string what);
};

/// One method call on one actor: a probe target or a read-back.
struct ActorCall {
  snapper::ActorId actor;
  std::string method;
  snapper::Value input;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Applies workload-specific settings (checkpointing, segments).
  virtual void Configure(snapper::SnapperConfig& config) const {}
  /// Registers the actor types. Called on the measured runtime and again on
  /// the recovered one; type ids come out the same both times.
  virtual void Register(snapper::SnapperRuntime& rt) = 0;
  /// Activates the workload's actors before the load starts (set-up).
  /// Returns false if an activation call failed.
  virtual bool Prepopulate(snapper::SnapperRuntime& rt) = 0;
  /// Generates the next request. Thread-safe: all state is in `gen`.
  virtual Request Next(Gen& gen) const = 0;
  /// Records a committed request's effect in the client-side outcomes.
  virtual void RecordCommit(const Request& request,
                            const snapper::TxnResult& result,
                            Outcomes* out) const = 0;
  /// Compares the recovered runtime's state with `outcomes`.
  virtual CheckReport Check(snapper::SnapperRuntime& recovered,
                            const Outcomes& outcomes) const = 0;

  /// Targets of the traced run's probes: actors the workload never touches.
  virtual ActorCall NtProbe() const = 0;
  /// ACT probe for workloads that submit no ACTs of their own, so the ACT
  /// phase timings have samples on every workload.
  virtual ActorCall ActProbe() const = 0;
  virtual bool submits_acts() const { return false; }
  /// Seconds of load before the measured window opens.
  virtual double warmup_seconds() const = 0;
  /// Requests each client thread keeps in flight.
  virtual size_t in_flight() const { return 64; }
};

/// "smallbank-pact", "smallbank-hybrid" or "tpcc-neworder"; nullptr if
/// the name is unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

/// Runs each call as an NT call, a bounded number in flight, and returns
/// the results in order (a failed call leaves an empty Value and sets
/// *failed).
std::vector<snapper::Value> ReadAll(snapper::SnapperRuntime& rt,
                                    const std::vector<ActorCall>& calls,
                                    bool* failed);

}  // namespace txnbench
