#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace txnbench {

using snapper::ActorId;
using snapper::SnapperRuntime;
using snapper::TxnResult;
using snapper::Value;
using snapper::ValueList;
using snapper::ValueMap;

uint64_t Gen::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Gen g(seed ^ (stream * 0xd1342543de82ef95ull));
  g.Next();
  return g.Next();
}

void Outcomes::Merge(Outcomes&& other) {
  transfers.insert(transfers.end(),
                   std::make_move_iterator(other.transfers.begin()),
                   std::make_move_iterator(other.transfers.end()));
  orders.insert(orders.end(), other.orders.begin(), other.orders.end());
  pact_aborts += other.pact_aborts;
}

void CheckReport::Fail(std::string what) {
  ok = false;
  if (errors.size() < 5) errors.push_back(std::move(what));
}

std::vector<Value> ReadAll(SnapperRuntime& rt,
                           const std::vector<ActorCall>& calls,
                           bool* failed) {
  constexpr size_t kWindow = 256;
  std::vector<Value> out(calls.size());
  std::deque<std::pair<size_t, snapper::Future<TxnResult>>> pending;
  auto drain_one = [&] {
    auto [index, future] = std::move(pending.front());
    pending.pop_front();
    try {
      TxnResult r = future.Get();
      if (r.ok()) {
        out[index] = std::move(r.value);
        return;
      }
    } catch (...) {
    }
    *failed = true;
  };
  for (size_t i = 0; i < calls.size(); ++i) {
    if (pending.size() >= kWindow) drain_one();
    pending.emplace_back(
        i, rt.SubmitNt(calls[i].actor, calls[i].method, calls[i].input));
  }
  while (!pending.empty()) drain_one();
  return out;
}

namespace {

// ---------------------------------------------------------------- SmallBank

constexpr uint64_t kAccounts = 10000;
constexpr int kTransferFanout = 4;
// Opening balance as the benchmark knows it: checking + savings of a fresh
// account, both 1e7 (amounts are integral, so every sum stays exact).
constexpr double kOpeningBalance = 2e7;

class SmallBank : public Workload {
 public:
  explicit SmallBank(double pact_share) : pact_share_(pact_share) {}

  void Register(SnapperRuntime& rt) override {
    type_ = snapper::smallbank::RegisterSmallBank(rt);
  }

  bool Prepopulate(SnapperRuntime& rt) override {
    bool failed = false;
    ReadAll(rt, BalanceCalls(), &failed);
    return !failed;
  }

  Request Next(Gen& gen) const override {
    Request r;
    r.pact = pact_share_ >= 1.0 || gen.Bernoulli(pact_share_);
    r.from = gen.Uniform(kAccounts);
    while (r.to.size() < kTransferFanout) {
      const uint64_t k = gen.Uniform(kAccounts);
      if (k == r.from) continue;
      bool dup = false;
      for (uint64_t t : r.to) dup |= t == k;
      if (!dup) r.to.push_back(k);
    }
    r.amount = 1 + static_cast<int64_t>(gen.Uniform(100));
    r.root = ActorId{type_, r.from};
    r.method = "MultiTransfer";
    ValueList tos;
    for (uint64_t t : r.to) tos.push_back(Value(t));
    r.input = Value(ValueMap{{"amount", Value(static_cast<double>(r.amount))},
                             {"to", Value(std::move(tos))}});
    if (r.pact) {
      r.info[r.root] += 1;
      for (uint64_t t : r.to) r.info[ActorId{type_, t}] += 1;
    }
    return r;
  }

  void RecordCommit(const Request& request, const TxnResult&,
                    Outcomes* out) const override {
    Request slim;
    slim.from = request.from;
    slim.to = request.to;
    slim.amount = request.amount;
    out->transfers.push_back(std::move(slim));
  }

  CheckReport Check(SnapperRuntime& recovered,
                    const Outcomes& outcomes) const override {
    CheckReport report;
    if (outcomes.pact_aborts != 0) {
      report.Fail(std::to_string(outcomes.pact_aborts) + " PACT(s) aborted");
    }
    std::vector<int64_t> delta(kAccounts, 0);
    for (const Request& t : outcomes.transfers) {
      delta[t.from] -= t.amount * static_cast<int64_t>(t.to.size());
      for (uint64_t to : t.to) delta[to] += t.amount;
    }
    bool failed = false;
    std::vector<Value> balances =
        ReadAll(recovered, BalanceCalls(), &failed);
    if (failed) report.Fail("a balance read on the recovered runtime failed");
    double total = 0;
    for (uint64_t k = 0; k < kAccounts; ++k) {
      if (!balances[k].is_double()) continue;
      const double got = balances[k].AsDouble();
      const double want = kOpeningBalance + static_cast<double>(delta[k]);
      total += got;
      if (got != want) {
        report.Fail("account " + std::to_string(k) + ": balance " +
                    std::to_string(got) + ", ledger says " +
                    std::to_string(want));
      }
    }
    if (total != kOpeningBalance * static_cast<double>(kAccounts)) {
      report.Fail("total balance " + std::to_string(total) +
                  " differs from accounts x opening balance");
    }
    return report;
  }

  ActorCall NtProbe() const override {
    return {ActorId{type_, kAccounts}, "Balance", Value()};
  }
  ActorCall ActProbe() const override {
    return {ActorId{type_, kAccounts + 1}, "Balance", Value()};
  }
  bool submits_acts() const override { return pact_share_ < 1.0; }
  double warmup_seconds() const override { return 2.0; }

 private:
  std::vector<ActorCall> BalanceCalls() const {
    std::vector<ActorCall> calls;
    calls.reserve(kAccounts);
    for (uint64_t k = 0; k < kAccounts; ++k) {
      calls.push_back({ActorId{type_, k}, "Balance", Value()});
    }
    return calls;
  }

  const double pact_share_;
  uint32_t type_ = 0;
};

// -------------------------------------------------------------------- TPC-C

constexpr uint64_t kWarehouses = 4;
constexpr uint64_t kDistricts = 10;
constexpr uint64_t kItems = 4096;
constexpr uint64_t kCustomers = 3000;
constexpr int64_t kStockParts = 128;
constexpr int64_t kItemParts = 2;
constexpr int64_t kCustomerParts = 1;
constexpr int64_t kOrderParts = 10;
constexpr double kRemoteStock = 0.01;

// The synthetic rows, as the benchmark defines them: an item's price, a
// customer's discount and the two taxes. The program holds its own copy.
double Price(uint64_t item) {
  return 1.0 + static_cast<double>((item * 2654435761ull) % 9900) / 100.0;
}
double Discount(uint64_t w, uint64_t d, uint64_t c) {
  return static_cast<double>((w * 131 + d * 17 + c) % 50) / 1000.0;
}
double WarehouseTax(uint64_t w) { return static_cast<double>(w % 10) / 100.0; }
double DistrictTax(uint64_t w, uint64_t d) {
  return static_cast<double>((w * 1024 + d) % 20) / 100.0;
}
uint64_t PartKey(uint64_t w, int64_t part) {
  return w * 1024 + static_cast<uint64_t>(part);
}

class TpccNewOrder : public Workload {
 public:
  void Configure(snapper::SnapperConfig& config) const override {
    config.wal_segment_bytes = size_t{4} << 20;
    config.checkpoint_threshold_bytes = size_t{1} << 20;
  }

  void Register(SnapperRuntime& rt) override {
    types_ = snapper::tpcc::RegisterTpcc(rt);
  }

  bool Prepopulate(SnapperRuntime& rt) override {
    // Every actor except the order partitions, which have no read-only
    // method; the warm-up activates those.
    std::vector<ActorCall> calls;
    const Value no_items(ValueMap{{"items", Value(ValueList{})}});
    for (uint64_t w = 0; w < kWarehouses; ++w) {
      calls.push_back({ActorId{types_.warehouse, w}, "ReadWarehouse", Value()});
      for (uint64_t d = 0; d < kDistricts; ++d) {
        calls.push_back(
            {ActorId{types_.district, PartKey(w, d)}, "ReadDistrict", Value()});
      }
      for (int64_t p = 0; p < kItemParts; ++p) {
        calls.push_back({ActorId{types_.item, PartKey(w, p)}, "ReadItems",
                         no_items});
      }
      for (int64_t p = 0; p < kCustomerParts; ++p) {
        calls.push_back({ActorId{types_.customer, PartKey(w, p)},
                         "ReadCustomer",
                         Value(ValueMap{{"w", Value(w)},
                                        {"d", Value(int64_t{0})},
                                        {"c", Value(int64_t{0})}})});
      }
      for (int64_t p = 0; p < kStockParts; ++p) {
        calls.push_back({ActorId{types_.stock, PartKey(w, p)}, "UpdateStock",
                         no_items});
      }
    }
    bool failed = false;
    ReadAll(rt, calls, &failed);
    return !failed;
  }

  Request Next(Gen& gen) const override {
    const uint64_t w = gen.Uniform(kWarehouses);
    const uint64_t d = gen.Uniform(kDistricts);
    const uint64_t c = gen.Uniform(kCustomers);
    const int ol_cnt = 5 + static_cast<int>(gen.Uniform(11));
    std::set<uint64_t> picked;
    std::set<int64_t> item_parts;
    std::set<std::pair<uint64_t, int64_t>> stock_parts;
    ValueList lines;
    double item_total = 0;
    while (static_cast<int>(picked.size()) < ol_cnt) {
      const uint64_t item = gen.Uniform(kItems);
      if (!picked.insert(item).second) continue;
      uint64_t supply_w = w;
      if (gen.Bernoulli(kRemoteStock)) {
        supply_w = (w + 1 + gen.Uniform(kWarehouses - 1)) % kWarehouses;
      }
      const int64_t qty = 1 + static_cast<int64_t>(gen.Uniform(10));
      lines.push_back(Value(ValueMap{{"item", Value(item)},
                                     {"supply_w", Value(supply_w)},
                                     {"qty", Value(qty)}}));
      item_parts.insert(static_cast<int64_t>(item) % kItemParts);
      stock_parts.insert({supply_w, static_cast<int64_t>(item) % kStockParts});
      // The program's NewOrder sums unit prices; quantities do not enter
      // the total (see the FOUND note in CHANGES.md).
      item_total += Price(item);
    }

    Request r;
    r.district = static_cast<uint32_t>(w * kDistricts + d);
    r.expected_total = item_total *
                       (1.0 + WarehouseTax(w) + DistrictTax(w, d)) *
                       (1.0 - Discount(w, d, c));
    r.root = ActorId{types_.district, PartKey(w, d)};
    r.method = "NewOrder";
    r.info[r.root] += 1;
    r.info[ActorId{types_.warehouse, w}] += 1;
    r.info[ActorId{types_.customer,
                   PartKey(w, static_cast<int64_t>(d) % kCustomerParts)}] += 1;
    r.info[ActorId{types_.order,
                   PartKey(w, static_cast<int64_t>(d) % kOrderParts)}] += 1;
    for (int64_t p : item_parts) {
      r.info[ActorId{types_.item, PartKey(w, p)}] += 1;
    }
    for (const auto& [sw, p] : stock_parts) {
      r.info[ActorId{types_.stock, PartKey(sw, p)}] += 1;
    }
    r.input = Value(ValueMap{
        {"w", Value(w)},
        {"d", Value(d)},
        {"c", Value(c)},
        {"lines", Value(std::move(lines))},
        {"layout", Value(ValueMap{{"stock_parts", Value(kStockParts)},
                                  {"item_parts", Value(kItemParts)},
                                  {"customer_parts", Value(kCustomerParts)},
                                  {"order_parts", Value(kOrderParts)}})},
        {"types",
         Value(ValueMap{{"warehouse", Value(uint64_t{types_.warehouse})},
                        {"stock", Value(uint64_t{types_.stock})},
                        {"item", Value(uint64_t{types_.item})},
                        {"customer", Value(uint64_t{types_.customer})},
                        {"order", Value(uint64_t{types_.order})}})}});
    return r;
  }

  void RecordCommit(const Request& request, const TxnResult& result,
                    Outcomes* out) const override {
    const double returned =
        result.value.is_double() ? result.value.AsDouble() : std::nan("");
    out->orders.push_back({request.district, request.expected_total, returned});
  }

  CheckReport Check(SnapperRuntime& recovered,
                    const Outcomes& outcomes) const override {
    CheckReport report;
    if (outcomes.pact_aborts != 0) {
      report.Fail(std::to_string(outcomes.pact_aborts) + " PACT(s) aborted");
    }
    std::vector<int64_t> sent(kWarehouses * kDistricts, 0);
    for (const OrderOutcome& o : outcomes.orders) {
      sent[o.district] += 1;
      // Summation order differs between the program and this check, so the
      // totals agree to rounding, not bit for bit.
      const double tolerance =
          1e-9 * std::max(1.0, std::fabs(o.expected_total));
      if (!(std::fabs(o.returned_total - o.expected_total) <= tolerance)) {
        report.Fail("district " + std::to_string(o.district) +
                    ": NewOrder returned total " +
                    std::to_string(o.returned_total) + ", expected " +
                    std::to_string(o.expected_total));
      }
    }
    std::vector<ActorCall> calls;
    for (uint64_t w = 0; w < kWarehouses; ++w) {
      for (uint64_t d = 0; d < kDistricts; ++d) {
        calls.push_back(
            {ActorId{types_.district, PartKey(w, d)}, "ReadDistrict", Value()});
      }
    }
    bool failed = false;
    std::vector<Value> rows = ReadAll(recovered, calls, &failed);
    if (failed) report.Fail("a district read on the recovered runtime failed");
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].is_map()) continue;
      const int64_t orders = rows[i]["next_o_id"].AsInt() - 1;
      if (orders != sent[i]) {
        report.Fail("district " + std::to_string(i) + ": next_o_id - 1 = " +
                    std::to_string(orders) + ", client committed " +
                    std::to_string(sent[i]));
      }
    }
    return report;
  }

  ActorCall NtProbe() const override {
    return {ActorId{types_.warehouse, kWarehouses}, "ReadWarehouse", Value()};
  }
  ActorCall ActProbe() const override {
    return {ActorId{types_.warehouse, kWarehouses + 1}, "ReadWarehouse",
            Value()};
  }
  double warmup_seconds() const override { return 3.0; }
  // 2 x 64 in flight queues past the knee (throughput drops ~5% against
  // 2 x 32 while latency doubles).
  size_t in_flight() const override { return 32; }

 private:
  snapper::tpcc::TpccTypes types_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "smallbank-pact", "smallbank-hybrid", "tpcc-neworder"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "smallbank-pact") return std::make_unique<SmallBank>(1.0);
  if (name == "smallbank-hybrid") return std::make_unique<SmallBank>(0.5);
  if (name == "tpcc-neworder") return std::make_unique<TpccNewOrder>();
  return nullptr;
}

}  // namespace txnbench
