// Scheduler-policy comparison: Static vs Guided vs Dynamic on a skewed
// tpacf-style workload at 8 ranks.
//
// The workload is the shape the paper's §3.2 irregular skeletons produce: a
// triangular loop where item i costs O(i) (each tpacf point correlates
// against all earlier points). A static block split assigns the last rank
// ~2x the average work; demand-driven policies keep the tail balanced at
// the price of request/grant control traffic.
//
// Methodology (the repo's standard measure-then-simulate split, DESIGN.md):
// atoms execute for real once and their durations feed the sim/ makespan
// models — makespan_static_block for the static split, makespan_demand
// (every claim pays one grant_overhead round trip) for guided/dynamic.
// Separately, each policy runs for real on an 8-rank in-process cluster to
// (a) verify results are identical across policies — bitwise for the
// ordered-combine path — and (b) report the scheduler control traffic that
// CommStats attributes.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_problems.hpp"
#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "sim/network_model.hpp"
#include "sim/schedule.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

using namespace triolet;
using core::index_t;

namespace {

// -- the skewed workload ------------------------------------------------------

constexpr index_t kItems = 2048;
constexpr index_t kGrain = 32;  // atoms of 32 items -> 64 atoms
constexpr int kWorkPerUnit = 6; // transcendental ops per triangular unit

/// cost[i] = i: item i does O(i) inner iterations, like correlating point i
/// against all earlier points. The lambda is captureless, so the iterator
/// serializes for free.
auto make_workload(const Array1<double>& costs) {
  return core::map(core::from_array(costs), [](double c) {
    double v = 0.0;
    const int n = static_cast<int>(c) * kWorkPerUnit;
    for (int k = 0; k < n; ++k) v += std::sin(v + 1e-3 * k);
    return v;
  });
}

Array1<double> make_costs() {
  Array1<double> costs(kItems);
  for (index_t i = 0; i < kItems; ++i) costs[i] = static_cast<double>(i);
  return costs;
}

/// Real per-atom durations, measured sequentially (min of 3 runs per atom).
std::vector<double> measure_atoms(const Array1<double>& costs) {
  auto it = make_workload(costs);
  const auto dom = it.domain();
  const index_t natoms = sched::atom_count(core::outer_extent(dom), kGrain);
  std::vector<double> durs;
  durs.reserve(static_cast<std::size_t>(natoms));
  for (index_t a = 0; a < natoms; ++a) {
    auto atom = it.slice(core::outer_slice(dom, a * kGrain, (a + 1) * kGrain));
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch sw;
      volatile double sink =
          core::reduce(atom, 0.0, [](double x, double y) { return x + y; });
      (void)sink;
      best = std::min(best, sw.seconds());
    }
    durs.push_back(best);
  }
  return durs;
}

/// Collapses per-atom durations into the guided grant sequence (the exact
/// run sizes the root would serve with P perfectly-interleaved workers).
std::vector<double> guided_runs(const std::vector<double>& atoms, int ranks) {
  std::vector<double> runs;
  index_t next = 0;
  const auto n = static_cast<index_t>(atoms.size());
  while (next < n) {
    const index_t take = std::min(n - next, sched::guided_run_atoms(n - next, ranks));
    double sum = 0.0;
    for (index_t a = next; a < next + take; ++a) {
      sum += atoms[static_cast<std::size_t>(a)];
    }
    runs.push_back(sum);
    next += take;
  }
  return runs;
}

struct PolicyRun {
  sched::SchedulePolicy policy;
  double ordered_result = 0.0;
  net::SchedStats stats;
};

PolicyRun run_real(sched::SchedulePolicy policy, const Array1<double>& costs) {
  PolicyRun out{policy, 0.0, {}};
  sched::SchedOptions opts{policy, sched::CombineMode::kOrdered, kGrain};
  auto res = net::Cluster::run(bench::kNodes, [&](net::Comm& comm) {
    dist::NodeRuntime node(2);
    auto make = [&] { return make_workload(costs); };
    auto plus = [](double a, double b) { return a + b; };
    // Warm-up round (serialization paths, pools), then bracket one steady
    // round with Comm::snapshot_stats(): the same per-round counter delta
    // the autotuner consumes, summed cluster-wide over an allgather —
    // CommStats itself is wire-serializable.
    (void)dist::reduce(comm, make, 0.0, plus, opts);
    const net::CommStats before = comm.snapshot_stats();
    double r = dist::reduce(comm, make, 0.0, plus, opts);
    const net::CommStats delta = comm.snapshot_stats() - before;
    auto all = comm.allgather(delta);
    if (comm.rank() == 0) {
      out.ordered_result = r;
      net::CommStats sum{};
      for (const auto& d : all) sum += d;
      out.stats = sum.sched;
    }
  });
  if (!res.ok) {
    std::fprintf(stderr, "cluster failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("== bm_sched: schedule policies on a skewed workload, %d ranks ==\n",
              bench::kNodes);

  const auto costs = make_costs();
  const auto atoms = measure_atoms(costs);
  const int ranks = bench::kNodes;
  const double total = sim::total_work(atoms);

  // Control-message sizes from the real wire format: a request is one byte,
  // a grant is the header plus one serialized atom-sized task slice.
  auto it = make_workload(costs);
  const auto dom = it.domain();
  sched::Grant<decltype(it)> sample{
      0, 0, 1, kGrain, it.slice(core::outer_slice(dom, 0, kGrain))};
  const auto grant_bytes = static_cast<std::int64_t>(serial::wire_size(sample));
  sim::NetworkModel net;
  const double oh = sim::grant_overhead(net, 1, grant_bytes);

  const double m_static = sim::makespan_static_block(atoms, ranks);
  const auto g_runs = guided_runs(atoms, ranks);
  const double m_guided = sim::makespan_demand(g_runs, ranks, oh);
  const double m_dynamic = sim::makespan_demand(atoms, ranks, oh);
  const double ideal = total / ranks;

  Table t({"policy", "chunks", "ctrl rt/chunk (us)", "makespan (s)",
           "vs static", "vs ideal"});
  auto row = [&](const char* name, std::size_t chunks, double m) {
    t.add_row({name, Table::num(static_cast<std::int64_t>(chunks)),
               Table::num(oh * 1e6, 2), Table::num(m, 6),
               Table::num(m_static / m, 2) + "x", Table::num(m / ideal, 3) + "x"});
  };
  row("static", static_cast<std::size_t>(ranks), m_static);
  row("guided", g_runs.size(), m_guided);
  row("dynamic", atoms.size(), m_dynamic);
  t.print("simulated 8-rank makespan (measured atom durations, " +
          std::to_string(atoms.size()) + " atoms, grant " +
          std::to_string(grant_bytes) + " B)");

  // -- real cluster runs: result identity + control-traffic attribution ------
  const sched::SchedulePolicy policies[] = {sched::SchedulePolicy::kStatic,
                                            sched::SchedulePolicy::kGuided,
                                            sched::SchedulePolicy::kDynamic};
  std::vector<PolicyRun> runs;
  for (auto p : policies) runs.push_back(run_real(p, costs));

  Table c({"policy", "requests", "grants", "ctrl msgs", "ctrl bytes",
           "items run", "busy (s)", "steal wait (s)"});
  for (const auto& r : runs) {
    c.add_row({sched::to_string(r.policy), Table::num(r.stats.requests_sent),
               Table::num(r.stats.grants_served),
               Table::num(r.stats.control_messages),
               Table::num(r.stats.control_bytes),
               Table::num(r.stats.items_executed),
               Table::num(r.stats.busy_seconds, 4),
               Table::num(r.stats.idle_seconds, 4)});
  }
  c.print("real 8-rank cluster: one steady round's control traffic "
          "(cluster-wide snapshot_stats() delta)");

  bool bitwise = true;
  for (const auto& r : runs) {
    bitwise = bitwise && std::memcmp(&runs[0].ordered_result, &r.ordered_result,
                                     sizeof(double)) == 0;
  }

  const double best_demand = std::min(m_guided, m_dynamic);
  apps::shape_check("guided or dynamic beats static by >= 1.3x simulated",
                    best_demand * 1.3 <= m_static);
  apps::shape_check("ordered results bitwise identical across policies",
                    bitwise);
  apps::shape_check("static runs without any scheduler requests",
                    runs[0].stats.requests_sent == 0);
  apps::shape_check("guided needs fewer grants than dynamic",
                    runs[1].stats.grants_served < runs[2].stats.grants_served);
  apps::shape_check("every item executed exactly once under each policy",
                    runs[0].stats.items_executed == kItems &&
                        runs[1].stats.items_executed == kItems &&
                        runs[2].stats.items_executed == kItems);

  // Machine-readable record (bench/BENCH_sched.json keeps a checked-in copy).
  std::printf("\n{\n");
  std::printf("  \"workload\": {\"items\": %lld, \"grain\": %lld, \"atoms\": %zu, "
              "\"shape\": \"triangular\"},\n",
              static_cast<long long>(kItems), static_cast<long long>(kGrain),
              atoms.size());
  std::printf("  \"ranks\": %d,\n", ranks);
  std::printf("  \"grant_bytes\": %lld,\n", static_cast<long long>(grant_bytes));
  std::printf("  \"control_round_trip_seconds\": %.3e,\n", oh);
  std::printf("  \"simulated_makespan_seconds\": "
              "{\"static\": %.6e, \"guided\": %.6e, \"dynamic\": %.6e},\n",
              m_static, m_guided, m_dynamic);
  std::printf("  \"speedup_vs_static\": {\"guided\": %.3f, \"dynamic\": %.3f},\n",
              m_static / m_guided, m_static / m_dynamic);
  std::printf("  \"control_traffic\": {\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& s = runs[i].stats;
    std::printf("    \"%s\": {\"requests\": %lld, \"grants\": %lld, "
                "\"messages\": %lld, \"bytes\": %lld}%s\n",
                sched::to_string(runs[i].policy),
                static_cast<long long>(s.requests_sent),
                static_cast<long long>(s.grants_served),
                static_cast<long long>(s.control_messages),
                static_cast<long long>(s.control_bytes),
                i + 1 < runs.size() ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"ordered_results_bitwise_identical\": %s\n",
              bitwise ? "true" : "false");
  std::printf("}\n");
  return 0;
}
