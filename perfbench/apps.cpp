// Workload `apps`: the paper's four programs (mri-q, sgemm, tpacf, cutcp)
// through their option-less par() entry points, on one long-lived 2-rank
// cluster with one pool worker per rank. Closed loop, one op at a time; an
// op is one pass over the four apps between barriers. Fused loops (core)
// and work stealing (runtime) do most of the work; net and serial move a
// few MB of bulk payload per op; sched, residency and svc are not used.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "apps/cutcp.hpp"
#include "apps/mriq.hpp"
#include "apps/sgemm.hpp"
#include "apps/tpacf.hpp"
#include "common.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "serial/serialize.hpp"
#include "support/timing.hpp"
#include "trace.hpp"

namespace perfbench {

namespace apps = triolet::apps;
namespace core = triolet::core;
namespace net = triolet::net;
using triolet::Stopwatch;

namespace {

/// About four times the work of the figure benches' problems
/// (bench/bench_problems.hpp): a pass takes roughly half a second on 2
/// ranks x 1 worker.
struct Problems {
  apps::MriqProblem mriq;
  apps::SgemmProblem sgemm;
  apps::TpacfProblem tpacf;
  apps::CutcpProblem cutcp;
};

Problems make_problems(std::uint64_t seed) {
  const std::uint64_t s = seed * 0x9E3779B97F4A7C15ull;
  return {apps::make_mriq(/*pixels=*/16384, /*samples=*/384, s + 1),
          apps::make_sgemm(/*n=*/608, /*k=*/608, /*m=*/608, s + 2),
          apps::make_tpacf(/*points=*/1536, /*random_sets=*/4, /*nbins=*/32,
                           s + 3),
          apps::make_cutcp(/*atoms=*/48000, /*nx=*/40, /*ny=*/40, /*nz=*/40,
                           /*cutoff=*/2.5f, s + 4)};
}

struct Results {
  apps::MriqResult mriq;
  triolet::Array2<float> sgemm;
  apps::TpacfHist tpacf;
  apps::CutcpGrid cutcp;
};

Results reference(const Problems& p) {
  return {apps::mriq_seq_c(p.mriq), apps::sgemm_seq_c(p.sgemm),
          apps::tpacf_seq_c(p.tpacf), apps::cutcp_seq_c(p.cutcp)};
}

/// Float results may differ from the sequential C loop in summation order
/// only; the tpacf histogram is integer and must match exactly.
constexpr double kRelTol = 1e-5;

bool matches(const Results& got, const Results& ref, std::string* why) {
  const double e_mriq = apps::mriq_rel_error(ref.mriq, got.mriq);
  const double e_sgemm = apps::sgemm_rel_error(ref.sgemm, got.sgemm);
  const double e_cutcp = apps::cutcp_rel_error(ref.cutcp, got.cutcp);
  const bool tpacf_ok =
      got.tpacf.size() == ref.tpacf.size() &&
      std::equal(got.tpacf.begin(), got.tpacf.end(), ref.tpacf.begin());
  const bool ok = e_mriq <= kRelTol && e_sgemm <= kRelTol &&
                  e_cutcp <= kRelTol && tpacf_ok;
  if (!ok && why) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "mriq %.2e sgemm %.2e cutcp %.2e tpacf %s", e_mriq, e_sgemm,
                  e_cutcp, tpacf_ok ? "exact" : "MISMATCH");
    *why = buf;
  }
  return ok;
}

/// One op: the four distributed apps, each in its own span.
void pass(net::Comm& comm, const Problems& p, Results& out) {
  {
    ScopedSpan s("apps.mriq_triolet_dist");
    out.mriq = apps::mriq_triolet_dist(comm, p.mriq);
  }
  {
    ScopedSpan s("apps.sgemm_triolet_dist");
    out.sgemm = apps::sgemm_triolet_dist(comm, p.sgemm);
  }
  {
    ScopedSpan s("apps.tpacf_triolet_dist");
    out.tpacf = apps::tpacf_triolet_dist(comm, p.tpacf);
  }
  {
    ScopedSpan s("apps.cutcp_triolet_dist");
    out.cutcp = apps::cutcp_triolet_dist(comm, p.cutcp);
  }
}

/// Layer probes on the workload's own problems (traced run only):
/// core.fused_vs_c, runtime.localpar_speedup, serial encode/decode.
void probe_layers(Report& r, const Problems& p, int nproc) {
  struct App {
    const char* name;
    std::function<void()> seq_c, unpar, local;
  };
  const App list[] = {
      {"mriq", [&] { (void)apps::mriq_seq_c(p.mriq); },
       [&] { (void)apps::mriq_triolet(p.mriq, core::ParHint::kSeq); },
       [&] { (void)apps::mriq_triolet(p.mriq, core::ParHint::kLocal); }},
      {"sgemm", [&] { (void)apps::sgemm_seq_c(p.sgemm); },
       [&] { (void)apps::sgemm_triolet(p.sgemm, core::ParHint::kSeq); },
       [&] { (void)apps::sgemm_triolet(p.sgemm, core::ParHint::kLocal); }},
      {"tpacf", [&] { (void)apps::tpacf_seq_c(p.tpacf); },
       [&] { (void)apps::tpacf_triolet(p.tpacf, core::ParHint::kSeq); },
       [&] { (void)apps::tpacf_triolet(p.tpacf, core::ParHint::kLocal); }},
      {"cutcp", [&] { (void)apps::cutcp_seq_c(p.cutcp); },
       [&] { (void)apps::cutcp_triolet(p.cutcp, core::ParHint::kSeq); },
       [&] { (void)apps::cutcp_triolet(p.cutcp, core::ParHint::kLocal); }},
  };
  // localpar on nproc threads: nproc - 1 workers plus the calling thread.
  triolet::runtime::ThreadPool pool(std::max(1, nproc - 1));
  triolet::runtime::PoolScope scope(pool);
  auto best = [](const std::function<void()>& fn) {
    return triolet::time_fn(fn, /*repeats=*/2, /*warmups=*/0).min;
  };
  for (const App& a : list) {
    const double c = best(a.seq_c), u = best(a.unpar), l = best(a.local);
    r.add(std::string("core.fused_vs_c.") + a.name, u / c);
    r.add(std::string("runtime.localpar_speedup.") + a.name, u / l);
  }

  // Serialization of the apps' own payload shapes: to_segments + the one
  // gather the wire performs (encode), from_bytes (decode).
  double enc_s = 0, dec_s = 0, bytes = 0;
  auto measure = [&](const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    for (int i = 0; i < 5; ++i) {
      Stopwatch e;
      auto flat = triolet::serial::to_segments(v).gather();
      enc_s += e.seconds();
      Stopwatch d;
      T back = triolet::serial::from_bytes<T>(flat);
      dec_s += d.seconds();
      bytes += static_cast<double>(flat.size());
    }
  };
  measure(p.mriq.ks);
  measure(p.mriq.x);
  measure(p.sgemm.a);
  measure(p.tpacf);
  measure(p.cutcp.atoms);
  r.add("serial.encode_gbps", 1e-9 * bytes / enc_s);
  r.add("serial.decode_gbps", 1e-9 * bytes / dec_s);
}

}  // namespace

Report run_apps(const Args& a, const Shape& shape) {
  Report rep;
  const int segments = a.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  OpTimes times;
  double rss_mb = 0;
  Problems p;
  for (int seg = 0; seg < segments; ++seg) {
    Stopwatch setup;
    p = make_problems(a.seed);
    const Results ref = reference(p);
    ScopedSpan cluster_span("net.Cluster::run");
    auto res = net::Cluster::run(shape.ranks, [&](net::Comm& comm) {
      ThreadTrace& tt = thread_trace();
      tt.rank = comm.rank();
      tt.on = a.trace;
      std::unique_ptr<triolet::dist::NodeRuntime> node;
      {
        ScopedSpan s("dist.NodeRuntime");
        node = std::make_unique<triolet::dist::NodeRuntime>(shape.workers);
      }
      Results got;
      pass(comm, p, got);  // warm-up: first-touch, pools, caches
      comm.barrier();
      if (comm.rank() == 0) {
        setup_s.push_back(setup.seconds());
        std::string why;
        const bool ok = matches(got, ref, &why);
        rep.tally.record(ok);  // warm-up passes are checked ops too
        if (!ok) rep.notes.push_back("warm-up pass wrong: " + why);
      }
      closed_loop(comm, node->pool, a, a.seconds / segments, times,
                  [&] { pass(comm, p, got); },
                  [&](std::int64_t k) {
                    std::string why;
                    const bool ok = matches(got, ref, &why);
                    rep.tally.record(ok);
                    if (!ok) {
                      rep.notes.push_back("op " + std::to_string(k) +
                                          " wrong: " + why);
                    }
                  });
    });
    cluster_span.close();
    // Later set-ups reuse the heap the first one left, so the peak is read
    // over one set-up and its ops.
    if (seg == 0) rss_mb = peak_rss_mb();
    if (!res.ok) {
      rep.notes.push_back("cluster failed: " + res.error);
      rep.tally.record(false);
    }
  }

  rep.notes.push_back("apps: " + std::to_string(times.plain.size()) +
                      " untraced ops, " + std::to_string(times.traced.size()) +
                      " traced ops");
  if (!a.trace) {
    add_closed_loop_metrics(rep, times, setup_s, rss_mb);
    return rep;
  }

  const std::vector<Span> spans = op_spans();
  add_common_layer_metrics(rep, spans, times);
  for (const char* app : {"mriq", "sgemm", "tpacf", "cutcp"}) {
    const std::string call = std::string("apps.") + app + "_triolet_dist";
    rep.add(std::string("apps.") + app + "_s",
            mean_per_op(per_op(spans, call))["span_s"]);
  }
  probe_layers(rep, p, shape.ranks * (shape.workers + 1));
  probe_serial_checksum(rep);
  probe_allreduce(rep);
  return rep;
}

}  // namespace perfbench
