// Counter flattening at layer boundaries and the schema of every metric.

#include <sys/resource.h>

#include <algorithm>

#include "common.hpp"

namespace perfbench {

using triolet::net::CommStats;

Counters comm_counters(const CommStats& s) {
  Counters c;
  c["net.messages"] = static_cast<double>(s.messages_sent);
  c["net.bytes"] = static_cast<double>(s.bytes_sent);
  c["net.eager_msgs"] = static_cast<double>(s.msg.eager_msgs);
  c["net.rendezvous_msgs"] = static_cast<double>(s.msg.rendezvous_msgs);
  c["net.ring_full_stalls"] = static_cast<double>(s.msg.ring_full_stalls);
  c["net.pool_misses"] = static_cast<double>(s.msg.pool_misses);
  double calls = 0, cbytes = 0;
  for (const auto& col : s.collectives) {
    calls += static_cast<double>(col.calls);
    cbytes += static_cast<double>(col.bytes_sent);
  }
  c["net.coll_calls"] = calls;
  c["net.coll_bytes"] = cbytes;
  c["serial.bytes_copied"] = static_cast<double>(s.bytes_copied);
  c["serial.bytes_zero_copy"] = static_cast<double>(s.bytes_zero_copy);
  const auto& res = s.residency;
  c["dist.tokens_sent"] = static_cast<double>(res.tokens_sent);
  c["dist.bytes_avoided"] = static_cast<double>(res.bytes_avoided);
  c["dist.slices_inlined"] = static_cast<double>(res.slices_inlined);
  c["dist.bytes_inlined"] = static_cast<double>(res.bytes_inlined);
  c["dist.cache_hits"] = static_cast<double>(res.cache_hits);
  c["dist.cache_misses"] = static_cast<double>(res.cache_misses);
  c["dist.fetches"] = static_cast<double>(res.fetches);
  c["dist.view_tokens"] = static_cast<double>(s.views.view_tokens);
  c["sched.grants"] = static_cast<double>(s.sched.grants_served);
  c["sched.grants_received"] = static_cast<double>(s.sched.grants_received);
  c["sched.requests"] = static_cast<double>(s.sched.requests_sent);
  c["sched.control_bytes"] = static_cast<double>(s.sched.control_bytes);
  c["sched.grant_payload_bytes"] =
      static_cast<double>(s.sched.grant_payload_bytes);
  c["sched.granted_items"] = static_cast<double>(s.sched.granted_items);
  c["sched.busy_s"] = s.sched.busy_seconds;
  c["sched.idle_s"] = s.sched.idle_seconds;
  return c;
}

Counters pool_counters(const triolet::runtime::PoolStats& s) {
  return {{"runtime.tasks", static_cast<double>(s.tasks_executed)},
          {"runtime.steals", static_cast<double>(s.tasks_stolen)},
          {"runtime.steal_attempts", static_cast<double>(s.steal_attempts)},
          {"runtime.splits", static_cast<double>(s.splits)},
          {"runtime.parks", static_cast<double>(s.parks)},
          {"runtime.wakes", static_cast<double>(s.wakes)},
          {"runtime.boxed", static_cast<double>(s.tasks_boxed)}};
}

Counters rank_counters(triolet::net::Comm& comm,
                       const triolet::runtime::ThreadPool& pool) {
  Counters c = comm_counters(comm.snapshot_stats());
  c.merge(pool_counters(pool.stats()));
  return c;
}

void add_closed_loop_metrics(Report& r, const OpTimes& t,
                             const std::vector<double>& setup_s, double rss_mb) {
  std::string note = "set-ups (s):";
  for (double x : setup_s) {
    note += ' ';
    note += std::to_string(x);
  }
  r.notes.push_back(note);
  r.add("op_s", stats(t.plain).median);
  r.add("setup_s", stats(setup_s).median);
  r.add("peak_rss_mb", rss_mb);
  r.add("bench.op_p90_s", tail_percentile(t.plain, 0.9).value_or(0.0));
}

std::vector<Span> op_spans() {
  std::vector<Span> out;
  for (Span& s : collect_spans()) {
    if (s.op >= 0) out.push_back(std::move(s));
  }
  return out;
}

const std::vector<MetricDef>& metric_schema() {
  static const std::vector<MetricDef> schema = [] {
    std::vector<MetricDef> s;
    auto e2e = [&](std::string name, const char* unit) {
      s.push_back({std::move(name), unit, Kind::kEndToEnd});
    };
    auto layer = [&](std::string name, const char* unit) {
      s.push_back({std::move(name), unit, Kind::kPerLayer});
    };
    e2e("op_s", "s");
    e2e("setup_s", "s");
    e2e("peak_rss_mb", "MB");
    e2e("ok_ratio", "ratio");
    s.push_back({"fail_ratio", "ratio", Kind::kPrinted});
    layer("bench.op_p90_s", "s");
    const char* apps[] = {"mriq", "sgemm", "tpacf", "cutcp"};
    for (const char* a : apps) layer(std::string("apps.") + a + "_s", "s");
    for (const char* a : apps) layer(std::string("core.fused_vs_c.") + a, "ratio");
    for (const char* a : apps) {
      layer(std::string("runtime.localpar_speedup.") + a, "ratio");
    }
    for (const char* k : {"tasks", "steals", "steal_attempts"}) {
      layer(std::string("runtime.") + k, "count");
    }
    layer("runtime.steal_yield", "ratio");
    for (const char* k : {"splits", "parks", "wakes", "boxed"}) {
      layer(std::string("runtime.") + k, "count");
    }
    layer("serial.bytes_copied", "B");
    layer("serial.bytes_zero_copy", "B");
    layer("serial.zero_copy_share", "ratio");
    layer("serial.encode_gbps", "GB/s");
    layer("serial.decode_gbps", "GB/s");
    layer("serial.checksum_gbps", "GB/s");
    layer("net.messages", "count");
    layer("net.bytes", "B");
    for (const char* k : {"eager_msgs", "rendezvous_msgs", "ring_full_stalls",
                          "pool_misses", "coll_calls"}) {
      layer(std::string("net.") + k, "count");
    }
    layer("net.coll_bytes", "B");
    layer("net.barrier_s", "s");
    layer("net.allreduce_8b_s", "s");
    layer("dist.tokens_sent", "count");
    layer("dist.bytes_avoided", "B");
    layer("dist.slices_inlined", "count");
    layer("dist.bytes_inlined", "B");
    for (const char* k : {"cache_hits", "cache_misses", "fetches"}) {
      layer(std::string("dist.") + k, "count");
    }
    layer("dist.hit_ratio", "ratio");
    layer("dist.view_tokens", "count");
    layer("dist.update_s", "s");
    layer("sched.static_round_s", "s");
    layer("sched.dynamic_round_s", "s");
    layer("sched.grants", "count");
    layer("sched.requests", "count");
    layer("sched.control_bytes", "B");
    layer("sched.grant_payload_bytes", "B");
    layer("sched.items_per_grant", "count");
    layer("sched.busy_s", "s");
    layer("sched.idle_s", "s");
    layer("sched.unaccounted_s", "s");
    for (const char* k : {"queued_s", "run_s", "overhead_s", "large_run_s"}) {
      layer(std::string("svc.") + k, "s");
    }
    for (const char* k : {"batches", "batched_jobs", "bands_leased",
                          "peak_concurrent", "rejected", "failed",
                          "fair_share_waits"}) {
      layer(std::string("svc.") + k, "count");
    }
    for (const char* k : {"fair_share_wait_s", "late_p90_s", "small_p50_s",
                          "small_p90_s", "large_p50_s"}) {
      layer(std::string("svc.") + k, "s");
    }
    for (const char* l : {"bench", "apps", "net", "dist", "sched"}) {
      layer(std::string("self.") + l + "_s", "s");
    }
    layer("trace.overhead", "ratio");
    return s;
  }();
  return schema;
}

std::string unit_of(const std::string& name) {
  for (const MetricDef& d : metric_schema()) {
    if (d.name == name) return d.unit;
  }
  return "";
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void add_common_layer_metrics(Report& r, const std::vector<Span>& spans,
                              const OpTimes& t) {
  Counters m = mean_per_op(per_op(spans, "bench.op"));
  for (const char* k :
       {"runtime.tasks", "runtime.steals", "runtime.steal_attempts",
        "runtime.splits", "runtime.parks", "runtime.wakes", "runtime.boxed",
        "serial.bytes_copied", "serial.bytes_zero_copy", "net.messages",
        "net.bytes", "net.eager_msgs", "net.rendezvous_msgs",
        "net.ring_full_stalls", "net.pool_misses", "net.coll_calls",
        "net.coll_bytes", "dist.tokens_sent", "dist.bytes_avoided",
        "dist.slices_inlined", "dist.bytes_inlined", "dist.cache_hits",
        "dist.cache_misses", "dist.fetches", "dist.view_tokens",
        "sched.grants", "sched.requests", "sched.control_bytes",
        "sched.grant_payload_bytes"}) {
    r.add(k, m[k]);
  }
  r.add("runtime.steal_yield",
        ratio(m["runtime.steals"], m["runtime.steal_attempts"]));
  r.add("serial.zero_copy_share",
        ratio(m["serial.bytes_zero_copy"],
              m["serial.bytes_zero_copy"] + m["serial.bytes_copied"]));
  r.add("dist.hit_ratio",
        ratio(m["dist.cache_hits"], m["dist.cache_hits"] + m["dist.cache_misses"]));
  r.add("sched.items_per_grant",
        ratio(m["sched.granted_items"], m["sched.grants_received"]));
  for (const auto& [layer, s] : layer_self_per_op(spans)) {
    r.add("self." + layer + "_s", s);
  }
  r.add("net.barrier_s", mean_per_op(per_op(spans, "net.barrier"))["span_s"]);
  // The untraced half's tail: tracing never inflates it.
  r.add("bench.op_p90_s", tail_percentile(t.plain, 0.9).value_or(0.0));
  r.add("trace.overhead", stats(t.traced).median / stats(t.plain).median);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

}  // namespace perfbench
