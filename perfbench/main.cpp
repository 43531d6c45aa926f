// perfbench: the repository's benchmark. One run measures one workload:
//
//   perfbench --workload <apps|sparse> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <path>] [--git-sha <sha>]
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics from spans and counter deltas and writes
// the spans as Chrome Trace Event JSON. Human-readable lines come first;
// the last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Exit codes: 0 measured, 2 bad arguments, 3 refused (thread budget).

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// CPU brand and hypervisor vendor from cpuid (no file reads).
std::pair<std::string, std::string> cpu_identity() {
  std::string model = "unknown", hyper = "none";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) && (c & (1u << 31))) {
    __cpuid(0x40000000u, a, b, c, d);
    char vendor[13] = {};
    std::memcpy(vendor, &b, 4);
    std::memcpy(vendor + 4, &c, 4);
    std::memcpy(vendor + 8, &d, 4);
    hyper = vendor[0] ? vendor : "present";
  }
#endif
  return {model, hyper};
}

/// A JSON object built field by field (appends only: GCC 12 flags
/// `"literal" + std::string` with a false -Wrestrict).
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += json_str(key);
    out_ += ':';
    out_ += json;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_str(v));
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, perfbench::num(v));
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string host_json(const Args& a, const Shape& sh, int nproc) {
  const auto [model, hyper] = cpu_identity();
  JsonObject env;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("TRIOLET_", 0) != 0) continue;
    const auto eq = kv.find('=');
    env.str(kv.substr(0, eq), eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  return JsonObject()
      .num("nproc", nproc)
      .str("cpu_model", model)
      .str("hypervisor", hyper)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("git_sha", a.git_sha)
      .raw("triolet_env", env.done())
      .str("workload", a.workload)
      .num("ranks", sh.ranks)
      .num("workers", sh.workers)
      .num("groups", sh.groups)
      .num("busy_threads", sh.busy_threads())
      .num("seed", static_cast<double>(a.seed))
      .num("seconds", a.seconds)
      .num("trace", a.trace ? 1 : 0)
      .done();
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--git-sha") a.git_sha = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload apps|sparse --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH] [--git-sha SHA]\n");
    return 2;
  }
  Report (*run)(const Args&, const Shape&) = nullptr;
  if (a.workload == "apps") run = run_apps;
  else if (a.workload == "sparse") run = run_sparse;
  else {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  const Shape shape{};  // 2 ranks x 1 worker, one job group
  const int nproc = usable_cpus();
  const std::string host = host_json(a, shape, nproc);
  std::printf("host %s\n", host.c_str());
  if (shape.busy_threads() > nproc) {
    std::fprintf(stderr,
                 "refusing workload %s: %d busy threads exceed nproc %d\n",
                 a.workload.c_str(), shape.busy_threads(), nproc);
    return 3;
  }

  thread_trace().on = a.trace;
  Report rep = run(a, shape);
  thread_trace().on = false;
  rep.add("fail_ratio", rep.tally.fail_ratio());
  rep.add("ok_ratio", rep.tally.ok_ratio());

  for (const auto& n : rep.notes) std::printf("# %s\n", n.c_str());
  for (const auto& [name, value] : rep.metrics) {
    std::printf("%-34s %.6g %s\n", name.c_str(), value, unit_of(name).c_str());
  }

  if (a.trace && !a.trace_out.empty()) {
    if (!write_chrome_trace(a.trace_out, collect_spans(), host)) {
      std::fprintf(stderr, "cannot write trace %s\n", a.trace_out.c_str());
      return 1;
    }
    std::printf("# trace written to %s\n", a.trace_out.c_str());
  }

  auto value = [&](const std::string& name) {
    double v = 0;
    for (const auto& [n, x] : rep.metrics) {
      if (n == name) v = x;
    }
    return v;
  };
  JsonObject metrics;
  const Kind kind = a.trace ? Kind::kPerLayer : Kind::kEndToEnd;
  for (const MetricDef& d : metric_schema()) {
    if (d.kind != kind) continue;
    metrics.raw(d.name,
                JsonObject().num("value", value(d.name)).str("unit", d.unit).done());
  }
  const bool correct = rep.tally.attempted > 0 && rep.tally.failed == 0;
  std::printf("%s\n", JsonObject()
                           .raw("correct", correct ? "true" : "false")
                           .num("attempted", static_cast<double>(rep.tally.attempted))
                           .num("failed", static_cast<double>(rep.tally.failed))
                           .raw("metrics", metrics.done())
                           .done()
                           .c_str());
  return 0;
}
