#include "apps/driver.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/macros.hpp"
#include "support/timing.hpp"

namespace triolet::apps {

namespace {

/// Contiguous unit ranges [lo, hi) for k blocks over U units.
std::pair<index_t, index_t> block_range(index_t units, int k, int i) {
  return {units * i / k, units * (i + 1) / k};
}

std::vector<double> slice_units(const std::vector<double>& ts, index_t lo,
                                index_t hi) {
  return {ts.begin() + static_cast<std::ptrdiff_t>(lo),
          ts.begin() + static_cast<std::ptrdiff_t>(hi)};
}

ScalePoint simulate_two_level(const MeasuredSystem& ms, int nodes, int cores) {
  const index_t units = static_cast<index_t>(ms.unit_seconds.size());
  sim::SimTrace trace(std::max(nodes, 1));

  const double prep =
      ms.prep_parallelizable ? ms.root_prep_seconds / cores : ms.root_prep_seconds;
  trace.compute(0, prep);

  std::vector<double> node_makespans(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) {
    auto [lo, hi] = block_range(units, nodes, r);
    auto ts = slice_units(ms.unit_seconds, lo, hi);
    node_makespans[static_cast<std::size_t>(r)] =
        ms.cyclic_sched ? sim::makespan_static_cyclic(ts, cores)
        : ms.static_sched ? sim::makespan_static_block(ts, cores)
                          : sim::makespan_dynamic(ts, cores);
    if (r != 0) {
      trace.send(0, r, ms.input_bytes_by_part
                           ? ms.input_bytes_by_part(r, nodes)
                           : ms.input_bytes(lo, hi));
    }
  }
  trace.compute(0, node_makespans[0]);
  for (int r = 1; r < nodes; ++r) {
    auto [lo, hi] = block_range(units, nodes, r);
    trace.recv(0, r);
    trace.compute(0, ms.combine_seconds ? ms.combine_seconds(lo, hi) : 0.0);
  }
  for (int r = 1; r < nodes; ++r) {
    auto [lo, hi] = block_range(units, nodes, r);
    trace.recv(r, 0);
    trace.compute(r, node_makespans[static_cast<std::size_t>(r)]);
    trace.send(r, 0, ms.result_bytes ? ms.result_bytes(lo, hi) : 0);
  }

  auto res = sim::simulate(trace, ms.net);
  return ScalePoint{nodes * cores, res.makespan};
}

ScalePoint simulate_flat_farm(const MeasuredSystem& ms, int total_cores) {
  const index_t units = static_cast<index_t>(ms.unit_seconds.size());
  if (total_cores <= 1) {
    double t = ms.root_prep_seconds;
    for (double u : ms.unit_seconds) t += u;
    return ScalePoint{1, t};
  }
  const int w = total_cores - 1;  // master coordinates, workers compute

  // Eden's runtime buffers every in-flight message; a fixed pool overflows
  // when the aggregate task data exceeds it (paper §4.3).
  auto worker_input = [&](int i) {
    if (ms.input_bytes_by_part) return ms.input_bytes_by_part(i, w);
    auto [lo, hi] = block_range(units, w, i);
    return ms.input_bytes(lo, hi);
  };

  if (ms.buffer_capacity > 0) {
    std::int64_t in_flight = 0;
    for (int i = 0; i < w; ++i) in_flight += worker_input(i);
    if (in_flight > ms.buffer_capacity) {
      return ScalePoint{total_cores, std::nan("")};
    }
  }

  sim::SimTrace trace(w + 1);
  trace.compute(0, ms.root_prep_seconds);  // no shared memory: serial prep
  for (int i = 0; i < w; ++i) {
    trace.send(0, i + 1, worker_input(i));
  }
  for (int i = 0; i < w; ++i) {
    auto ts = ms.straggler.apply(
        slice_units(ms.unit_seconds, block_range(units, w, i).first,
                    block_range(units, w, i).second),
        static_cast<std::uint64_t>(total_cores) * 1000 +
            static_cast<std::uint64_t>(i));
    double t = sim::total_work(ts);
    trace.recv(i + 1, 0);
    trace.compute(i + 1, t);
    auto [lo, hi] = block_range(units, w, i);
    trace.send(i + 1, 0, ms.result_bytes ? ms.result_bytes(lo, hi) : 0);
  }
  for (int i = 0; i < w; ++i) {
    auto [lo, hi] = block_range(units, w, i);
    trace.recv(0, i + 1);
    trace.compute(0, ms.combine_seconds ? ms.combine_seconds(lo, hi) : 0.0);
  }

  auto res = sim::simulate(trace, ms.net);
  return ScalePoint{total_cores, res.makespan};
}

}  // namespace

ScalePoint simulate_point(const MeasuredSystem& ms, int nodes,
                          int cores_per_node) {
  TRIOLET_CHECK(nodes >= 1 && cores_per_node >= 1, "bad machine shape");
  if (ms.flat) {
    return simulate_flat_farm(ms, nodes * cores_per_node);
  }
  return simulate_two_level(ms, nodes, cores_per_node);
}

std::vector<std::pair<int, int>> standard_machine_points(int max_nodes,
                                                         int cores_per_node) {
  std::vector<std::pair<int, int>> pts;
  for (int c = 1; c <= cores_per_node; c *= 2) {
    pts.push_back({1, c});
  }
  if (pts.empty() || pts.back().second != cores_per_node) {
    pts.push_back({1, cores_per_node});
  }
  for (int n = 2; n <= max_nodes; n += 2) {
    pts.push_back({n, cores_per_node});
  }
  return pts;
}

ScalingSeries run_series(const MeasuredSystem& ms, int max_nodes,
                         int cores_per_node) {
  ScalingSeries out;
  out.name = ms.name;
  out.glyph = ms.glyph;
  for (auto [n, c] : standard_machine_points(max_nodes, cores_per_node)) {
    out.points.push_back(simulate_point(ms, n, c));
  }
  return out;
}

namespace {

/// When TRIOLET_CSV_DIR is set, figures also land as CSV for plotting.
void maybe_write_csv(const std::string& title, double seq_c_seconds,
                     const std::vector<ScalingSeries>& series) {
  const char* dir = std::getenv("TRIOLET_CSV_DIR");
  if (dir == nullptr || series.empty()) return;
  std::string fname;
  for (char c : title) {
    fname.push_back(std::isalnum(static_cast<unsigned char>(c))
                        ? static_cast<char>(std::tolower(c))
                        : '_');
  }
  std::ofstream out(std::string(dir) + "/" + fname + ".csv");
  out << "cores";
  for (const auto& s : series) {
    out << "," << s.name << "_seconds," << s.name << "_speedup";
  }
  out << "\n";
  for (std::size_t p = 0; p < series[0].points.size(); ++p) {
    out << series[0].points[p].cores;
    for (const auto& s : series) {
      const auto& pt = s.points[p];
      if (pt.failed()) {
        out << ",,";
      } else {
        out << "," << pt.seconds << "," << seq_c_seconds / pt.seconds;
      }
    }
    out << "\n";
  }
}

}  // namespace

void print_figure(const std::string& title, double seq_c_seconds,
                  const std::vector<ScalingSeries>& series) {
  maybe_write_csv(title, seq_c_seconds, series);
  std::vector<std::string> header{"cores"};
  for (const auto& s : series) {
    header.push_back(s.name + " time(s)");
    header.push_back(s.name + " speedup");
  }
  Table table(header);
  TRIOLET_CHECK(!series.empty(), "figure needs at least one series");
  for (std::size_t p = 0; p < series[0].points.size(); ++p) {
    std::vector<std::string> row{
        Table::num(static_cast<std::int64_t>(series[0].points[p].cores))};
    for (const auto& s : series) {
      const auto& pt = s.points[p];
      if (pt.failed()) {
        row.push_back("FAIL");
        row.push_back("-");
      } else {
        row.push_back(Table::num(pt.seconds, 5));
        row.push_back(Table::num(seq_c_seconds / pt.seconds, 2));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(title);

  AsciiChart chart(72, 20);
  {
    // Linear-speedup reference line, as in every figure of the paper.
    ChartSeries lin{"linear", '.', {}, {}};
    for (const auto& pt : series[0].points) {
      lin.xs.push_back(pt.cores);
      lin.ys.push_back(pt.cores);
    }
    chart.add(std::move(lin));
  }
  for (const auto& s : series) {
    ChartSeries cs{s.name, s.glyph, {}, {}};
    for (const auto& pt : s.points) {
      cs.xs.push_back(pt.cores);
      cs.ys.push_back(pt.failed() ? std::nan("") : seq_c_seconds / pt.seconds);
    }
    chart.add(std::move(cs));
  }
  chart.print(title + " (speedup over sequential C vs cores)");
}

void shape_check(const std::string& description, bool holds) {
  std::printf("  [%s] %s\n", holds ? "PASS" : "DEVIATION", description.c_str());
  std::fflush(stdout);
}

double final_speedup(const ScalingSeries& s, double seq_c_seconds) {
  TRIOLET_CHECK(!s.points.empty(), "empty series");
  const auto& pt = s.points.back();
  return pt.failed() ? std::nan("") : seq_c_seconds / pt.seconds;
}

double seq_equivalent_seconds(const MeasuredSystem& ms) {
  double t = ms.root_prep_seconds;
  for (double u : ms.unit_seconds) t += u;
  return t;
}

double measure_seconds(const std::function<void()>& fn, int repeats) {
  // Minimum over repeats: any other sample may include preemption noise;
  // the minimum is the cleanest estimate of the code cost.
  return time_fn(fn, repeats, 1).min;
}

std::vector<double> measure_units(
    index_t units, const std::function<void(index_t)>& run_unit, int passes) {
  TRIOLET_CHECK(passes >= 1, "need at least one measurement pass");
  std::vector<double> out(static_cast<std::size_t>(units), 1e300);
  for (int pass = 0; pass < passes; ++pass) {
    for (index_t u = 0; u < units; ++u) {
      Stopwatch sw;
      run_unit(u);
      auto& best = out[static_cast<std::size_t>(u)];
      best = std::min(best, sw.seconds());
    }
  }
  return out;
}

}  // namespace triolet::apps
