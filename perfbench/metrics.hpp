#pragma once

// The benchmark's own arithmetic, kept free of the library so it can be
// unit-tested on its own (test_metrics.cpp):
//
//   percentiles   nearest-rank, with the tail rule: a percentile q is
//                 reported only when at least kMinTailSamples samples lie
//                 beyond it (n * (1 - q) >= 10), so a p90 needs 100 samples;
//   spans         one timed call into a layer, with its parent and the
//                 counter deltas measured around it; a span's self time is
//                 its duration minus its children's durations;
//   counters      named deltas; per-op values sum the ranks' spans of one
//                 op, then average over ops;
//   tally         ops attempted vs failed (wrong, failed or refused). A
//                 failure never leaves the denominator.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

// -- percentiles -------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least q * n samples
/// at or below it. q in (0, 1]; xs must be non-empty.
inline double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()) - 1e-9);
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

inline constexpr std::size_t kMinTailSamples = 10;

/// True when n samples leave at least kMinTailSamples beyond percentile q.
inline bool tail_reportable(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >=
         static_cast<double>(kMinTailSamples);
}

/// percentile(xs, q) under the tail rule; nullopt when too few samples.
inline std::optional<double> tail_percentile(const std::vector<double>& xs,
                                             double q) {
  if (xs.empty() || !tail_reportable(xs.size(), q)) return std::nullopt;
  return percentile(xs, q);
}

// -- counters ----------------------------------------------------------------

using Counters = std::map<std::string, double>;

/// after - before, name by name (a name missing on one side counts as 0).
inline Counters delta(const Counters& after, const Counters& before) {
  Counters d = after;
  for (const auto& [k, v] : before) d[k] -= v;
  return d;
}

/// Sums the per-rank deltas of one op.
inline Counters sum_over_ranks(const std::vector<Counters>& per_rank) {
  Counters out;
  for (const auto& c : per_rank) {
    for (const auto& [k, v] : c) out[k] += v;
  }
  return out;
}

// -- spans -------------------------------------------------------------------

/// One timed call into a layer. `name` is "<layer>.<call>". Times are
/// nanoseconds on one steady clock; parent is -1 for a root span; op is -1
/// outside any measured op; rank is -1 off the rank threads.
struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t op = -1;
  int rank = -1;
  int tid = 0;    // recording thread
  Counters args;  // counter deltas measured at the span's boundaries

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Self time of every span, in seconds, index-aligned with `spans`: the
/// span's duration minus its children's durations. Spans nest through each
/// thread's own stack, so children never overlap and never outlast their
/// parent.
inline std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::int64_t> self_ns(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ns[i] += spans[i].end_ns - spans[i].start_ns;
    auto it = index.find(spans[i].parent);
    if (it != index.end()) {
      self_ns[it->second] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = 1e-9 * static_cast<double>(self_ns[i]);
  }
  return out;
}

/// Per-op view of the spans named `name`: for each op, the counter args of
/// all ranks' spans summed, plus the rank-0 (or only) span's duration under
/// the key "span_s".
inline std::map<std::int64_t, Counters> per_op(const std::vector<Span>& spans,
                                               const std::string& name) {
  std::map<std::int64_t, std::vector<Counters>> by_op;
  std::map<std::int64_t, double> dur;
  for (const Span& s : spans) {
    if (s.name != name || s.op < 0) continue;
    by_op[s.op].push_back(s.args);
    if (s.rank <= 0) dur[s.op] = s.seconds();
  }
  std::map<std::int64_t, Counters> out;
  for (auto& [op, cs] : by_op) {
    out[op] = sum_over_ranks(cs);
    out[op]["span_s"] = dur[op];
  }
  return out;
}

/// Mean over ops of each counter of per_op(); ops lacking a counter count 0.
inline Counters mean_per_op(const std::map<std::int64_t, Counters>& ops) {
  Counters out;
  if (ops.empty()) return out;
  for (const auto& [op, c] : ops) {
    for (const auto& [k, v] : c) out[k] += v;
  }
  for (auto& [k, v] : out) v /= static_cast<double>(ops.size());
  return out;
}

/// Self time per layer, summed over the spans of measured ops and divided
/// by the number of distinct ops.
inline Counters layer_self_per_op(const std::vector<Span>& spans) {
  const auto self = self_seconds(spans);
  Counters out;
  std::map<std::int64_t, bool> ops;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op < 0) continue;
    ops[spans[i].op] = true;
    out[spans[i].layer()] += self[i];
  }
  for (auto& [k, v] : out) v /= static_cast<double>(std::max<std::size_t>(1, ops.size()));
  return out;
}

// -- failure accounting ------------------------------------------------------

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// One attempted op; `ok` is false for a wrong result, a failed job or a
  /// refused submission.
  void record(bool ok) {
    attempted += 1;
    if (!ok) failed += 1;
  }
  /// failed / attempted; 1 when nothing was attempted (no evidence of any
  /// correct op).
  double fail_ratio() const {
    return attempted > 0
               ? static_cast<double>(failed) / static_cast<double>(attempted)
               : 1.0;
  }
  double ok_ratio() const { return 1.0 - fail_ratio(); }
};

}  // namespace perfbench
