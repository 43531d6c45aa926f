#pragma once

// In-memory span recorder for the traced run. Spans are placed only by the
// benchmark's own code, around its calls into each layer's public
// functions; nothing inside the library is instrumented.
//
// Each thread appends to its own buffer (no lock on the hot path); the
// buffers are merged once, after the workload, and written as Chrome Trace
// Event JSON (opens in Perfetto / chrome://tracing). When tracing is off a
// ScopedSpan costs one thread-local load and branch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread recording state. `on` gates recording; `rank` and `op` tag
/// every span the thread records.
struct ThreadTrace {
  bool on = false;
  int tid = 0;  // registration order: one Chrome trace track per thread
  int rank = -1;
  std::int64_t op = -1;
  std::vector<Span> done;
  std::vector<std::int64_t> stack;  // ids of open spans
  ThreadTrace* next = nullptr;      // global list of thread buffers
};

ThreadTrace& thread_trace();

/// All spans recorded so far by every thread (call after recording threads
/// have finished or are quiescent).
std::vector<Span> collect_spans();

/// `s` as a quoted JSON string: quotes and backslashes escaped, control
/// characters dropped.
std::string json_str(const std::string& s);

/// Writes `spans` as Chrome Trace Event JSON; `metadata_json` is a JSON
/// object stored under "metadata". Returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json);

/// Records one span on the calling thread when its tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  /// Attaches counter deltas (ignored when inactive).
  void add(const Counters& c);
  /// Ends the span now (idempotent; the destructor calls it).
  void close();

 private:
  bool active_ = false;
  Span span_;
};

}  // namespace perfbench
