#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

namespace {

std::atomic<std::int64_t> g_next_id{1};
std::atomic<int> g_next_tid{0};
std::atomic<ThreadTrace*> g_threads{nullptr};

}  // namespace

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

ThreadTrace& thread_trace() {
  // Buffers live for the whole process: spans of finished rank threads stay
  // collectable after their Cluster::run returns.
  thread_local ThreadTrace* t = [] {
    auto* fresh = new ThreadTrace;
    fresh->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    fresh->next = g_threads.load(std::memory_order_relaxed);
    while (!g_threads.compare_exchange_weak(fresh->next, fresh,
                                            std::memory_order_release)) {
    }
    return fresh;
  }();
  return *t;
}

std::vector<Span> collect_spans() {
  std::vector<Span> all;
  for (ThreadTrace* t = g_threads.load(std::memory_order_acquire); t;
       t = t->next) {
    all.insert(all.end(), t->done.begin(), t->done.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(const char* name) {
  ThreadTrace& t = thread_trace();
  if (!t.on) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t.stack.empty() ? -1 : t.stack.back();
  span_.op = t.op;
  span_.rank = t.rank;
  span_.tid = t.tid;
  t.stack.push_back(span_.id);
  span_.start_ns = now_ns();
}

void ScopedSpan::add(const Counters& c) {
  if (!active_) return;
  for (const auto& [k, v] : c) span_.args[k] += v;
}

void ScopedSpan::close() {
  if (!active_) return;
  active_ = false;
  span_.end_ns = now_ns();
  ThreadTrace& t = thread_trace();
  if (!t.stack.empty() && t.stack.back() == span_.id) t.stack.pop_back();
  t.done.push_back(std::move(span_));
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
      << ",\"traceEvents\":[\n";
  // One named track per recording thread.
  std::map<int, int> track_rank;
  for (const Span& s : spans) {
    auto [it, fresh] = track_rank.emplace(s.tid, s.rank);
    if (!fresh) it->second = std::max(it->second, s.rank);
  }
  bool first = true;
  for (const auto& [tid, rank] : track_rank) {
    out << (first ? "" : ",\n") << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << (rank >= 0 ? "rank " + std::to_string(rank)
                      : "thread " + std::to_string(tid))
        << "\"}}";
    first = false;
  }
  char buf[64];
  for (const Span& s : spans) {
    out << (first ? "" : ",\n");
    first = false;
    std::snprintf(buf, sizeof buf, "%.3f",
                  1e-3 * static_cast<double>(s.start_ns - t0));
    out << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid
        << ",\"name\":" << json_str(s.name) << ",\"cat\":" << json_str(s.layer())
        << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f",
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    out << ",\"dur\":" << buf << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"rank\":" << s.rank;
    for (const auto& [k, v] : s.args) {
      std::snprintf(buf, sizeof buf, "%.9g", v);
      out << "," << json_str(k) << ":" << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
