// Layer probes shared by every workload's traced run. They run after the
// workload's ops, never inside a timed end-to-end run.

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "serial/checksum.hpp"
#include "support/timing.hpp"

namespace perfbench {

/// serial::checksum throughput on a slice the size of one sparse rank's
/// resident block: the work every cache hit repeats to validate the slice.
void probe_serial_checksum(Report& r) {
  std::vector<std::byte> buf(sparse_resident_block_bytes());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  }
  std::uint64_t sink = 0;
  double secs = 0;
  constexpr int kReps = 10;
  for (int i = 0; i < kReps; ++i) {
    triolet::Stopwatch sw;
    sink += triolet::serial::checksum(buf);
    secs += sw.seconds();
  }
  r.add("serial.checksum_gbps",
        1e-9 * static_cast<double>(buf.size()) * kReps / secs);
  if (sink == 0) r.notes.push_back("checksum probe: zero digest");
}

/// Mean latency of an 8-byte allreduce on 2 ranks x 1 worker.
void probe_allreduce(Report& r) {
  constexpr int kWarm = 200, kCalls = 4000;
  double secs = 0;
  auto res = triolet::net::Cluster::run(2, [&](triolet::net::Comm& comm) {
    triolet::dist::NodeRuntime node(1);
    auto plus = [](double a, double b) { return a + b; };
    double v = 1.0 + comm.rank();
    for (int i = 0; i < kWarm; ++i) v = comm.allreduce(v, plus) * 0.5;
    comm.barrier();
    triolet::Stopwatch sw;
    for (int i = 0; i < kCalls; ++i) v = comm.allreduce(v, plus) * 0.5;
    if (comm.rank() == 0) secs = sw.seconds();
  });
  r.add("net.allreduce_8b_s", res.ok ? secs / kCalls : 0.0);
}

}  // namespace perfbench
