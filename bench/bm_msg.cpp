// The messaging data plane (net/ring_transport.hpp), three traffic shapes:
//
//   storm      many-to-one small-message storm at P ranks: every non-root
//              rank fires a burst of tiny messages at rank 0, which
//              receives them round-robin by source — so the pending set is
//              deep and interleaved, the case the match table serves with a
//              hash lookup instead of an O(pending) scan. Metric: delivered
//              messages per second.
//   pingpong   two ranks bouncing one eager-sized payload: the latency
//              floor of a send/receive pair (spin-then-park wait, pooled
//              slab reuse). Metric: seconds per round trip.
//   bulk       two ranks exchanging rendezvous-sized payloads: ownership
//              handoff must make large-message cost flat per message, not
//              per byte copied twice. Metric: bytes per second.
//
// Structural checks (both modes): the storm's per-(src, tag) FIFO
// transcript equals its expected order, a kOrdered spiky sum is bitwise
// equal to the sequential left fold, eager/rendezvous counters classify the
// traffic as sized, steady-state sends are allocation-free (pool misses
// flat after warmup), and the buffer pool is balanced after every cluster
// teardown. No check depends on timing.
//
// Flags: --ranks=N --rounds=N --check (CI smoke mode: small problem, exit 1
// unless the structural checks hold). Recorded numbers are in
// bench/BENCH_msg.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_problems.hpp"
#include "net/cluster.hpp"
#include "net/pool.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

using namespace triolet;

namespace {

struct Shape {
  int ranks = bench::kNodes;
  int storm_msgs = 2000;     // messages per sender in the storm
  int pingpong_rounds = 20000;
  int bulk_rounds = 200;
  std::size_t bulk_bytes = 1 << 20;  // well past the eager threshold
};

struct StormResult {
  double seconds = 0.0;
  std::int64_t messages = 0;
  net::MsgStats msg;
  std::vector<int> transcript;  // rank 0's receive order, per-src sequences
};

/// Many-to-one storm: ranks 1..P-1 each send `n` tiny messages to rank 0 on
/// a per-source tag; rank 0 receives round-robin across sources, so nearly
/// the whole pending set sits between any receive and its match.
StormResult run_storm(int ranks, int n) {
  StormResult out;
  Stopwatch clock;
  auto res = net::Cluster::run(ranks, [&](net::Comm& c) {
    if (c.rank() != 0) {
      for (int i = 0; i < n; ++i) {
        c.send(0, 10 + c.rank(), c.rank() * 1000000 + i);
      }
      return;
    }
    out.transcript.reserve(static_cast<std::size_t>(n * (ranks - 1)));
    for (int i = 0; i < n; ++i) {
      for (int src = 1; src < ranks; ++src) {
        out.transcript.push_back(c.recv<int>(src, 10 + src));
      }
    }
    out.msg = c.snapshot_stats().msg;
  });
  out.seconds = clock.seconds();
  if (!res.ok) {
    std::fprintf(stderr, "storm failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  out.messages = static_cast<std::int64_t>(n) * (ranks - 1);
  out.msg = res.total_stats.msg;
  return out;
}

/// Two-rank eager ping-pong; returns seconds per round trip.
double run_pingpong(int rounds) {
  Stopwatch clock;
  auto res = net::Cluster::run(2, [&](net::Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<std::byte> ball(256);
    for (int i = 0; i < rounds; ++i) {
      if (c.rank() == 0) {
        c.send_bytes(peer, 3, ball);
        ball = std::move(c.recv_message(peer, 3).payload).take_vector();
      } else {
        ball = std::move(c.recv_message(peer, 3).payload).take_vector();
        c.send_bytes(peer, 3, ball);
      }
    }
  });
  const double secs = clock.seconds();
  if (!res.ok) {
    std::fprintf(stderr, "pingpong failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  return secs / rounds;
}

struct BulkResult {
  double bytes_per_second = 0.0;
  net::MsgStats msg;
};

/// Two-rank rendezvous exchange of `bytes`-sized payloads.
BulkResult run_bulk(int rounds, std::size_t bytes) {
  BulkResult out;
  Stopwatch clock;
  auto res = net::Cluster::run(2, [&](net::Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<std::byte> blob(bytes, std::byte{0x5A});
    for (int i = 0; i < rounds; ++i) {
      if (c.rank() == 0) {
        c.send_bytes(peer, 4, std::move(blob));
        blob = std::move(c.recv_message(peer, 4).payload).take_vector();
      } else {
        blob = std::move(c.recv_message(peer, 4).payload).take_vector();
        c.send_bytes(peer, 4, std::move(blob));
      }
    }
  });
  const double secs = clock.seconds();
  if (!res.ok) {
    std::fprintf(stderr, "bulk failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  out.bytes_per_second =
      static_cast<double>(bytes) * 2.0 * rounds / secs;  // both directions
  out.msg = res.total_stats.msg;
  return out;
}

/// Rank r's contribution to the kOrdered witness: mixed magnitudes, so any
/// reorder of the fold flips low bits.
double ordered_term(int r) { return (r + 1) * 1e-13 + r * 1e5; }

/// kOrdered witness: every rank's term gathered to rank 0, which folds them
/// left to right in rank order.
double run_ordered_sum(int ranks) {
  double out = 0.0;
  auto res = net::Cluster::run(ranks, [&](net::Comm& c) {
    const std::vector<double> terms = c.gather(ordered_term(c.rank()));
    if (c.rank() != 0) return;
    out = terms[0];
    for (std::size_t r = 1; r < terms.size(); ++r) out += terms[r];
  });
  if (!res.ok) {
    std::fprintf(stderr, "ordered failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  return out;
}

/// Steady-state allocation probe on the ring plane: pool misses must stay
/// flat once the caches are warm. Returns (misses during measured phase).
std::int64_t run_steady_state_misses(int warmup, int measured) {
  std::int64_t delta = -1;
  auto res = net::Cluster::run(2, [&](net::Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<std::byte> ball(512);
    auto ping_pong = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(peer, 3, ball);
          ball = std::move(c.recv_message(peer, 3).payload).take_vector();
        } else {
          ball = std::move(c.recv_message(peer, 3).payload).take_vector();
          c.send_bytes(peer, 3, ball);
        }
      }
    };
    ping_pong(warmup);
    c.barrier();
    const std::int64_t at_warm = c.snapshot_stats().msg.pool_misses;
    ping_pong(measured);
    c.barrier();
    if (c.rank() == 0) delta = c.snapshot_stats().msg.pool_misses - at_warm;
  });
  if (!res.ok) {
    std::fprintf(stderr, "steady-state probe failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  return delta;
}

}  // namespace

int main(int argc, char** argv) {
  Shape shape;
  bool check_only = false;
  int rounds_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ranks=", 0) == 0) {
      shape.ranks = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds_override = std::atoi(arg.c_str() + 9);
    } else if (arg == "--check") {
      check_only = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (check_only) {
    shape.storm_msgs = 300;
    shape.pingpong_rounds = 2000;
    shape.bulk_rounds = 30;
  }
  if (rounds_override > 0) shape.storm_msgs = rounds_override;

  std::printf("== bm_msg: ring data plane, %d ranks ==\n", shape.ranks);

  const std::int64_t pool_before = net::BufferPool::instance().outstanding();

  // Warm up (thread spawn paths, pool depots, first-touch).
  (void)run_storm(shape.ranks, 50);

  const StormResult storm = run_storm(shape.ranks, shape.storm_msgs);
  const double rate = storm.messages / storm.seconds;
  const double pingpong = run_pingpong(shape.pingpong_rounds);
  const BulkResult bulk = run_bulk(shape.bulk_rounds, shape.bulk_bytes);

  Table t({"storm msgs/s", "pingpong s/rt", "bulk GB/s"});
  t.add_row({Table::num(rate, 0), Table::num(pingpong, 8),
             Table::num(bulk.bytes_per_second / 1e9, 2)});
  t.print("message plane, " + std::to_string(shape.ranks) + " ranks, " +
          std::to_string(shape.storm_msgs) + " msgs/sender storm");

  // Rank 0 receives round-robin by source, so per-(src, tag) FIFO fixes
  // the whole transcript.
  std::vector<int> expected_transcript;
  for (int i = 0; i < shape.storm_msgs; ++i) {
    for (int src = 1; src < shape.ranks; ++src) {
      expected_transcript.push_back(src * 1000000 + i);
    }
  }
  const double ordered = run_ordered_sum(shape.ranks);
  double left_fold = ordered_term(0);
  for (int r = 1; r < shape.ranks; ++r) left_fold += ordered_term(r);
  const bool ordered_bitwise =
      std::memcmp(&ordered, &left_fold, sizeof(double)) == 0;
  const std::int64_t steady_misses = run_steady_state_misses(100, 400);

  bool ok = true;
  auto check = [&](const std::string& what, bool holds) {
    apps::shape_check(what, holds);
    ok = ok && holds;
  };
  check("per-(src, tag) FIFO transcript equals the expected order",
        storm.transcript == expected_transcript && !storm.transcript.empty());
  check("kOrdered spiky sum bitwise equal to the sequential left fold",
        ordered_bitwise);
  check("storm traffic classified eager on the ring plane",
        storm.msg.eager_msgs >= storm.messages);
  check("bulk traffic classified rendezvous on the ring plane",
        bulk.msg.rendezvous_msgs >= 2 * shape.bulk_rounds);
  check("steady-state sends are allocation-free (pool misses flat)",
        steady_misses == 0);
  check("buffer pool balanced after every teardown",
        net::BufferPool::instance().outstanding() == pool_before);

  // Machine-readable record (bench/BENCH_msg.json keeps a checked-in copy).
  std::printf("\n{\n");
  std::printf("  \"workload\": {\"ranks\": %d, \"storm_msgs_per_sender\": %d, "
              "\"pingpong_rounds\": %d, \"bulk_rounds\": %d, \"bulk_bytes\": "
              "%lld},\n",
              shape.ranks, shape.storm_msgs, shape.pingpong_rounds,
              shape.bulk_rounds, static_cast<long long>(shape.bulk_bytes));
  std::printf("  \"storm_msgs_per_second\": %.0f,\n", rate);
  std::printf("  \"pingpong_seconds_per_roundtrip\": %.3e,\n", pingpong);
  std::printf("  \"bulk_bytes_per_second\": %.3e,\n", bulk.bytes_per_second);
  std::printf("  \"ring_msg_counters\": {\"eager_msgs\": %lld, "
              "\"rendezvous_msgs\": %lld, \"pool_hits\": %lld, "
              "\"pool_misses\": %lld, \"ring_full_stalls\": %lld},\n",
              static_cast<long long>(storm.msg.eager_msgs),
              static_cast<long long>(storm.msg.rendezvous_msgs),
              static_cast<long long>(storm.msg.pool_hits),
              static_cast<long long>(storm.msg.pool_misses),
              static_cast<long long>(storm.msg.ring_full_stalls));
  std::printf("  \"steady_state_pool_misses\": %lld,\n",
              static_cast<long long>(steady_misses));
  std::printf("  \"ordered_result_bitwise_equal_to_left_fold\": %s\n",
              ordered_bitwise ? "true" : "false");
  std::printf("}\n");

  return ok ? 0 : 1;
}
