// Tests for the cluster simulator: trace replay semantics (compute, message
// latency/bandwidth, NIC serialization, FIFO matching, deadlock detection)
// and the intra-node schedulers and straggler model.

#include <gtest/gtest.h>

#include <cmath>

#include <numeric>

#include "net/comm.hpp"
#include "sim/network_model.hpp"
#include "sim/schedule.hpp"
#include "sim/trace.hpp"

namespace triolet::sim {
namespace {

NetworkModel simple_net() {
  NetworkModel n;
  n.latency = 1.0;        // big round numbers: results checkable by hand
  n.bandwidth = 100.0;    // bytes per second
  n.fixed_overhead = 0.0;
  n.copy_cost_per_byte = 0.0;
  return n;
}

TEST(Simulate, ComputeOnlyMakespanIsMaxOverRanks) {
  SimTrace t(3);
  t.compute(0, 1.0);
  t.compute(1, 5.0);
  t.compute(2, 2.0);
  auto r = simulate(t, simple_net());
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.rank_finish[0], 1.0);
  EXPECT_DOUBLE_EQ(r.rank_finish[1], 5.0);
}

TEST(Simulate, MessageArrivesAfterLatencyPlusTransfer) {
  SimTrace t(2);
  t.send(0, 1, 200);  // 1s latency + 2s transfer
  t.recv(1, 0);
  auto r = simulate(t, simple_net());
  EXPECT_DOUBLE_EQ(r.rank_finish[1], 3.0);
  EXPECT_DOUBLE_EQ(r.total_bytes, 200.0);
}

TEST(Simulate, ReceiverWaitsForComputeToFinishFirst) {
  SimTrace t(2);
  t.send(0, 1, 100);   // arrives at t=2
  t.compute(1, 10.0);  // receiver busy until t=10
  t.recv(1, 0);
  auto r = simulate(t, simple_net());
  EXPECT_DOUBLE_EQ(r.rank_finish[1], 10.0);  // message already waiting
}

TEST(Simulate, SenderNicSerializesBackToBackMessages) {
  // Two 200-byte messages from rank 0: the second transfer cannot start
  // until the first leaves the NIC, so arrivals are 3s and 5s.
  SimTrace t(3);
  t.send(0, 1, 200);
  t.send(0, 2, 200);
  t.recv(1, 0);
  t.recv(2, 0);
  auto r = simulate(t, simple_net());
  EXPECT_DOUBLE_EQ(r.rank_finish[1], 3.0);
  EXPECT_DOUBLE_EQ(r.rank_finish[2], 5.0);
}

TEST(Simulate, SendBusyCostsChargeTheSender) {
  NetworkModel n = simple_net();
  n.fixed_overhead = 0.5;
  n.copy_cost_per_byte = 0.01;
  n.alloc_multiplier = 2.0;
  // Neutralize the protocol split so this test isolates the endpoint-cost
  // accounting (rendezvous: single copy pass, and no handshake charge).
  n.eager_threshold_bytes = 0;
  n.rendezvous_handshake = 0.0;
  SimTrace t(2);
  t.send(0, 1, 100);  // sender busy: 0.5 + 100*0.01*2 = 2.5
  t.recv(1, 0);
  auto r = simulate(t, n);
  EXPECT_DOUBLE_EQ(r.rank_finish[0], 2.5);
  // arrival = 2.5 + 1 latency + 1 transfer; recv busy = 0.5 + 100*0.01*2
  // (deserialization allocates, so the allocator model applies there too).
  EXPECT_DOUBLE_EQ(r.rank_finish[1], 4.5 + 2.5);
}

TEST(Simulate, FifoMatchingBetweenPairs) {
  SimTrace t(2);
  t.send(0, 1, 100);
  t.compute(0, 50.0);
  t.send(0, 1, 100);
  t.recv(1, 0);  // must match the first (t=2), not the second
  auto r = simulate(t, simple_net());
  EXPECT_DOUBLE_EQ(r.rank_finish[1], 2.0);
}

TEST(Simulate, RecvBeforeSendInProgramOrderStillResolves) {
  // Rank 1 posts its recv "first"; the fixpoint loop must complete it once
  // rank 0's send is simulated.
  SimTrace t(2);
  t.recv(1, 0);
  t.compute(0, 7.0);
  t.send(0, 1, 100);
  auto r = simulate(t, simple_net());
  EXPECT_DOUBLE_EQ(r.rank_finish[1], 9.0);
}

TEST(Simulate, PingPongAccumulatesLatency) {
  SimTrace t(2);
  t.send(0, 1, 0);
  t.recv(1, 0);
  t.send(1, 0, 0);
  t.recv(0, 1);
  auto r = simulate(t, simple_net());
  EXPECT_DOUBLE_EQ(r.rank_finish[0], 2.0);  // two 1s-latency hops
}

TEST(SimulateDeath, DeadlockIsDetected) {
  SimTrace t(2);
  t.recv(0, 1);
  t.recv(1, 0);
  EXPECT_DEATH((void)simulate(t, simple_net()), "deadlock");
}

TEST(Simulate, MasterBottleneckGrowsWithWorkers) {
  // A flat farm: master sends 1000 bytes to each worker. With NIC
  // serialization, the last worker's arrival grows linearly — the Eden
  // master bottleneck the paper's two-level distribution avoids.
  auto last_arrival = [&](int workers) {
    SimTrace t(workers + 1);
    for (int w = 1; w <= workers; ++w) t.send(0, w, 1000);
    for (int w = 1; w <= workers; ++w) t.recv(w, 0);
    return simulate(t, simple_net()).makespan;
  };
  double a4 = last_arrival(4);
  double a8 = last_arrival(8);
  EXPECT_GT(a8, a4 + 30.0);  // each extra message adds 10s transfer
}

TEST(Schedulers, SingleWorkerIsTotalWork) {
  std::vector<double> tasks{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(makespan_dynamic(tasks, 1), 10.0);
  EXPECT_DOUBLE_EQ(makespan_static_block(tasks, 1), 10.0);
  EXPECT_DOUBLE_EQ(total_work(tasks), 10.0);
}

TEST(Schedulers, DynamicBalancesUnevenTasks) {
  // One long task plus many short ones: dynamic overlaps them.
  std::vector<double> tasks{8, 1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(makespan_dynamic(tasks, 2), 8.0);
  // Static contiguous blocks put the long task plus neighbors together.
  EXPECT_GT(makespan_static_block(tasks, 2), 8.0 + 2.0);
}

TEST(Schedulers, MakespanBounds) {
  // List scheduling is within 2x of the trivial lower bounds.
  std::vector<double> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back(1.0 + (i % 7));
  for (int w : {1, 2, 4, 16}) {
    double m = makespan_dynamic(tasks, w);
    double lower = std::max(total_work(tasks) / w, 7.0);
    EXPECT_GE(m, lower);
    EXPECT_LE(m, 2.0 * lower);
  }
}

TEST(Schedulers, CostVariationMeasuresSkew) {
  // Degenerate profiles carry no signal.
  EXPECT_DOUBLE_EQ(cost_variation({}), 0.0);
  EXPECT_DOUBLE_EQ(cost_variation({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(cost_variation({2.0, 2.0, 2.0, 2.0}), 0.0);
  // {1,1,1,9}: mean 3, population sd sqrt(12) -> cv = 2/sqrt(3).
  EXPECT_NEAR(cost_variation({1, 1, 1, 9}), 2.0 / std::sqrt(3.0), 1e-12);
  // Scale invariance: cv is a shape property, not a magnitude.
  EXPECT_NEAR(cost_variation({10, 10, 10, 90}),
              cost_variation({1, 1, 1, 9}), 1e-12);
}

TEST(Schedulers, PowerLawAtomsRewardDemandOverStatic) {
  // The segmented-matvec shape: the jumbo segment groups cluster (sorted
  // degree order, the common CSR layout), so one worker's contiguous
  // static block absorbs most of the heavy atoms. The skew shows up in
  // cost_variation, and the same profile is exactly where static blocks
  // lose to demand claiming — the model-side statement of the bm_sparse
  // acceptance ratio.
  std::vector<double> atoms(128);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    atoms[i] = (i < 8) ? 20e-3 : 0.5e-3;
  }
  EXPECT_GT(cost_variation(atoms), 1.0);
  const double dyn = makespan_dynamic(atoms, 8);
  const double sta = makespan_static_block(atoms, 8);
  EXPECT_GE(sta / dyn, 1.4);
}

TEST(Stragglers, DisabledModelIsIdentity) {
  StragglerModel m;  // probability 0
  std::vector<double> tasks{1, 2, 3};
  EXPECT_EQ(m.apply(tasks, 1), tasks);
}

TEST(Stragglers, AreDeterministicPerSalt) {
  StragglerModel m{0.3, 4.0, 42};
  std::vector<double> tasks(100, 1.0);
  auto a = m.apply(tasks, 7);
  auto b = m.apply(tasks, 7);
  EXPECT_EQ(a, b);
  auto c = m.apply(tasks, 8);
  EXPECT_NE(a, c);
}

TEST(Stragglers, HitRateTracksProbability) {
  StragglerModel m{0.25, 4.0, 123};
  std::vector<double> tasks(10000, 1.0);
  auto out = m.apply(tasks, 1);
  int slowed = 0;
  for (double d : out) slowed += (d > 1.5);
  EXPECT_NEAR(slowed / 10000.0, 0.25, 0.03);
}

TEST(NetworkModel, AllocThresholdGatesMultiplier) {
  NetworkModel n;
  n.fixed_overhead = 0.0;
  n.copy_cost_per_byte = 1.0;
  n.alloc_multiplier = 3.0;
  n.alloc_threshold_bytes = 100;
  n.eager_threshold_bytes = 0;  // isolate the allocator gate from the
                                // eager bounce-buffer copy
  EXPECT_DOUBLE_EQ(n.send_busy(10), 10.0);    // small message: no GC cost
  EXPECT_DOUBLE_EQ(n.send_busy(100), 300.0);  // at threshold: multiplied
  EXPECT_DOUBLE_EQ(n.recv_busy(200), 600.0);
}

TEST(NetworkModel, EagerRendezvousSplit) {
  NetworkModel n;
  n.latency = 1.0;
  n.bandwidth = 1.0;  // 1 byte/s so flight is latency + bytes
  n.fixed_overhead = 0.0;
  n.copy_cost_per_byte = 1.0;
  n.eager_threshold_bytes = 100;
  n.rendezvous_handshake = 7.0;
  // Eager: double copy (staging into the bounce buffer), no handshake.
  EXPECT_TRUE(n.is_eager(100));
  EXPECT_DOUBLE_EQ(n.send_busy(100), 200.0);
  EXPECT_DOUBLE_EQ(n.flight(100), 101.0);
  // Rendezvous: single copy out of the source buffer, but the RTS/CTS
  // round trip is charged before bytes move.
  EXPECT_FALSE(n.is_eager(101));
  EXPECT_DOUBLE_EQ(n.send_busy(101), 101.0);
  EXPECT_DOUBLE_EQ(n.flight(101), 1.0 + 7.0 + 101.0);
  // With the *default* (realistic) constants the protocol switch must not
  // make a message cheaper end-to-end right at the boundary: the RTS/CTS
  // handshake costs more than the bounce-buffer copy it saves, so total
  // cost stays monotone in message size.
  NetworkModel d;
  const std::int64_t at = d.eager_threshold_bytes;
  const double eager_total = d.send_busy(at) + d.flight(at) + d.recv_busy(at);
  const double rz_total =
      d.send_busy(at + 1) + d.flight(at + 1) + d.recv_busy(at + 1);
  EXPECT_GT(rz_total, eager_total);
}

TEST(MachineConfig, TotalCores) {
  MachineConfig m;
  m.nodes = 8;
  m.cores_per_node = 16;
  EXPECT_EQ(m.total_cores(), 128);
}

// -- demand-driven (request/grant) makespan model -----------------------------

TEST(DemandMakespan, ZeroOverheadEqualsDynamic) {
  std::vector<double> tasks{3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  for (int w : {1, 2, 4, 8}) {
    EXPECT_DOUBLE_EQ(makespan_demand(tasks, w, 0.0),
                     makespan_dynamic(tasks, w));
  }
}

TEST(DemandMakespan, OverheadChargesEveryClaim) {
  // One worker runs all chunks back to back: makespan is total work plus
  // one control round trip per chunk.
  std::vector<double> tasks{1, 2, 3};
  EXPECT_DOUBLE_EQ(makespan_demand(tasks, 1, 0.5),
                   total_work(tasks) + 3 * 0.5);
}

TEST(DemandMakespan, FineGrainsPayMoreOverheadThanCoarse) {
  // The guided-vs-dynamic tradeoff in miniature: the same work split into
  // 100 chunks pays 100 round trips, split into 10 chunks only 10. With
  // enough overhead the fine split loses despite perfect balance.
  std::vector<double> fine(100, 0.01);
  std::vector<double> coarse(10, 0.1);
  const double oh = 0.05;
  EXPECT_GT(makespan_demand(fine, 4, oh), makespan_demand(coarse, 4, oh));
}

TEST(DemandMakespan, EmptyChunkListIsZero) {
  EXPECT_DOUBLE_EQ(makespan_demand({}, 4, 1.0), 0.0);
}

TEST(OverlapMakespan, ZeroOverheadEqualsDynamic) {
  std::vector<double> tasks{3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  for (int w : {1, 2, 4, 8}) {
    EXPECT_DOUBLE_EQ(makespan_overlap(tasks, w, 0.0),
                     makespan_dynamic(tasks, w));
  }
}

TEST(OverlapMakespan, HidesRoundTripBehindLongChunks) {
  // Every chunk runs at least as long as the round trip, so only the first
  // claim pays overhead: prefetched grants are always ready on time.
  std::vector<double> tasks{1, 2, 3};
  const double oh = 0.5;
  EXPECT_DOUBLE_EQ(makespan_overlap(tasks, 1, oh), oh + total_work(tasks));
}

TEST(OverlapMakespan, ShortChunksStillWaitForTheGrant) {
  // Chunks shorter than the round trip cannot hide it fully: each next
  // start is gated by the prefetched grant's arrival, not by the compute.
  std::vector<double> tasks(5, 0.01);
  const double oh = 1.0;
  EXPECT_DOUBLE_EQ(makespan_overlap(tasks, 1, oh), 5 * oh + 0.01);
}

TEST(OverlapMakespan, NeverWorseThanDemand) {
  std::vector<double> tasks;
  for (int i = 0; i < 40; ++i) tasks.push_back(0.01 * (i % 7) + 0.002);
  for (int w : {1, 2, 4, 8}) {
    for (double oh : {0.0, 0.001, 0.01, 0.1}) {
      EXPECT_LE(makespan_overlap(tasks, w, oh) - 1e-12,
                makespan_demand(tasks, w, oh))
          << "w=" << w << " oh=" << oh;
    }
  }
}

TEST(OverlapMakespan, EmptyChunkListIsZero) {
  EXPECT_DOUBLE_EQ(makespan_overlap({}, 4, 1.0), 0.0);
}

TEST(DemandMakespan, SkewedChunksBeatStaticBlocks) {
  // Triangular workload (tpacf-style): static blocks leave the last worker
  // with the heaviest block; demand claiming balances it.
  std::vector<double> tasks(64);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = static_cast<double>(i + 1);
  }
  const double demand = makespan_demand(tasks, 8, 0.0);
  const double stat = makespan_static_block(tasks, 8);
  EXPECT_LT(demand * 1.3, stat);
}

// -- measured-counter calibration (sim::calibrate_from) -----------------------

/// Counters of a synthetic demand-scheduled round with exactly known
/// coefficients: `items` outer units at `spi` seconds each, executed as
/// `chunks` uniform grants of `bytes_per_grant` payload, every claim first
/// waiting the full `rt` round trip.
net::CommStats synthetic_round(std::int64_t items, std::int64_t chunks,
                               double spi, double rt,
                               std::int64_t bytes_per_grant) {
  net::CommStats s;
  s.sched.items_executed = items;
  s.sched.chunks_executed = chunks;
  s.sched.busy_seconds = static_cast<double>(items) * spi;
  s.sched.steal_waits = chunks;
  s.sched.idle_seconds = static_cast<double>(chunks) * rt;
  s.sched.grants_received = chunks;
  s.sched.grant_payload_bytes = chunks * bytes_per_grant;
  s.sched.granted_items = items;
  return s;
}

TEST(Calibration, RecoversCoefficientsFromSyntheticCounters) {
  const double spi = 1e-6, rt = 1e-3;
  auto s = synthetic_round(8000, 80, spi, rt, 1000);
  s.pool.tasks_executed = 4 * 8000;

  const Calibration c = calibrate_from(s, s.sched, s.pool);
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.items, 8000);
  EXPECT_DOUBLE_EQ(c.seconds_per_item, spi);
  EXPECT_DOUBLE_EQ(c.round_trip_seconds, rt);
  EXPECT_DOUBLE_EQ(c.grant_bytes_per_item, 10.0);  // 80 * 1000 / 8000
  EXPECT_DOUBLE_EQ(c.tasks_per_item, 4.0);
  // No measured traffic: the per-byte coefficient stays at its default.
  EXPECT_DOUBLE_EQ(c.seconds_per_grant_byte, kDefaultSecondsPerGrantByte);
  // Mean chunk is 1e-4 s, so the service share is half that (below rt) and
  // the wire latency is the remainder of the round trip.
  EXPECT_DOUBLE_EQ(c.service_delay_seconds, 0.5e-4);
  EXPECT_DOUBLE_EQ(c.latency_seconds,
                   rt - 0.5e-4 - 1000.0 * c.seconds_per_grant_byte);
}

TEST(Calibration, ByteCoefficientTracksZeroCopyShare) {
  net::CommStats s;
  s.sched.items_executed = 1;
  s.sched.busy_seconds = 1.0;
  s.bytes_sent = 1000;

  s.bytes_copied = 0;  // all zero-copy: one pass over the payload
  EXPECT_DOUBLE_EQ(calibrate_from(s, s.sched, s.pool).seconds_per_grant_byte,
                   0.25e-9);
  s.bytes_copied = 1000;  // all staged: two passes
  EXPECT_DOUBLE_EQ(calibrate_from(s, s.sched, s.pool).seconds_per_grant_byte,
                   0.5e-9);
  s.bytes_copied = 500;  // interpolates
  EXPECT_DOUBLE_EQ(calibrate_from(s, s.sched, s.pool).seconds_per_grant_byte,
                   0.375e-9);
}

TEST(Calibration, StaticRoundLeavesLatencyFieldsUnset) {
  // A kStatic round has no request/grant traffic: compute and byte
  // coefficients are still usable, the latency decomposition is not (the
  // tuner carries the previous round's figures forward).
  net::CommStats s;
  s.sched.items_executed = 500;
  s.sched.busy_seconds = 0.05;
  const Calibration c = calibrate_from(s, s.sched, s.pool);
  ASSERT_TRUE(c.valid());
  EXPECT_DOUBLE_EQ(c.seconds_per_item, 1e-4);
  EXPECT_DOUBLE_EQ(c.round_trip_seconds, 0.0);
  EXPECT_DOUBLE_EQ(c.service_delay_seconds, 0.0);
  EXPECT_DOUBLE_EQ(c.latency_seconds, 0.0);
}

TEST(Calibration, NothingMeasuredIsInvalid) {
  net::CommStats s;
  EXPECT_FALSE(calibrate_from(s, s.sched, s.pool).valid());
}

TEST(Calibration, RoundTripReproducesMeasuredMakespan) {
  // The acceptance loop in miniature: synthesize the trace of a demand
  // round with known coefficients, calibrate from its counters alone, then
  // ask the calibrated model for the makespan of the very configuration
  // that ran — it must reproduce the measured wall time.
  const std::int64_t items = 8000, chunks = 80;
  const std::int64_t bytes_per_grant = 1000;
  const double spi = 1e-6, rt = 1e-3;
  const int workers = 4;
  const double chunk_seconds = spi * 100.0;  // 100 items per chunk
  // Each worker claims 20 chunks back to back; every claim pays the full
  // round trip (no prefetch in the measurement configuration).
  const double measured_wall = 20.0 * (rt + chunk_seconds);

  const auto s = synthetic_round(items, chunks, spi, rt, bytes_per_grant);
  const Calibration c = calibrate_from(s, s.sched, s.pool);
  ASSERT_TRUE(c.valid());

  // overhead_for re-assembles latency + payload bytes + root service into
  // exactly the measured round trip.
  const double oh =
      c.overhead_for(static_cast<double>(bytes_per_grant), chunk_seconds);
  EXPECT_NEAR(oh, rt, 1e-12);

  std::vector<double> model_chunks(
      static_cast<std::size_t>(chunks),
      100.0 * c.seconds_per_item);
  const double predicted = makespan_demand(model_chunks, workers, oh);
  EXPECT_NEAR(predicted, measured_wall, 1e-9 * measured_wall);
}

TEST(GrantOverhead, PricesTheFullRoundTrip) {
  NetworkModel net;
  const double oh = grant_overhead(net, 1, 25);
  // Two flights plus four endpoint costs; must exceed two bare latencies
  // and stay well under a millisecond for control-sized messages.
  EXPECT_GT(oh, 2 * net.latency);
  EXPECT_LT(oh, 1e-3);
  // Bigger grants cost more (payload bytes ride the same round trip).
  EXPECT_GT(grant_overhead(net, 1, 1 << 20), oh);
}

}  // namespace
}  // namespace triolet::sim
