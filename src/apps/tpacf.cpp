#include "apps/tpacf.hpp"

#include <cmath>

#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "eden/chunked.hpp"
#include "eden/farm.hpp"
#include "eden/slowmath.hpp"
#include "runtime/parallel.hpp"
#include "support/rng.hpp"

namespace triolet::apps {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Angular-separation bin of a point pair (the `score` of Figure 6).
inline index_t score(Vec3 u, Vec3 v, index_t nbins) {
  double dot = static_cast<double>(u.x) * v.x + static_cast<double>(u.y) * v.y +
               static_cast<double>(u.z) * v.z;
  dot = std::min(1.0, std::max(-1.0, dot));
  double angle = std::acos(dot);
  auto bin = static_cast<index_t>(angle / kPi * static_cast<double>(nbins));
  return std::min(bin, nbins - 1);
}

inline index_t score_eden(Vec3 u, Vec3 v, index_t nbins) {
  double dot = static_cast<double>(u.x) * v.x + static_cast<double>(u.y) * v.y +
               static_cast<double>(u.z) * v.z;
  dot = std::min(1.0, std::max(-1.0, dot));
  double angle = eden::eden_acos(dot);
  auto bin = static_cast<index_t>(angle / kPi * static_cast<double>(nbins));
  return std::min(bin, nbins - 1);
}

/// Decodes a flattened outer index into its pair loop: which sets it
/// correlates, the fixed element u, the inner range, and the bin offset.
struct PairJob {
  const Vec3* set_b;
  Vec3 u;
  index_t lo, hi;       // inner element range in set_b
  index_t bin_offset;   // 0 = DD, nbins = DR, 2*nbins = RR
};

inline PairJob decode_job(const TpacfProblem& p, index_t g) {
  const index_t n = p.points();
  const index_t r = p.sets();
  const index_t job = g / n;
  const index_t i = g % n;
  PairJob out{};
  if (job == 0) {  // DD: unique pairs of obs
    out.set_b = p.obs.data();
    out.u = p.obs[static_cast<std::size_t>(i)];
    out.lo = i + 1;
    out.hi = n;
    out.bin_offset = 0;
  } else if (job <= r) {  // DR_j: obs x rand_j, full cross product
    const auto& rand = p.rands[static_cast<std::size_t>(job - 1)];
    out.set_b = rand.data();
    out.u = p.obs[static_cast<std::size_t>(i)];
    out.lo = 0;
    out.hi = n;
    out.bin_offset = p.nbins;
  } else {  // RR_j: unique pairs of rand_j
    const auto& rand = p.rands[static_cast<std::size_t>(job - r - 1)];
    out.set_b = rand.data();
    out.u = rand[static_cast<std::size_t>(i)];
    out.lo = i + 1;
    out.hi = n;
    out.bin_offset = 2 * p.nbins;
  }
  return out;
}

/// The Triolet pair iterator (the Figure 6 program, flattened): an indexer
/// over (job, element) whose inner loops generate that element's pair bins.
/// The problem rides along as broadcast context; inner loops hold borrowed
/// pointers into it, valid for the lifetime of the traversal on whichever
/// node runs it.
auto tpacf_iter(const TpacfProblem& p) {
  return core::concat_map_with(
      core::range(0, p.outer_size()), p,
      [](const TpacfProblem& d, index_t g) {
        PairJob job = decode_job(d, g);
        const index_t nbins = d.nbins;
        return core::map(core::range(job.lo, job.hi),
                         [job, nbins](index_t j) {
                           return job.bin_offset +
                                  score(job.u, job.set_b[j], nbins);
                         });
      });
}

/// Eden farm task: a flattened outer range plus a full copy of the problem.
struct TpacfTask {
  index_t lo = 0, hi = 0;
  TpacfProblem data;
};
TRIOLET_SERIALIZE_FIELDS(TpacfTask, lo, hi, data)

/// Eden's unfused pipeline: each outer element first *generates* its
/// collection of pair scores — materialized as a chunked list of boxed
/// vectors, the paper's "lists of 1k-element vectors" representation — and
/// the histogram then consumes that intermediate. This is the multi-stage
/// generate-then-consume structure of the pre-fusion §1 example.
std::vector<std::int64_t> tpacf_range_eden(const TpacfProblem& p, index_t lo,
                                           index_t hi) {
  std::vector<std::int64_t> h(static_cast<std::size_t>(3 * p.nbins), 0);
  for (index_t g = lo; g < hi; ++g) {
    PairJob job = decode_job(p, g);
    std::vector<index_t> generated;  // stage 1a: comprehension output
    for (index_t j = job.lo; j < job.hi; ++j) {
      generated.push_back(job.bin_offset +
                          score_eden(job.u, job.set_b[j], p.nbins));
    }
    // stage 1b: the runtime re-chunks the list into boxed 64-element blocks.
    auto chunked = eden::ChunkedArray<index_t>::from_vector(generated, 64);
    // stage 2: the histogram consumer folds over the chunked intermediate.
    chunked.for_each([&](index_t b) { h[static_cast<std::size_t>(b)]++; });
  }
  return h;
}

void tpacf_range_c(const TpacfProblem& p, index_t lo, index_t hi,
                   std::int64_t* h) {
  for (index_t g = lo; g < hi; ++g) {
    PairJob job = decode_job(p, g);
    for (index_t j = job.lo; j < job.hi; ++j) {
      h[job.bin_offset + score(job.u, job.set_b[j], p.nbins)]++;
    }
  }
}

}  // namespace

TpacfProblem make_tpacf(index_t points, index_t random_sets, index_t nbins,
                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  auto sphere_point = [&rng] {
    // Uniform on the sphere via normalized Gaussian triple.
    for (;;) {
      float x = static_cast<float>(rng.normal());
      float y = static_cast<float>(rng.normal());
      float z = static_cast<float>(rng.normal());
      float len = std::sqrt(x * x + y * y + z * z);
      if (len > 1e-6f) return Vec3{x / len, y / len, z / len};
    }
  };
  TpacfProblem p;
  p.nbins = nbins;
  p.obs.resize(static_cast<std::size_t>(points));
  for (auto& v : p.obs) v = sphere_point();
  p.rands.resize(static_cast<std::size_t>(random_sets));
  for (auto& set : p.rands) {
    set.resize(static_cast<std::size_t>(points));
    for (auto& v : set) v = sphere_point();
  }
  return p;
}

TpacfHist tpacf_seq_c(const TpacfProblem& p) {
  TpacfHist h(3 * p.nbins, 0);
  tpacf_range_c(p, 0, p.outer_size(), &h[0]);
  return h;
}

TpacfHist tpacf_triolet(const TpacfProblem& p, core::ParHint hint) {
  return core::histogram(3 * p.nbins, core::with_hint(tpacf_iter(p), hint));
}

TpacfHist tpacf_triolet_dist(net::Comm& comm, const TpacfProblem& p) {
  return dist::histogram(comm, 3 * p.nbins,
                         [&] { return core::par(tpacf_iter(p)); });
}

TpacfHist tpacf_triolet_dist_fig6(net::Comm& comm, const TpacfProblem& p) {
  const index_t nbins = p.nbins;
  const index_t n = p.points();

  // corr1 as a value computation: the full DR_j + RR_j histogram of one
  // random set, via the fused pair iterators, threaded locally.
  auto corr1 = [nbins, n](const TpacfProblem& d, index_t j) {
    // DR_j: obs x rand_j.
    auto dr_pairs = core::concat_map_with(
        core::range(0, n), std::pair(&d, j),
        [nbins, n](const auto& ctx, index_t i) {
          const TpacfProblem& dd = *ctx.first;
          const Vec3* rand = dd.rands[static_cast<std::size_t>(ctx.second)].data();
          Vec3 u = dd.obs[static_cast<std::size_t>(i)];
          return core::map(core::range(0, n), [u, rand, nbins](index_t k) {
            return score(u, rand[k], nbins);
          });
        });
    // RR_j: unique pairs within rand_j.
    auto rr_pairs = core::concat_map_with(
        core::range(0, n), std::pair(&d, j),
        [nbins, n](const auto& ctx, index_t i) {
          const TpacfProblem& dd = *ctx.first;
          const Vec3* rand = dd.rands[static_cast<std::size_t>(ctx.second)].data();
          Vec3 u = rand[i];
          return core::map(core::range(i + 1, n), [u, rand, nbins](index_t k) {
            return score(u, rand[k], nbins);
          });
        });
    auto dr = core::histogram(nbins, core::localpar(dr_pairs));
    auto rr = core::histogram(nbins, core::localpar(rr_pairs));
    std::vector<std::int64_t> out(static_cast<std::size_t>(2 * nbins), 0);
    for (index_t b = 0; b < nbins; ++b) {
      out[static_cast<std::size_t>(b)] = dr[b];
      out[static_cast<std::size_t>(nbins + b)] = rr[b];
    }
    return out;
  };

  // par(corr1(r) for r in rands), reduced with histogram addition: one
  // outer task per random data set, distributed across nodes.
  auto add = [](std::vector<std::int64_t> a,
                const std::vector<std::int64_t>& b) {
    if (a.size() < b.size()) a.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i) a[i] += b[i];
    return a;
  };
  auto rand_hists = dist::reduce(
      comm,
      [&] {
        return core::par(core::map_with(
            core::range(0, p.sets()), p,
            [corr1](const TpacfProblem& d, index_t j) { return corr1(d, j); }));
      },
      std::vector<std::int64_t>(static_cast<std::size_t>(2 * nbins), 0), add);

  if (comm.rank() != 0) return {};

  // DD at the root, threaded (selfCorrelation of the observed set).
  auto dd_pairs = core::concat_map_with(
      core::range(0, n), p, [nbins, n](const TpacfProblem& d, index_t i) {
        const Vec3* obs = d.obs.data();
        Vec3 u = obs[i];
        return core::map(core::range(i + 1, n), [u, obs, nbins](index_t k) {
          return score(u, obs[k], nbins);
        });
      });
  auto dd = core::histogram(nbins, core::localpar(dd_pairs));

  TpacfHist out(3 * nbins, 0);
  for (index_t b = 0; b < nbins; ++b) {
    out[b] = dd[b];
    out[nbins + b] = rand_hists[static_cast<std::size_t>(b)];
    out[2 * nbins + b] = rand_hists[static_cast<std::size_t>(nbins + b)];
  }
  return out;
}

TpacfHist tpacf_eden_seq(const TpacfProblem& p) {
  auto h = tpacf_range_eden(p, 0, p.outer_size());
  return TpacfHist(0, std::move(h));
}

TpacfHist tpacf_eden_farm(net::Comm& comm, const TpacfProblem& p) {
  std::vector<TpacfTask> tasks;
  const int workers = std::max(1, comm.size() - 1);
  if (comm.rank() == 0) {
    const index_t total = p.outer_size();
    for (int w = 0; w < workers; ++w) {
      TpacfTask t;
      t.lo = total * w / workers;
      t.hi = total * (w + 1) / workers;
      t.data = p;  // full problem copy per task (Eden closure semantics)
      tasks.push_back(std::move(t));
    }
  }
  using Out = std::vector<std::int64_t>;
  auto results = eden::farm<TpacfTask, Out>(comm, tasks, [](const TpacfTask& t) {
    return tpacf_range_eden(t.data, t.lo, t.hi);
  });
  if (comm.rank() != 0) return {};
  TpacfHist h(3 * p.nbins, 0);
  for (const auto& part : results) {
    for (index_t i = 0; i < h.size(); ++i) {
      h[i] += part[static_cast<std::size_t>(i)];
    }
  }
  return h;
}

TpacfHist tpacf_lowlevel(const TpacfProblem& p) {
  auto& pool = runtime::current_pool();
  // Privatized histograms, as the paper notes the C+MPI+OpenMP code must
  // do by examining the thread count.
  runtime::PerThread<std::vector<std::int64_t>> priv(
      pool, std::vector<std::int64_t>(static_cast<std::size_t>(3 * p.nbins), 0));
  runtime::parallel_for(pool, 0, p.outer_size(), [&](index_t lo, index_t hi) {
    tpacf_range_c(p, lo, hi, priv.local().data());
  });
  TpacfHist h(3 * p.nbins, 0);
  for (const auto& part : priv.slots()) {
    for (index_t i = 0; i < h.size(); ++i) h[i] += part[static_cast<std::size_t>(i)];
  }
  return h;
}

TpacfHist tpacf_lowlevel_dist(net::Comm& comm, const TpacfProblem& p) {
  constexpr int kTagRange = 400, kTagHist = 401;
  const int size = comm.size();
  const int rank = comm.rank();

  TpacfProblem local;
  std::pair<index_t, index_t> range;
  if (rank == 0) {
    const index_t total = p.outer_size();
    for (int r = 1; r < size; ++r) {
      comm.send(r, kTagRange,
                std::pair<index_t, index_t>{total * r / size,
                                            total * (r + 1) / size});
      comm.send(r, kTagRange + 1, p);  // broadcast-style full data
    }
    local = p;
    range = {0, total / size};
  } else {
    range = comm.recv<std::pair<index_t, index_t>>(0, kTagRange);
    local = comm.recv<TpacfProblem>(0, kTagRange + 1);
  }

  auto& pool = runtime::current_pool();
  runtime::PerThread<std::vector<std::int64_t>> priv(
      pool,
      std::vector<std::int64_t>(static_cast<std::size_t>(3 * local.nbins), 0));
  runtime::parallel_for(pool, range.first, range.second,
                        [&](index_t lo, index_t hi) {
                          tpacf_range_c(local, lo, hi, priv.local().data());
                        });
  std::vector<std::int64_t> part(static_cast<std::size_t>(3 * local.nbins), 0);
  for (const auto& s : priv.slots()) {
    for (std::size_t i = 0; i < part.size(); ++i) part[i] += s[i];
  }

  if (rank != 0) {
    comm.send(0, kTagHist, part);
    return {};
  }
  for (int r = 1; r < size; ++r) {
    auto other = comm.recv<std::vector<std::int64_t>>(r, kTagHist);
    for (std::size_t i = 0; i < part.size(); ++i) part[i] += other[i];
  }
  return TpacfHist(0, std::move(part));
}

TpacfMeasured measure_tpacf(const TpacfProblem& p, index_t units) {
  TpacfMeasured m;
  const index_t total = p.outer_size();
  auto at = [total, units](index_t u) { return total * u / units; };
  const auto data_bytes = static_cast<std::int64_t>(serial::wire_size(p));
  const auto hist_bytes = static_cast<std::int64_t>(3 * p.nbins * 8 + 32);

  m.seq_c = measure_seconds([&] { (void)tpacf_seq_c(p); });
  m.seq_triolet =
      measure_seconds([&] { (void)tpacf_triolet(p, core::ParHint::kSeq); });
  m.seq_eden = measure_seconds([&] { (void)tpacf_eden_seq(p); }, 2);

  // ---- Triolet: unit ranges through the fused nested iterator.
  {
    auto it = tpacf_iter(p);
    std::vector<std::int64_t> sink(static_cast<std::size_t>(3 * p.nbins), 0);
    m.triolet.name = "Triolet";
    m.triolet.glyph = 'T';
    m.triolet.unit_seconds = measure_units(units, [&](index_t u) {
      core::visit_ordinals(it, at(u), at(u + 1),
                           [&](index_t bin) { sink[static_cast<std::size_t>(bin)]++; });
    });
    m.triolet.input_bytes = [it, at](index_t ulo, index_t uhi) {
      return static_cast<std::int64_t>(
          serial::wire_size(it.slice(core::Seq{at(ulo), at(uhi)})));
    };
    m.triolet.net.alloc_multiplier = 3.0;
    m.triolet.net.alloc_threshold_bytes = 128 * 1024;
  }

  // ---- C+MPI+OpenMP.
  {
    std::vector<std::int64_t> sink(static_cast<std::size_t>(3 * p.nbins), 0);
    m.lowlevel.name = "C+MPI+OpenMP";
    m.lowlevel.glyph = 'C';
    m.lowlevel.unit_seconds = measure_units(units, [&](index_t u) {
      tpacf_range_c(p, at(u), at(u + 1), sink.data());
    });
    m.lowlevel.input_bytes = [data_bytes](index_t, index_t) {
      return data_bytes + 64;  // full point data broadcast, tiny
    };
    // MPI sends directly from preallocated buffers; no serializer packing.
    m.lowlevel.net.copy_cost_per_byte = 0.1e-9;
    m.lowlevel.static_sched = true;
    m.lowlevel.cyclic_sched = true;  // schedule(static,1) on triangular loops
  }

  // ---- Eden.
  {
    m.eden.name = "Eden";
    m.eden.glyph = 'E';
    m.eden.unit_seconds = measure_units(units, [&](index_t u) {
      (void)tpacf_range_eden(p, at(u), at(u + 1));
    });
    m.eden.input_bytes = [data_bytes](index_t, index_t) {
      return data_bytes + 256;  // full problem copy per task
    };
    m.eden.flat = true;
    m.eden.static_sched = true;
    m.eden.straggler = {0.02, 3.0, 0xEDE13};
    m.eden.net.copy_cost_per_byte *= 3.0;
    m.eden.net.fixed_overhead *= 4.0;
  }

  auto result_bytes = [hist_bytes](index_t, index_t) { return hist_bytes; };
  auto combine = [&p](index_t, index_t) {
    return static_cast<double>(3 * p.nbins) * 1e-9;
  };
  for (MeasuredSystem* s : {&m.triolet, &m.lowlevel, &m.eden}) {
    s->result_bytes = result_bytes;
    s->combine_seconds = combine;
  }
  return m;
}

}  // namespace triolet::apps
