#include "apps/mriq.hpp"

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

constexpr float kTwoPi = 6.2831853071795864769f;

/// Contribution of sample k to pixel (px, py, pz), fast-math path.
inline void ft_accumulate(const KSpace& ks, std::size_t k, float px, float py,
                          float pz, float& qr, float& qi) {
  float e = kTwoPi * (ks.kx[k] * px + ks.ky[k] * py + ks.kz[k] * pz);
  qr += ks.phi[k] * std::cos(e);
  qi += ks.phi[k] * std::sin(e);
}

/// Same contribution through Eden's deoptimized trig path.
inline void ft_accumulate_eden(const KSpace& ks, std::size_t k, float px,
                               float py, float pz, float& qr, float& qi) {
  float e = kTwoPi * (ks.kx[k] * px + ks.ky[k] * py + ks.kz[k] * pz);
  qr += ks.phi[k] * eden::eden_cosf(e);
  qi += ks.phi[k] * eden::eden_sinf(e);
}

/// One pixel, full sample sweep (the body shared by all variants).
inline std::pair<float, float> ft_pixel(const KSpace& ks, float px, float py,
                                        float pz) {
  float qr = 0.0f, qi = 0.0f;
  for (std::size_t k = 0; k < ks.kx.size(); ++k) {
    ft_accumulate(ks, k, px, py, pz, qr, qi);
  }
  return {qr, qi};
}

inline std::pair<float, float> ft_pixel_eden(const KSpace& ks, float px,
                                             float py, float pz) {
  float qr = 0.0f, qi = 0.0f;
  for (std::size_t k = 0; k < ks.kx.size(); ++k) {
    ft_accumulate_eden(ks, k, px, py, pz, qr, qi);
  }
  return {qr, qi};
}

/// The paper's Triolet program:
///   [sum(ftcoeff(k, r) for k in ks) for r in zip3(x, y, z)]
/// zip3 keeps the pixel traversal an indexer (partitionable), and the
/// k-space array rides along as broadcast context, the way a Triolet
/// closure would carry it.
auto mriq_iter(const MriqProblem& p) {
  auto pixels = core::zip3(core::from_array(p.x), core::from_array(p.y),
                           core::from_array(p.z));
  return core::map_with(pixels, p.ks, [](const KSpace& ks, const auto& r) {
    auto [px, py, pz] = r;
    return ft_pixel(ks, px, py, pz);
  });
}

MriqResult result_from_pairs(const Array1<std::pair<float, float>>& q) {
  MriqResult out;
  out.qr.reserve(static_cast<std::size_t>(q.size()));
  out.qi.reserve(static_cast<std::size_t>(q.size()));
  for (index_t i = q.lo(); i < q.hi(); ++i) {
    out.qr.push_back(q[i].first);
    out.qi.push_back(q[i].second);
  }
  return out;
}

}  // namespace

/// Eden farm task: one pixel chunk plus (a copy of) the full sample set —
/// "Eden sends each distributed task a copy of all objects that are
/// referenced by its input". Declared in the enclosing namespace so ADL
/// finds the generated field visitor.
struct MriqTask {
  std::vector<float> px, py, pz;
  KSpace ks;
};
TRIOLET_SERIALIZE_FIELDS(MriqTask, px, py, pz, ks)

MriqProblem make_mriq(index_t pixels, index_t samples, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  MriqProblem p;
  p.x = Array1<float>(pixels);
  p.y = Array1<float>(pixels);
  p.z = Array1<float>(pixels);
  for (index_t i = 0; i < pixels; ++i) {
    p.x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    p.y[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    p.z[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  p.ks.kx.resize(static_cast<std::size_t>(samples));
  p.ks.ky.resize(static_cast<std::size_t>(samples));
  p.ks.kz.resize(static_cast<std::size_t>(samples));
  p.ks.phi.resize(static_cast<std::size_t>(samples));
  for (std::size_t k = 0; k < p.ks.kx.size(); ++k) {
    p.ks.kx[k] = static_cast<float>(rng.uniform(-8.0, 8.0));
    p.ks.ky[k] = static_cast<float>(rng.uniform(-8.0, 8.0));
    p.ks.kz[k] = static_cast<float>(rng.uniform(-8.0, 8.0));
    p.ks.phi[k] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return p;
}

std::vector<float> mriq_phi_mag(const std::vector<float>& phi_r,
                                const std::vector<float>& phi_i) {
  TRIOLET_CHECK(phi_r.size() == phi_i.size(), "phiR/phiI size mismatch");
  auto rr = Array1<float>(0, std::vector<float>(phi_r));
  auto ii = Array1<float>(0, std::vector<float>(phi_i));
  auto mag = core::map(core::zip(core::from_array(rr), core::from_array(ii)),
                       [](const auto& p) {
                         return p.first * p.first + p.second * p.second;
                       });
  auto out = core::build_array1(core::localpar(mag));
  return {out.begin(), out.end()};
}

double mriq_rel_error(const MriqResult& a, const MriqResult& b) {
  TRIOLET_CHECK(a.qr.size() == b.qr.size(), "result size mismatch");
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.qr.size(); ++i) {
    double dr = a.qr[i] - b.qr[i], di = a.qi[i] - b.qi[i];
    num += dr * dr + di * di;
    den += static_cast<double>(a.qr[i]) * a.qr[i] +
           static_cast<double>(a.qi[i]) * a.qi[i];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

MriqResult mriq_seq_c(const MriqProblem& p) {
  const index_t n = p.pixels();
  MriqResult out;
  out.qr.resize(static_cast<std::size_t>(n));
  out.qi.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    auto [qr, qi] = ft_pixel(p.ks, p.x[i], p.y[i], p.z[i]);
    out.qr[static_cast<std::size_t>(i)] = qr;
    out.qi[static_cast<std::size_t>(i)] = qi;
  }
  return out;
}

MriqResult mriq_triolet(const MriqProblem& p, core::ParHint hint) {
  auto q = core::build_array1(core::with_hint(mriq_iter(p), hint));
  return result_from_pairs(q);
}

MriqResult mriq_triolet_dist(net::Comm& comm, const MriqProblem& p) {
  auto q = dist::build_array1(comm, [&] { return core::par(mriq_iter(p)); });
  if (comm.rank() != 0) return {};
  return result_from_pairs(q);
}

MriqResult mriq_eden_seq(const MriqProblem& p) {
  // Chunked-vector style: lists of 1k-element vectors traversed chunk by
  // chunk, trig through the deoptimized path.
  auto cx = eden::ChunkedArray<float>::from_vector(
      {p.x.begin(), p.x.end()});
  auto cy = eden::ChunkedArray<float>::from_vector(
      {p.y.begin(), p.y.end()});
  auto cz = eden::ChunkedArray<float>::from_vector(
      {p.z.begin(), p.z.end()});
  MriqResult out;
  out.qr.reserve(static_cast<std::size_t>(p.pixels()));
  out.qi.reserve(static_cast<std::size_t>(p.pixels()));
  for (std::size_t c = 0; c < cx.chunk_count(); ++c) {
    const auto& vx = cx.chunk(c);
    const auto& vy = cy.chunk(c);
    const auto& vz = cz.chunk(c);
    for (std::size_t i = 0; i < vx.size(); ++i) {
      auto [qr, qi] = ft_pixel_eden(p.ks, vx[i], vy[i], vz[i]);
      out.qr.push_back(qr);
      out.qi.push_back(qi);
    }
  }
  return out;
}

MriqResult mriq_eden_farm(net::Comm& comm, const MriqProblem& p) {
  std::vector<MriqTask> tasks;
  if (comm.rank() == 0) {
    const std::size_t chunk = eden::kChunkSize;
    const auto n = static_cast<std::size_t>(p.pixels());
    for (std::size_t i = 0; i < n; i += chunk) {
      std::size_t hi = std::min(n, i + chunk);
      MriqTask t;
      t.px.assign(p.x.data() + i, p.x.data() + hi);
      t.py.assign(p.y.data() + i, p.y.data() + hi);
      t.pz.assign(p.z.data() + i, p.z.data() + hi);
      t.ks = p.ks;  // full copy per task (Eden closure semantics)
      tasks.push_back(std::move(t));
    }
  }
  using Out = std::vector<std::pair<float, float>>;
  auto results = eden::farm<MriqTask, Out>(comm, tasks, [](const MriqTask& t) {
    Out out;
    out.reserve(t.px.size());
    for (std::size_t i = 0; i < t.px.size(); ++i) {
      out.push_back(ft_pixel_eden(t.ks, t.px[i], t.py[i], t.pz[i]));
    }
    return out;
  });
  if (comm.rank() != 0) return {};
  MriqResult out;
  for (const auto& chunk : results) {
    for (auto [qr, qi] : chunk) {
      out.qr.push_back(qr);
      out.qi.push_back(qi);
    }
  }
  return out;
}

MriqResult mriq_lowlevel(const MriqProblem& p) {
  const index_t n = p.pixels();
  MriqResult out;
  out.qr.resize(static_cast<std::size_t>(n));
  out.qi.resize(static_cast<std::size_t>(n));
  runtime::parallel_for(runtime::current_pool(), 0, n,
                        [&](index_t lo, index_t hi) {
                          for (index_t i = lo; i < hi; ++i) {
                            auto [qr, qi] =
                                ft_pixel(p.ks, p.x[i], p.y[i], p.z[i]);
                            out.qr[static_cast<std::size_t>(i)] = qr;
                            out.qi[static_cast<std::size_t>(i)] = qi;
                          }
                        });
  return out;
}

MriqResult mriq_lowlevel_dist(net::Comm& comm, const MriqProblem& p) {
  // Hand-written scatter / broadcast / compute / gather, the structure the
  // paper describes as "dedicating more code to partitioning data across
  // MPI ranks than to the actual numerical computation" (§4.2).
  const int size = comm.size();
  const int rank = comm.rank();

  std::vector<std::vector<float>> xs, ys, zs;
  if (rank == 0) {
    xs.resize(static_cast<std::size_t>(size));
    ys.resize(static_cast<std::size_t>(size));
    zs.resize(static_cast<std::size_t>(size));
    const index_t n = p.pixels();
    for (int r = 0; r < size; ++r) {
      index_t lo = n * r / size, hi = n * (r + 1) / size;
      xs[static_cast<std::size_t>(r)].assign(p.x.data() + lo, p.x.data() + hi);
      ys[static_cast<std::size_t>(r)].assign(p.y.data() + lo, p.y.data() + hi);
      zs[static_cast<std::size_t>(r)].assign(p.z.data() + lo, p.z.data() + hi);
    }
  }
  std::vector<float> mx = comm.scatter(xs, 0);
  std::vector<float> my = comm.scatter(ys, 0);
  std::vector<float> mz = comm.scatter(zs, 0);
  KSpace ks;
  if (rank == 0) ks = p.ks;
  comm.broadcast(ks, 0);

  std::vector<std::pair<float, float>> part(mx.size());
  runtime::parallel_for(
      runtime::current_pool(), 0, static_cast<index_t>(mx.size()),
      [&](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          auto s = static_cast<std::size_t>(i);
          part[s] = ft_pixel(ks, mx[s], my[s], mz[s]);
        }
      });

  auto all = comm.gather(part, 0);
  if (rank != 0) return {};
  MriqResult out;
  for (const auto& chunk : all) {
    for (auto [qr, qi] : chunk) {
      out.qr.push_back(qr);
      out.qi.push_back(qi);
    }
  }
  return out;
}

MriqMeasured measure_mriq(const MriqProblem& p, index_t units) {
  MriqMeasured m;
  const index_t n = p.pixels();
  auto pix = [n, units](index_t u) { return n * u / units; };

  m.seq_c = measure_seconds([&] { (void)mriq_seq_c(p); });
  m.seq_triolet =
      measure_seconds([&] { (void)mriq_triolet(p, core::ParHint::kSeq); });
  m.seq_eden = measure_seconds([&] { (void)mriq_eden_seq(p); }, 2);

  // ---- Triolet: run unit ranges through the fused iterator.
  {
    auto it = mriq_iter(p);
    std::vector<std::pair<float, float>> scratch(static_cast<std::size_t>(n));
    m.triolet.name = "Triolet";
    m.triolet.glyph = 'T';
    m.triolet.unit_seconds = measure_units(units, [&](index_t u) {
      for (index_t i = pix(u); i < pix(u + 1); ++i) {
        scratch[static_cast<std::size_t>(i)] = it.at_ordinal(i);
      }
    });
    m.triolet.input_bytes = [it, pix](index_t ulo, index_t uhi) {
      return static_cast<std::int64_t>(
          serial::wire_size(it.slice(core::Seq{pix(ulo), pix(uhi)})));
    };
  }

  // ---- C+MPI+OpenMP: the raw loop.
  {
    std::vector<std::pair<float, float>> scratch(static_cast<std::size_t>(n));
    m.lowlevel.name = "C+MPI+OpenMP";
    m.lowlevel.glyph = 'C';
    m.lowlevel.unit_seconds = measure_units(units, [&](index_t u) {
      for (index_t i = pix(u); i < pix(u + 1); ++i) {
        scratch[static_cast<std::size_t>(i)] =
            ft_pixel(p.ks, p.x[i], p.y[i], p.z[i]);
      }
    });
    const auto ks_bytes =
        static_cast<std::int64_t>(serial::wire_size(p.ks));
    m.lowlevel.input_bytes = [pix, ks_bytes](index_t ulo, index_t uhi) {
      return 3 * 4 * (pix(uhi) - pix(ulo)) + ks_bytes + 64;
    };
    // MPI sends directly from preallocated buffers; no serializer packing.
    m.lowlevel.net.copy_cost_per_byte = 0.1e-9;
    m.lowlevel.static_sched = true;  // OpenMP static pixel partition
  }

  // ---- Eden: chunked traversal with deoptimized trig; whole-sample-set
  // copies per task; flat farm; stragglers.
  {
    std::vector<std::pair<float, float>> scratch(static_cast<std::size_t>(n));
    m.eden.name = "Eden";
    m.eden.glyph = 'E';
    m.eden.unit_seconds = measure_units(units, [&](index_t u) {
      for (index_t i = pix(u); i < pix(u + 1); ++i) {
        scratch[static_cast<std::size_t>(i)] =
            ft_pixel_eden(p.ks, p.x[i], p.y[i], p.z[i]);
      }
    });
    const auto ks_bytes =
        static_cast<std::int64_t>(serial::wire_size(p.ks));
    m.eden.input_bytes = [pix, ks_bytes](index_t ulo, index_t uhi) {
      // chunk framing: one length header per 1k-element chunk and stream.
      std::int64_t npix = pix(uhi) - pix(ulo);
      std::int64_t frames = 3 * (npix / eden::kChunkSize + 1) * 8;
      return 3 * 4 * npix + ks_bytes + frames + 64;
    };
    m.eden.flat = true;
    m.eden.static_sched = true;
    m.eden.straggler = {0.02, 3.0, 0xEDE11};
  }

  // Common result shape: 8 bytes per pixel plus framing.
  auto result_bytes = [pix](index_t ulo, index_t uhi) {
    return 8 * (pix(uhi) - pix(ulo)) + 32;
  };
  // Root-side merge is a memcpy of the partial into the image.
  auto combine = [pix](index_t ulo, index_t uhi) {
    return 8.0 * static_cast<double>(pix(uhi) - pix(ulo)) * 0.1e-9;
  };
  for (MeasuredSystem* s : {&m.triolet, &m.lowlevel, &m.eden}) {
    s->result_bytes = result_bytes;
    s->combine_seconds = combine;
  }

  m.triolet.net.alloc_multiplier = 3.0;
    m.triolet.net.alloc_threshold_bytes = 128 * 1024;  // GC-style message construction
  m.eden.net.copy_cost_per_byte *= 3.0;  // per-chunk framing and copying
  m.eden.net.fixed_overhead *= 4.0;

  return m;
}

}  // namespace triolet::apps
