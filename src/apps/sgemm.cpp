#include "apps/sgemm.hpp"

#include <cmath>

#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "eden/chunked.hpp"
#include "eden/farm.hpp"
#include "runtime/parallel.hpp"
#include "support/rng.hpp"

namespace triolet::apps {

namespace {

inline float dot_rows(std::span<const float> u, std::span<const float> v) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < u.size(); ++i) acc += u[i] * v[i];
  return acc;
}

/// The paper §2 two-line program:
///   zipped_AB = outerproduct(rows(A), rows(BT))
///   AB = [alpha * dot(u, v) for (u, v) in zipped_AB]
auto sgemm_iter(const Array2<float>& a, const Array2<float>& bt, float alpha) {
  auto zipped = core::outerproduct(core::rows(a), core::rows(bt));
  return core::map(zipped, [alpha](const auto& uv) {
    return alpha * dot_rows(uv.first, uv.second);
  });
}

/// Transposition expressed as a Triolet comprehension (paper §3.3):
/// [B[x, y] for (y, x) in arrayRange(m, k)], parallelized over shared
/// memory with localpar — "transposition does too little work to
/// parallelize profitably on distributed memory" (§4.3).
Array2<float> transpose_triolet(const Array2<float>& b, core::ParHint hint) {
  auto it = core::map_with(core::indices(core::Dim2{0, b.cols(), 0, b.rows()}),
                           b, [](const Array2<float>& src, core::Index2 i) {
                             return src(i.x, i.y);
                           });
  return core::build_array2(core::with_hint(it, hint));
}

/// Eden farm task: a block of A rows plus the whole transposed B —
/// per-worker replication of B is what blows Eden's message buffers.
struct SgemmTask {
  Array2<float> a_rows;
  Array2<float> bt;
  float alpha = 1.0f;
};
TRIOLET_SERIALIZE_FIELDS(SgemmTask, a_rows, bt, alpha)

}  // namespace

SgemmProblem make_sgemm(index_t n, index_t k, index_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  SgemmProblem p;
  p.a = Array2<float>(n, k);
  p.b = Array2<float>(k, m);
  p.alpha = 0.5f;
  for (index_t y = 0; y < n; ++y)
    for (index_t x = 0; x < k; ++x)
      p.a(y, x) = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (index_t y = 0; y < k; ++y)
    for (index_t x = 0; x < m; ++x)
      p.b(y, x) = static_cast<float>(rng.uniform(-1.0, 1.0));
  return p;
}

double sgemm_rel_error(const Array2<float>& ref, const Array2<float>& got) {
  TRIOLET_CHECK(ref.rows() == got.rows() && ref.cols() == got.cols(),
                "result shape mismatch");
  double num = 0, den = 0;
  for (index_t y = 0; y < ref.rows(); ++y) {
    for (index_t x = 0; x < ref.cols(); ++x) {
      double d = ref(y, x) - got(y, x);
      num += d * d;
      den += static_cast<double>(ref(y, x)) * ref(y, x);
    }
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

Array2<float> sgemm_seq_c(const SgemmProblem& p) {
  Array2<float> bt = transpose(p.b);
  Array2<float> c(p.n(), p.m());
  for (index_t y = 0; y < p.n(); ++y) {
    for (index_t x = 0; x < p.m(); ++x) {
      c(y, x) = p.alpha * dot_rows(p.a.row(y), bt.row(x));
    }
  }
  return c;
}

Array2<float> sgemm_triolet(const SgemmProblem& p, core::ParHint hint) {
  // Transpose locally (shared memory), multiply under the requested hint.
  core::ParHint tr_hint =
      hint == core::ParHint::kSeq ? core::ParHint::kSeq : core::ParHint::kLocal;
  Array2<float> bt = transpose_triolet(p.b, tr_hint);
  return core::build_array2(
      core::with_hint(sgemm_iter(p.a, bt, p.alpha), hint));
}

Array2<float> sgemm_triolet_dist(net::Comm& comm, const SgemmProblem& p) {
  // Root transposes over shared memory, then the 2D block-distributed
  // multiply ships only the rows each block needs.
  Array2<float> bt;
  if (comm.rank() == 0) bt = transpose_triolet(p.b, core::ParHint::kLocal);
  auto c = dist::build_array2(
      comm, [&] { return core::par(sgemm_iter(p.a, bt, p.alpha)); });
  if (comm.rank() != 0) return {};
  return c;
}

Array2<float> sgemm_eden_seq(const SgemmProblem& p) {
  // Chunked row storage: every row access walks the chunk table, the
  // per-element cost of Eden's high-level array style.
  Array2<float> bt = transpose(p.b);
  std::vector<eden::ChunkedArray<float>> a_rows, bt_rows;
  a_rows.reserve(static_cast<std::size_t>(p.n()));
  for (index_t y = 0; y < p.n(); ++y) {
    auto r = p.a.row(y);
    a_rows.push_back(eden::ChunkedArray<float>::from_vector(
        {r.begin(), r.end()}, 16));
  }
  bt_rows.reserve(static_cast<std::size_t>(p.m()));
  for (index_t x = 0; x < p.m(); ++x) {
    auto r = bt.row(x);
    bt_rows.push_back(eden::ChunkedArray<float>::from_vector(
        {r.begin(), r.end()}, 16));
  }
  Array2<float> c(p.n(), p.m());
  for (index_t y = 0; y < p.n(); ++y) {
    for (index_t x = 0; x < p.m(); ++x) {
      const auto& u = a_rows[static_cast<std::size_t>(y)];
      const auto& v = bt_rows[static_cast<std::size_t>(x)];
      float acc = 0.0f;
      for (std::size_t ch = 0; ch < u.chunk_count(); ++ch) {
        const auto& uc = u.chunk(ch);
        const auto& vc = v.chunk(ch);
        for (std::size_t i = 0; i < uc.size(); ++i) acc += uc[i] * vc[i];
      }
      c(y, x) = p.alpha * acc;
    }
  }
  return c;
}

Array2<float> sgemm_eden_farm(net::Comm& comm, const SgemmProblem& p) {
  std::vector<SgemmTask> tasks;
  const int workers = std::max(1, comm.size() - 1);
  if (comm.rank() == 0) {
    Array2<float> bt = transpose(p.b);
    for (int w = 0; w < workers; ++w) {
      index_t lo = p.n() * w / workers, hi = p.n() * (w + 1) / workers;
      tasks.push_back(SgemmTask{p.a.slice_rows(lo, hi), bt, p.alpha});
    }
  }
  using Out = Array2<float>;
  auto results =
      eden::farm<SgemmTask, Out>(comm, tasks, [](const SgemmTask& t) {
        Array2<float> c(t.a_rows.row_lo(), t.a_rows.rows(), t.bt.rows(),
                        std::vector<float>(static_cast<std::size_t>(
                            t.a_rows.rows() * t.bt.rows())));
        for (index_t y = t.a_rows.row_lo(); y < t.a_rows.row_hi(); ++y) {
          for (index_t x = 0; x < t.bt.rows(); ++x) {
            c(y, x) = t.alpha * dot_rows(t.a_rows.row(y), t.bt.row(x));
          }
        }
        return c;
      });
  if (comm.rank() != 0) return {};
  Array2<float> c(p.n(), p.m());
  for (const auto& block : results) {
    for (index_t y = block.row_lo(); y < block.row_hi(); ++y) {
      for (index_t x = 0; x < p.m(); ++x) c(y, x) = block(y, x);
    }
  }
  return c;
}

Array2<float> sgemm_lowlevel(const SgemmProblem& p) {
  auto& pool = runtime::current_pool();
  Array2<float> bt(p.m(), p.k());
  runtime::parallel_for(pool, 0, p.k(), [&](index_t lo, index_t hi) {
    for (index_t y = lo; y < hi; ++y) {
      for (index_t x = 0; x < p.m(); ++x) bt(x, y) = p.b(y, x);
    }
  });
  Array2<float> c(p.n(), p.m());
  runtime::parallel_for(pool, 0, p.n(), [&](index_t lo, index_t hi) {
    for (index_t y = lo; y < hi; ++y) {
      for (index_t x = 0; x < p.m(); ++x) {
        c(y, x) = p.alpha * dot_rows(p.a.row(y), bt.row(x));
      }
    }
  });
  return c;
}

Array2<float> sgemm_lowlevel_dist(net::Comm& comm, const SgemmProblem& p) {
  // Explicit 2D block decomposition with point-to-point messaging: the
  // "over 120 lines of code" the paper charges to this style.
  constexpr int kTagA = 300, kTagBT = 301, kTagC = 302, kTagDom = 303;
  const int size = comm.size();
  const int rank = comm.rank();
  auto& pool = runtime::current_pool();

  core::Dim2 my_block{};
  Array2<float> my_a, my_bt;
  if (rank == 0) {
    Array2<float> bt(p.m(), p.k());
    runtime::parallel_for(pool, 0, p.k(), [&](index_t lo, index_t hi) {
      for (index_t y = lo; y < hi; ++y) {
        for (index_t x = 0; x < p.m(); ++x) bt(x, y) = p.b(y, x);
      }
    });
    auto blocks = core::split_blocks(core::Dim2{0, p.n(), 0, p.m()}, size);
    for (int r = 1; r < size; ++r) {
      const auto& blk = blocks[static_cast<std::size_t>(r)];
      comm.send(r, kTagDom, blk);
      comm.send(r, kTagA, p.a.slice_rows(blk.y0, blk.y1));
      comm.send(r, kTagBT, bt.slice_rows(blk.x0, blk.x1));
    }
    my_block = blocks[0];
    my_a = p.a.slice_rows(my_block.y0, my_block.y1);
    my_bt = bt.slice_rows(my_block.x0, my_block.x1);
  } else {
    my_block = comm.recv<core::Dim2>(0, kTagDom);
    my_a = comm.recv<Array2<float>>(0, kTagA);
    my_bt = comm.recv<Array2<float>>(0, kTagBT);
  }

  // Compute the local block with threads (the OpenMP part).
  core::Block2<float> block{my_block, std::vector<float>(static_cast<std::size_t>(
                                          my_block.size()))};
  runtime::parallel_for(
      pool, my_block.y0, my_block.y1, [&](index_t lo, index_t hi) {
        for (index_t y = lo; y < hi; ++y) {
          for (index_t x = my_block.x0; x < my_block.x1; ++x) {
            block.data[static_cast<std::size_t>(
                my_block.ordinal(core::Index2{y, x}))] =
                p.alpha * dot_rows(my_a.row(y), my_bt.row(x));
          }
        }
      });

  if (rank != 0) {
    comm.send(0, kTagC, block);
    return {};
  }
  Array2<float> c(p.n(), p.m());
  auto paste = [&](const core::Block2<float>& blk) {
    blk.dom.for_each([&](core::Index2 i) { c(i.y, i.x) = blk.at(i); });
  };
  paste(block);
  for (int r = 1; r < size; ++r) {
    paste(comm.recv<core::Block2<float>>(r, kTagC));
  }
  return c;
}

SgemmMeasured measure_sgemm(const SgemmProblem& p, index_t units) {
  SgemmMeasured m;
  const index_t n = p.n();
  auto row = [n, units](index_t u) { return n * u / units; };
  const auto a_bytes = static_cast<std::int64_t>(p.n() * p.k()) * 4;
  const auto bt_bytes = static_cast<std::int64_t>(p.m() * p.k()) * 4;

  m.seq_c = measure_seconds([&] { (void)sgemm_seq_c(p); });
  m.seq_triolet =
      measure_seconds([&] { (void)sgemm_triolet(p, core::ParHint::kSeq); });
  m.seq_eden = measure_seconds([&] { (void)sgemm_eden_seq(p); }, 2);

  Array2<float> bt = transpose(p.b);
  const double transpose_seconds =
      measure_seconds([&] { (void)transpose(p.b); });

  /// Bytes for part i of a k-part 2D block decomposition: the A rows and
  /// BT rows meeting at block i (identical for Triolet's sliced
  /// outerproduct and the low-level sends).
  auto block_input = [&p](int part, int parts) {
    auto blocks = core::split_blocks(core::Dim2{0, p.n(), 0, p.m()}, parts);
    const auto& b = blocks[static_cast<std::size_t>(part)];
    return static_cast<std::int64_t>((b.rows() * p.k() + b.cols() * p.k()) * 4 +
                                     128);
  };

  // ---- Triolet.
  {
    auto it = sgemm_iter(p.a, bt, p.alpha);
    std::vector<float> scratch(static_cast<std::size_t>(p.n() * p.m()));
    m.triolet.name = "Triolet";
    m.triolet.glyph = 'T';
    m.triolet.unit_seconds = measure_units(units, [&](index_t u) {
      for (index_t y = row(u); y < row(u + 1); ++y) {
        for (index_t x = 0; x < p.m(); ++x) {
          scratch[static_cast<std::size_t>(y * p.m() + x)] =
              it.at(core::Index2{y, x});
        }
      }
    });
    m.triolet.input_bytes_by_part = block_input;
    m.triolet.root_prep_seconds = transpose_seconds;
    m.triolet.prep_parallelizable = true;  // localpar transpose
    m.triolet.net.alloc_multiplier = 3.0;
    m.triolet.net.alloc_threshold_bytes = 128 * 1024;
  }

  // ---- C+MPI+OpenMP.
  {
    std::vector<float> scratch(static_cast<std::size_t>(p.n() * p.m()));
    m.lowlevel.name = "C+MPI+OpenMP";
    m.lowlevel.glyph = 'C';
    m.lowlevel.unit_seconds = measure_units(units, [&](index_t u) {
      for (index_t y = row(u); y < row(u + 1); ++y) {
        for (index_t x = 0; x < p.m(); ++x) {
          scratch[static_cast<std::size_t>(y * p.m() + x)] =
              p.alpha * dot_rows(p.a.row(y), bt.row(x));
        }
      }
    });
    m.lowlevel.input_bytes_by_part = block_input;
    m.lowlevel.root_prep_seconds = transpose_seconds;
    m.lowlevel.prep_parallelizable = true;  // omp-parallel transpose
    // MPI sends directly from preallocated buffers; no serializer packing.
    m.lowlevel.net.copy_cost_per_byte = 0.1e-9;
    m.lowlevel.static_sched = true;
  }

  // ---- Eden: chunked rows, sequential transpose, whole-BT replication.
  {
    std::vector<eden::ChunkedArray<float>> bt_rows;
    for (index_t x = 0; x < p.m(); ++x) {
      auto r = bt.row(x);
      bt_rows.push_back(
          eden::ChunkedArray<float>::from_vector({r.begin(), r.end()}, 16));
    }
    std::vector<float> scratch(static_cast<std::size_t>(p.n() * p.m()));
    m.eden.name = "Eden";
    m.eden.glyph = 'E';
    m.eden.unit_seconds = measure_units(units, [&](index_t u) {
      for (index_t y = row(u); y < row(u + 1); ++y) {
        auto arow = eden::ChunkedArray<float>::from_vector(
            {p.a.row(y).begin(), p.a.row(y).end()}, 16);
        for (index_t x = 0; x < p.m(); ++x) {
          const auto& v = bt_rows[static_cast<std::size_t>(x)];
          float acc = 0.0f;
          for (std::size_t ch = 0; ch < arow.chunk_count(); ++ch) {
            const auto& uc = arow.chunk(ch);
            const auto& vc = v.chunk(ch);
            for (std::size_t i = 0; i < uc.size(); ++i) acc += uc[i] * vc[i];
          }
          scratch[static_cast<std::size_t>(y * p.m() + x)] = p.alpha * acc;
        }
      }
    });
    m.eden.input_bytes = [row, bt_bytes, &p](index_t ulo, index_t uhi) {
      // A-row slice plus a full copy of BT per worker.
      return (row(uhi) - row(ulo)) * p.k() * 4 + bt_bytes + 128;
    };
    m.eden.root_prep_seconds = transpose_seconds;  // sequential at master
    m.eden.flat = true;
    m.eden.static_sched = true;
    m.eden.straggler = {0.02, 3.0, 0xEDE12};
    // A fixed runtime buffer pool: comfortably holds one node's worth of
    // in-flight task data (A + 15 copies of BT) but not two nodes' worth.
    m.eden.buffer_capacity = a_bytes + 24 * bt_bytes;
    m.eden.net.copy_cost_per_byte *= 3.0;
    m.eden.net.fixed_overhead *= 4.0;
  }

  // Result: each part returns its output block (cells are evenly split).
  auto result_bytes = [&p, row](index_t ulo, index_t uhi) {
    return (row(uhi) - row(ulo)) * p.m() * 4 + 64;
  };
  auto combine = [&p, row](index_t ulo, index_t uhi) {
    return static_cast<double>((row(uhi) - row(ulo)) * p.m()) * 4 * 0.1e-9;
  };
  for (MeasuredSystem* s : {&m.triolet, &m.lowlevel, &m.eden}) {
    s->result_bytes = result_bytes;
    s->combine_seconds = combine;
  }
  return m;
}

}  // namespace triolet::apps
