#include "algos/apsp.hpp"

#include <algorithm>
#include <cassert>

#include "runtime/exchange.hpp"
#include "runtime/grid.hpp"

namespace pcm::algos {

std::string_view to_string(ApspVariant v) {
  switch (v) {
    case ApspVariant::Bsp: return "bsp";
    case ApspVariant::MpBsp: return "mp-bsp";
  }
  return "?";
}

int apsp_grid_side(const machines::Machine& m) {
  return runtime::Grid2::fit(m.procs()).side;
}

namespace {

int ilog2(int v) {
  int b = 0;
  while ((1 << (b + 1)) <= v) ++b;
  return b;
}

// Broadcast an M-element segment within every group simultaneously.
// groups[g] is an ordered list of processor ids; src_of[g] indexes the
// member that owns seg[g]. On return, out[p] holds the full segment of p's
// group for every participating p. Implements the paper's two-phase scheme
// (plus the doubling pre-phase when M < group size).
class GroupBroadcast {
 public:
  GroupBroadcast(machines::Machine& m, ApspVariant v)
      : m_(m), v_(v), ex_(m, runtime::TransferMode::Word) {}

  std::vector<std::vector<float>> run(
      const std::vector<std::vector<int>>& groups,
      const std::vector<int>& src_of,
      const std::vector<std::vector<float>>& seg) {
    const int P = m_.procs();
    const int gsize = static_cast<int>(groups.front().size());
    const long M = static_cast<long>(seg.front().size());
    out_.assign(static_cast<std::size_t>(P), {});
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (int p : groups[g]) {
        out_[static_cast<std::size_t>(p)].assign(static_cast<std::size_t>(M), 0.0f);
      }
    }

    if (M >= gsize) {
      scatter_chunks(groups, src_of, seg, M, gsize);
      allgather_chunks(groups, M, gsize);
    } else {
      scatter_items(groups, src_of, seg, M);
      doubling(groups, M, gsize);
      subgroup_allgather(groups, M);
    }
    return std::move(out_);
  }

 private:
  // Phase A, M >= gsize: source splits the segment into gsize chunks.
  void scatter_chunks(const std::vector<std::vector<int>>& groups,
                      const std::vector<int>& src_of,
                      const std::vector<std::vector<float>>& seg, long M,
                      int gsize) {
    const long cs = M / gsize;  // chunk size (M % gsize folded into last)
    if (v_ == ApspVariant::MpBsp) {
      for (long e = 0; e < M; ++e) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const int src = groups[g][static_cast<std::size_t>(src_of[g])];
          const int member = static_cast<int>(std::min<long>(e / cs, gsize - 1));
          const int dst = groups[g][static_cast<std::size_t>(member)];
          const float val = seg[g][static_cast<std::size_t>(e)];
          if (dst == src) {
            out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)] = val;
          } else {
            ex_.send_value(src, dst, val, static_cast<int>(e));
          }
        }
        deliver();
      }
    } else {
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const int src = groups[g][static_cast<std::size_t>(src_of[g])];
        for (int x = 0; x < gsize; ++x) {
          const int dst = groups[g][static_cast<std::size_t>(x)];
          const long lo = x * cs;
          const long hi = (x == gsize - 1) ? M : lo + cs;
          if (dst == src) {
            for (long e = lo; e < hi; ++e) {
              out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)] =
                  seg[g][static_cast<std::size_t>(e)];
            }
          } else {
            for (long e = lo; e < hi; ++e) {
              ex_.send_value(src, dst, seg[g][static_cast<std::size_t>(e)],
                             static_cast<int>(e));
            }
          }
        }
      }
      deliver();
      m_.barrier();
    }
  }

  // Phase B, M >= gsize: every member re-broadcasts its chunk, staggered.
  void allgather_chunks(const std::vector<std::vector<int>>& groups, long M,
                        int gsize) {
    const long cs = M / gsize;
    if (v_ == ApspVariant::MpBsp) {
      for (int d = 1; d < gsize; ++d) {
        for (long e2 = 0; e2 < cs; ++e2) {
          stage_allgather(groups, M, gsize, d, e2, cs, /*last_extra=*/false);
          deliver();
        }
      }
      // Remainder elements of the last chunk (when gsize does not divide M).
      for (long e = cs * gsize; e < M; ++e) {
        for (int d = 1; d < gsize; ++d) {
          for (std::size_t g = 0; g < groups.size(); ++g) {
            const int src = groups[g][static_cast<std::size_t>(gsize - 1)];
            const int dst = groups[g][static_cast<std::size_t>((gsize - 1 + d) % gsize)];
            ex_.send_value(src, dst,
                           out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)],
                           static_cast<int>(e));
          }
          deliver();
        }
      }
    } else {
      for (std::size_t g = 0; g < groups.size(); ++g) {
        for (int x = 0; x < gsize; ++x) {
          const int src = groups[g][static_cast<std::size_t>(x)];
          const long lo = x * cs;
          const long hi = (x == gsize - 1) ? M : lo + cs;
          for (int d = 1; d < gsize; ++d) {
            const int dst = groups[g][static_cast<std::size_t>((x + d) % gsize)];
            for (long e = lo; e < hi; ++e) {
              ex_.send_value(src, dst,
                             out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)],
                             static_cast<int>(e));
            }
          }
        }
      }
      deliver();
      m_.barrier();
    }
  }

  void stage_allgather(const std::vector<std::vector<int>>& groups, long M,
                       int gsize, int d, long e2, long cs, bool last_extra) {
    (void)M;
    (void)last_extra;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (int x = 0; x < gsize; ++x) {
        const int src = groups[g][static_cast<std::size_t>(x)];
        const int dst = groups[g][static_cast<std::size_t>((x + d) % gsize)];
        const long e = x * cs + e2;
        ex_.send_value(src, dst,
                       out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)],
                       static_cast<int>(e));
      }
    }
  }

  // Phase A, M < gsize: item e goes to member e.
  void scatter_items(const std::vector<std::vector<int>>& groups,
                     const std::vector<int>& src_of,
                     const std::vector<std::vector<float>>& seg, long M) {
    if (v_ == ApspVariant::MpBsp) {
      for (long e = 0; e < M; ++e) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const int src = groups[g][static_cast<std::size_t>(src_of[g])];
          const int dst = groups[g][static_cast<std::size_t>(e)];
          const float val = seg[g][static_cast<std::size_t>(e)];
          if (dst == src) {
            out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)] = val;
          } else {
            ex_.send_value(src, dst, val, static_cast<int>(e));
          }
        }
        deliver();
      }
    } else {
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const int src = groups[g][static_cast<std::size_t>(src_of[g])];
        for (long e = 0; e < M; ++e) {
          const int dst = groups[g][static_cast<std::size_t>(e)];
          if (dst == src) {
            out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)] =
                seg[g][static_cast<std::size_t>(e)];
          } else {
            ex_.send_value(src, dst, seg[g][static_cast<std::size_t>(e)],
                           static_cast<int>(e));
          }
        }
      }
      deliver();
      m_.barrier();
    }
  }

  // Doubling pre-phase, M < gsize: after round i, members [0, M*2^(i+1))
  // hold item (member index mod M).
  void doubling(const std::vector<std::vector<int>>& groups, long M,
                int gsize) {
    const int rounds = ilog2(gsize / static_cast<int>(M));
    for (int i = 0; i < rounds; ++i) {
      const long holders = M << i;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        for (long x = 0; x < holders; ++x) {
          const int src = groups[g][static_cast<std::size_t>(x)];
          const int dst = groups[g][static_cast<std::size_t>(x + holders)];
          const long e = x % M;
          ex_.send_value(src, dst,
                         out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)],
                         static_cast<int>(e));
        }
      }
      deliver();
      if (v_ == ApspVariant::Bsp) m_.barrier();
    }
  }

  // Final all-gather within subgroups of M consecutive members.
  void subgroup_allgather(const std::vector<std::vector<int>>& groups, long M) {
    const int Mi = static_cast<int>(M);
    if (v_ == ApspVariant::MpBsp) {
      for (int d = 1; d < Mi; ++d) {
        stage_subgroup(groups, Mi, d);
        deliver();
      }
    } else {
      for (int d = 1; d < Mi; ++d) stage_subgroup(groups, Mi, d);
      deliver();
      m_.barrier();
    }
  }

  void stage_subgroup(const std::vector<std::vector<int>>& groups, int Mi,
                      int d) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const int gsize = static_cast<int>(groups[g].size());
      for (int x = 0; x < gsize; ++x) {
        const int base = x - x % Mi;
        const int peer = base + (x - base + d) % Mi;
        const int src = groups[g][static_cast<std::size_t>(x)];
        const int dst = groups[g][static_cast<std::size_t>(peer)];
        const long e = x % Mi;
        ex_.send_value(src, dst,
                       out_[static_cast<std::size_t>(src)][static_cast<std::size_t>(e)],
                       static_cast<int>(e));
      }
    }
  }

  void deliver() {
    const auto& box = ex_.run();
    for (int p = 0; p < m_.procs(); ++p) {
      auto& dstv = out_[static_cast<std::size_t>(p)];
      for (const auto& parcel : box.at(p)) {
        dstv[static_cast<std::size_t>(parcel.tag)] = parcel.data.front();
      }
    }
  }

  machines::Machine& m_;
  ApspVariant v_;
  std::vector<std::vector<float>> out_;
  /// One Exchange serves every broadcast step of the run.
  runtime::Exchange<float> ex_;
};

}  // namespace

ApspResult run_apsp(machines::Machine& m, const std::vector<float>& d0, int n,
                    ApspVariant v) {
  const runtime::Grid2 grid = runtime::Grid2::fit(m.procs());
  const int s = grid.side;
  assert(n % s == 0 && "N must be divisible by sqrt(P)");
  const int M = n / s;
  assert(static_cast<long>(d0.size()) == static_cast<long>(n) * n);

  m.reset();

  // Distribute blocks: proc (r,c) holds D[rM.., cM..] (M x M row-major).
  std::vector<std::vector<float>> block(static_cast<std::size_t>(m.procs()));
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      auto& b = block[static_cast<std::size_t>(grid.rank(r, c))];
      b.resize(static_cast<std::size_t>(M) * M);
      for (int i = 0; i < M; ++i) {
        for (int j = 0; j < M; ++j) {
          b[static_cast<std::size_t>(i) * M + j] =
              d0[(static_cast<long>(r) * M + i) * n + (static_cast<long>(c) * M + j)];
        }
      }
    }
  }

  // Group lists (rows and columns of the processor grid).
  std::vector<std::vector<int>> row_groups(static_cast<std::size_t>(s));
  std::vector<std::vector<int>> col_groups(static_cast<std::size_t>(s));
  for (int r = 0; r < s; ++r) row_groups[static_cast<std::size_t>(r)] = grid.row_members(r);
  for (int c = 0; c < s; ++c) col_groups[static_cast<std::size_t>(c)] = grid.col_members(c);

  GroupBroadcast bcast(m, v);

  for (int k = 0; k < n; ++k) {
    const int owner = k / M;   // owner column (for X) / owner row (for Y)
    const int klocal = k % M;

    // X: active column segment, broadcast across each processor row.
    std::vector<std::vector<float>> xseg(static_cast<std::size_t>(s));
    for (int r = 0; r < s; ++r) {
      const auto& b = block[static_cast<std::size_t>(grid.rank(r, owner))];
      auto& segv = xseg[static_cast<std::size_t>(r)];
      segv.resize(static_cast<std::size_t>(M));
      for (int i = 0; i < M; ++i) segv[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i) * M + klocal];
    }
    std::vector<int> src_pos(static_cast<std::size_t>(s), owner);
    auto xs = bcast.run(row_groups, src_pos, xseg);

    // Y: active row segment, broadcast down each processor column.
    std::vector<std::vector<float>> yseg(static_cast<std::size_t>(s));
    for (int c = 0; c < s; ++c) {
      const auto& b = block[static_cast<std::size_t>(grid.rank(owner, c))];
      auto& segv = yseg[static_cast<std::size_t>(c)];
      segv.assign(b.begin() + static_cast<long>(klocal) * M,
                  b.begin() + static_cast<long>(klocal + 1) * M);
    }
    // Column group g's source is the member at row `owner`.
    auto ys = bcast.run(col_groups, src_pos, yseg);

    // Local relaxation: D[i][j] = min(D[i][j], X[i] + Y[j]).
    for (int r = 0; r < s; ++r) {
      for (int c = 0; c < s; ++c) {
        const int p = grid.rank(r, c);
        auto& b = block[static_cast<std::size_t>(p)];
        const auto& X = xs[static_cast<std::size_t>(p)];
        const auto& Y = ys[static_cast<std::size_t>(p)];
        for (int i = 0; i < M; ++i) {
          const float xi = X[static_cast<std::size_t>(i)];
          float* row = &b[static_cast<std::size_t>(i) * M];
          for (int j = 0; j < M; ++j) {
            row[j] = std::min(row[j], xi + Y[static_cast<std::size_t>(j)]);
          }
        }
        m.charge(p, m.compute().alpha * static_cast<double>(M) * M);
      }
    }
    if (v == ApspVariant::Bsp) m.barrier();
  }
  m.barrier();

  ApspResult out;
  out.time = m.now();
  out.dist.resize(static_cast<std::size_t>(n) * n);
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      const auto& b = block[static_cast<std::size_t>(grid.rank(r, c))];
      for (int i = 0; i < M; ++i) {
        for (int j = 0; j < M; ++j) {
          out.dist[(static_cast<long>(r) * M + i) * n + (static_cast<long>(c) * M + j)] =
              b[static_cast<std::size_t>(i) * M + j];
        }
      }
    }
  }
  return out;
}

}  // namespace pcm::algos
