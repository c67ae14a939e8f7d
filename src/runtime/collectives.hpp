#pragma once

#include <cmath>
#include <vector>

#include "runtime/dist.hpp"
#include "runtime/exchange.hpp"
#include "runtime/grid.hpp"
#include "sim/check.hpp"

// The communication primitives the paper's algorithms are built from:
//
//   - one_to_all_broadcast: root sends a vector to every group member
//     (the splitter broadcast of sample sort under (MP-)BSP, cost
//     g*(P-1) + L);
//   - two_phase_broadcast: scatter + all-gather within a group, the
//     optimal BSP broadcast of [16] used by the APSP row/column broadcast
//     (cost 2*(g*n + L) instead of g*n*|group|);
//   - multiscan: the BSP multi-scan of [16] — processor p holds counts for
//     every bucket b; the result gives the exclusive prefix over processors
//     per bucket (cost T_scan = 2*(g*P + L)); sample sort uses it to compute
//     send addresses;
//   - bpram_allgather_one: the sqrt(P) x sqrt(P) transpose-based broadcast
//     of Section 4.3.1 (each processor contributes one value, everyone ends
//     with all P; 2*sqrt(P) block steps of sqrt(P)-element messages).
//
// All primitives run on real data and charge real (simulated) time through
// the Exchange layer; `mode` picks word (BSP-style) or block (MP-BPRAM
// style) transfers. Because every data motion goes through Exchange/Mailbox,
// the collectives are fully covered by the race detector (--race): each
// mailbox consumption below re-checks the delivery epoch, so a collective
// that leaked a parcel across a reset() would be caught as a stale read.

namespace pcm::runtime {

/// Root sends `data` to every member of `group` (including itself, free).
/// Sends are staggered in group order. Returns nothing: every member's copy
/// is by construction `data`; callers track that locally.
template <typename T>
void one_to_all_broadcast(machines::Machine& m, int root,
                          const std::vector<int>& group,
                          const std::vector<T>& data, TransferMode mode) {
  Exchange<T> ex(m, mode);
  for (int g : group) {
    if (g == root) continue;
    ex.send(root, g, std::span<const T>(data));
  }
  (void)ex.run();
}

/// Scatter+all-gather broadcast: `root` holds `data`; afterwards every
/// member of `group` holds it. Returns the gathered copy (identical for all
/// members; returned once to let callers install it).
template <typename T>
std::vector<T> two_phase_broadcast(machines::Machine& m, int root,
                                   const std::vector<int>& group,
                                   const std::vector<T>& data,
                                   TransferMode mode) {
  const int g = static_cast<int>(group.size());
  PCM_CHECK(g > 0);
  BlockDist dist{static_cast<long>(data.size()), g};

  // Superstep 1: scatter chunks across the group.
  Exchange<T> ex(m, mode);
  for (int i = 0; i < g; ++i) {
    const auto [lo, hi] = dist.range_of(i);
    if (hi == lo || group[static_cast<std::size_t>(i)] == root) continue;
    ex.send(root, group[static_cast<std::size_t>(i)],
            std::span<const T>(data.data() + lo, static_cast<std::size_t>(hi - lo)));
  }
  (void)ex.run();

  // Superstep 2: all-gather — member i sends its chunk to every other
  // member, staggered so that member i starts with destination i+1.
  for (int i = 0; i < g; ++i) {
    const auto [lo, hi] = dist.range_of(i);
    if (hi == lo) continue;
    const std::span<const T> chunk(data.data() + lo,
                                   static_cast<std::size_t>(hi - lo));
    for (int d = 1; d < g; ++d) {
      const int dst = group[static_cast<std::size_t>((i + d) % g)];
      if (dst == group[static_cast<std::size_t>(i)]) continue;
      ex.send(group[static_cast<std::size_t>(i)], dst, chunk);
    }
  }
  (void)ex.run();
  return data;
}

/// BSP multi-scan [16]: counts[p][b] = number of items processor p sends to
/// bucket b (b < P). Returns offsets[p][b] = sum over p' < p of
/// counts[p'][b] — the write addresses sample sort needs. Two supersteps of
/// P-relations (T_scan = 2*(g*P + L)).
template <typename T>
std::vector<std::vector<T>> multiscan(machines::Machine& m,
                                      const std::vector<std::vector<T>>& counts,
                                      TransferMode mode) {
  const int P = m.procs();
  PCM_CHECK(static_cast<int>(counts.size()) == P);

  // Superstep 1: transpose — processor p sends counts[p][b] to processor b.
  Exchange<T> ex(m, mode);
  for (int p = 0; p < P; ++p) {
    PCM_CHECK(static_cast<int>(counts[static_cast<std::size_t>(p)].size()) == P);
    for (int d = 0; d < P; ++d) {
      const int b = (p + d) % P;  // staggered
      ex.send_value(p, b, counts[static_cast<std::size_t>(p)][static_cast<std::size_t>(b)], p);
    }
  }
  const auto& box = ex.run();

  // Local prefix sums per bucket owner; charge P ops each.
  std::vector<std::vector<T>> column(static_cast<std::size_t>(P));
  for (int b = 0; b < P; ++b) {
    auto& col = column[static_cast<std::size_t>(b)];
    col.assign(static_cast<std::size_t>(P), T{});
    for (const auto& parcel : box.at(b)) {
      col[static_cast<std::size_t>(parcel.src)] = parcel.data.front();
    }
    T acc{};
    for (int p = 0; p < P; ++p) {
      const T c = col[static_cast<std::size_t>(p)];
      col[static_cast<std::size_t>(p)] = acc;
      acc = static_cast<T>(acc + c);
    }
    m.charge(b, m.compute().ops_time(P));
  }

  // Superstep 2: send the exclusive prefixes back.
  for (int b = 0; b < P; ++b) {
    for (int d = 0; d < P; ++d) {
      const int p = (b + d) % P;  // staggered
      ex.send_value(b, p, column[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)], b);
    }
  }
  const auto& box2 = ex.run();

  std::vector<std::vector<T>> offsets(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    auto& row = offsets[static_cast<std::size_t>(p)];
    row.assign(static_cast<std::size_t>(P), T{});
    for (const auto& parcel : box2.at(p)) {
      row[static_cast<std::size_t>(parcel.tag)] = parcel.data.front();
    }
  }
  return offsets;
}

/// Transpose of a P x P matrix held row-per-processor, using the
/// sqrt(P) x sqrt(P) submatrix scheme of Section 4.3.1: each processor
/// transposes one sqrt(P) x sqrt(P) submatrix, receiving sqrt(P) block
/// messages of length sqrt(P) and re-sending the transposed blocks —
/// 2*sqrt(P) single-port block steps. P must be a perfect square.
template <typename T>
std::vector<std::vector<T>> bpram_transpose(
    machines::Machine& m, const std::vector<std::vector<T>>& rows) {
  const int P = m.procs();
  PCM_CHECK(static_cast<int>(rows.size()) == P);
  const Grid2 grid = Grid2::fit(P);
  const int s = grid.side;
  PCM_CHECK(s * s == P && "bpram_transpose needs a perfect-square P");

  // Phase 1: row owner p = (a, pl) sends its segment for column block b to
  // the transposer u = (a, b), staggered over b.
  // Transposer (a, b) collects M[r][c] for r in a-block, c in b-block.
  std::vector<std::vector<T>> sub(static_cast<std::size_t>(P));
  for (auto& v : sub) v.assign(static_cast<std::size_t>(s) * s, T{});
  Exchange<T> ex(m, TransferMode::Block);
  for (int t = 0; t < s; ++t) {
    for (int p = 0; p < P; ++p) {
      const int a = p / s, pl = p % s;
      const int b = (pl + t) % s;
      const int u = a * s + b;
      const auto& row = rows[static_cast<std::size_t>(p)];
      PCM_CHECK(static_cast<int>(row.size()) == P);
      std::vector<T> seg(row.begin() + b * s, row.begin() + (b + 1) * s);
      if (u == p) {
        for (int c = 0; c < s; ++c)
          sub[static_cast<std::size_t>(u)][static_cast<std::size_t>(pl) * s + c] = seg[static_cast<std::size_t>(c)];
      } else {
        ex.send(p, u, seg, pl);
      }
    }
    const auto& box = ex.run();
    for (int u = 0; u < P; ++u) {
      for (const auto& parcel : box.at(u)) {
        const int r_local = parcel.tag;
        for (int c = 0; c < s; ++c) {
          sub[static_cast<std::size_t>(u)][static_cast<std::size_t>(r_local) * s + c] =
              parcel.data[static_cast<std::size_t>(c)];
        }
      }
    }
  }

  // Phase 2: transposer (a, b) sends column c (of its submatrix) to the
  // global column owner b*s + c_local, staggered.
  std::vector<std::vector<T>> cols(static_cast<std::size_t>(P));
  for (auto& v : cols) v.assign(static_cast<std::size_t>(P), T{});
  for (int t = 0; t < s; ++t) {
    for (int u = 0; u < P; ++u) {
      const int a = u / s, b = u % s;
      const int cl = (a + t) % s;  // staggered column choice
      const int dst = b * s + cl;
      std::vector<T> seg(static_cast<std::size_t>(s));
      for (int r = 0; r < s; ++r)
        seg[static_cast<std::size_t>(r)] = sub[static_cast<std::size_t>(u)][static_cast<std::size_t>(r) * s + cl];
      if (dst == u) {
        for (int r = 0; r < s; ++r)
          cols[static_cast<std::size_t>(dst)][static_cast<std::size_t>(a) * s + r] = seg[static_cast<std::size_t>(r)];
      } else {
        ex.send(u, dst, seg, a);
      }
    }
    const auto& box = ex.run();
    for (int c = 0; c < P; ++c) {
      for (const auto& parcel : box.at(c)) {
        const int a = parcel.tag;
        for (int r = 0; r < s; ++r) {
          cols[static_cast<std::size_t>(c)][static_cast<std::size_t>(a) * s + r] =
              parcel.data[static_cast<std::size_t>(r)];
        }
      }
    }
  }
  return cols;
}

/// MP-BPRAM multi-scan (Section 4.3.1): same result as multiscan() but built
/// from two transposes (4*sqrt(P) block steps, the paper's
/// 4*sqrt(P)*(sigma*w*sqrt(P) + ell) cost).
template <typename T>
std::vector<std::vector<T>> bpram_multiscan(
    machines::Machine& m, const std::vector<std::vector<T>>& counts) {
  const int P = m.procs();
  auto cols = bpram_transpose(m, counts);
  // Processor b owns column b: exclusive prefix over processors.
  for (int b = 0; b < P; ++b) {
    auto& col = cols[static_cast<std::size_t>(b)];
    T acc{};
    for (int p = 0; p < P; ++p) {
      const T c = col[static_cast<std::size_t>(p)];
      col[static_cast<std::size_t>(p)] = acc;
      acc = static_cast<T>(acc + c);
    }
    m.charge(b, m.compute().ops_time(P));
  }
  return bpram_transpose(m, cols);
}

/// Transpose-based all-gather of Section 4.3.1 (MP-BPRAM): every processor
/// contributes one value; afterwards every processor holds all P values
/// (indexed by contributor). Runs in 2*sqrt(P) single-port block steps of
/// sqrt(P)-element messages. P must be a perfect square.
template <typename T>
std::vector<std::vector<T>> bpram_allgather_one(machines::Machine& m,
                                                const std::vector<T>& value) {
  const int P = m.procs();
  PCM_CHECK(static_cast<int>(value.size()) == P);
  const Grid2 grid = Grid2::fit(P);
  const int s = grid.side;
  PCM_CHECK(s * s == P && "bpram_allgather_one needs a perfect-square P");

  // Phase 1: sqrt(P) single-port steps. In step t, processor c = (cb, cl)
  // sends s copies of its value to the submatrix transposer u = (a, cb)
  // with a = (cl + t) mod s (staggered so each step is a permutation).
  std::vector<std::vector<T>> gathered(static_cast<std::size_t>(P));
  // transposer u collects pairs (contributor, value)
  std::vector<std::vector<std::pair<int, T>>> sub(static_cast<std::size_t>(P));
  Exchange<T> ex(m, TransferMode::Block);
  for (int t = 0; t < s; ++t) {
    for (int c = 0; c < P; ++c) {
      const int cb = c / s, cl = c % s;
      const int a = (cl + t) % s;
      const int u = a * s + cb;
      ex.send(c, u, std::vector<T>(static_cast<std::size_t>(s),
                                   value[static_cast<std::size_t>(c)]),
              c);
    }
    const auto& box = ex.run();
    for (int u = 0; u < P; ++u) {
      for (const auto& parcel : box.at(u)) {
        sub[static_cast<std::size_t>(u)].emplace_back(parcel.tag, parcel.data.front());
      }
    }
  }

  // Phase 2: transposer u = (a, b) sends the block-b values to every member
  // of row-block a, one block message per step.
  for (int t = 0; t < s; ++t) {
    for (int u = 0; u < P; ++u) {
      const int a = u / s, b = u % s;
      const int r = a * s + (b + t) % s;
      std::vector<T> blockvals;
      std::vector<int> contributors;
      blockvals.reserve(static_cast<std::size_t>(s));
      for (const auto& [c, v] : sub[static_cast<std::size_t>(u)]) {
        blockvals.push_back(v);
        contributors.push_back(c);
      }
      ex.send(u, r, blockvals, u);
      (void)r;
      (void)contributors;
    }
    const auto& box = ex.run();
    for (int r = 0; r < P; ++r) {
      for (const auto& parcel : box.at(r)) {
        auto& g = gathered[static_cast<std::size_t>(r)];
        if (g.empty()) g.assign(static_cast<std::size_t>(P), T{});
        const int u = parcel.tag;
        const auto& contributed = sub[static_cast<std::size_t>(u)];
        for (std::size_t i = 0; i < parcel.data.size() && i < contributed.size(); ++i) {
          g[static_cast<std::size_t>(contributed[i].first)] = parcel.data[i];
        }
      }
    }
  }
  return gathered;
}

/// Binomial-tree broadcast: log2(group) rounds; in round k every processor
/// that already has the data forwards it to the member 2^k positions ahead.
/// The [16] analysis: the tree costs (g*n + L)*log P — better than the
/// two-phase broadcast only for small vectors, where the 2L term dominates.
template <typename T>
std::vector<T> tree_broadcast(machines::Machine& m, int root,
                              const std::vector<int>& group,
                              const std::vector<T>& data, TransferMode mode) {
  const int g = static_cast<int>(group.size());
  PCM_CHECK(g > 0);
  // Rotate the group so the root sits at position 0.
  int root_pos = 0;
  for (int i = 0; i < g; ++i) {
    if (group[static_cast<std::size_t>(i)] == root) root_pos = i;
  }
  auto member = [&](int logical) {
    return group[static_cast<std::size_t>((root_pos + logical) % g)];
  };
  Exchange<T> ex(m, mode);
  for (int have = 1; have < g; have <<= 1) {
    for (int src = 0; src < have; ++src) {
      const int dst = src + have;
      if (dst >= g) break;
      ex.send(member(src), member(dst), std::span<const T>(data));
    }
    (void)ex.run();
    m.barrier();
  }
  return data;
}

/// Reduction to `root` over a group: mirror of the tree broadcast
/// (log2(group) combining rounds). `op` combines two T values.
template <typename T, typename Op>
T tree_reduce(machines::Machine& m, int root, const std::vector<int>& group,
              const std::vector<T>& contribution, Op op, TransferMode mode) {
  const int g = static_cast<int>(group.size());
  PCM_CHECK(static_cast<int>(contribution.size()) == g &&
         "one contribution per group member, indexed by group position");
  int root_pos = 0;
  for (int i = 0; i < g; ++i) {
    if (group[static_cast<std::size_t>(i)] == root) root_pos = i;
  }
  auto member = [&](int logical) {
    return group[static_cast<std::size_t>((root_pos + logical) % g)];
  };
  std::vector<T> acc = contribution;
  // Rotate accumulators into root-relative positions.
  std::vector<T> rel(static_cast<std::size_t>(g));
  for (int i = 0; i < g; ++i) {
    rel[static_cast<std::size_t>(i)] =
        acc[static_cast<std::size_t>((root_pos + i) % g)];
  }
  int span = 1;
  while (span < g) span <<= 1;
  Exchange<T> ex(m, mode);
  for (int half = span >> 1; half >= 1; half >>= 1) {
    for (int src = half; src < std::min(2 * half, g); ++src) {
      ex.send_value(member(src), member(src - half),
                    rel[static_cast<std::size_t>(src)], src);
    }
    const auto& box = ex.run();
    for (int dst = 0; dst < half; ++dst) {
      for (const auto& parcel : box.at(member(dst))) {
        rel[static_cast<std::size_t>(dst)] =
            op(rel[static_cast<std::size_t>(dst)], parcel.data.front());
        m.charge(member(dst), m.compute().op);
      }
    }
    m.barrier();
  }
  return rel[0];
}

/// Exclusive prefix (scan) over one value per processor, by the two-superstep
/// BSP scheme of [16]: gather-to-groups, local scan, redistribute. Here the
/// simple log-rounds Hillis-Steele variant, adequate for tests and examples.
template <typename T>
std::vector<T> prefix_scan(machines::Machine& m, const std::vector<T>& value,
                           TransferMode mode) {
  const int P = m.procs();
  PCM_CHECK(static_cast<int>(value.size()) == P);
  std::vector<T> incl = value;
  Exchange<T> ex(m, mode);
  for (int d = 1; d < P; d <<= 1) {
    for (int p = 0; p + d < P; ++p) {
      ex.send_value(p, p + d, incl[static_cast<std::size_t>(p)], p);
    }
    const auto& box = ex.run();
    for (int p = d; p < P; ++p) {
      for (const auto& parcel : box.at(p)) {
        incl[static_cast<std::size_t>(p)] = static_cast<T>(
            incl[static_cast<std::size_t>(p)] + parcel.data.front());
        m.charge(p, m.compute().op);
      }
    }
    m.barrier();
  }
  // Inclusive -> exclusive: excl[p] = incl[p-1].
  std::vector<T> excl(static_cast<std::size_t>(P), T{});
  for (int p = 1; p < P; ++p) {
    excl[static_cast<std::size_t>(p)] = incl[static_cast<std::size_t>(p - 1)];
  }
  return excl;
}

}  // namespace pcm::runtime
