#pragma once

#include <utility>
#include <vector>

#include "runtime/exchange.hpp"
#include "runtime/grid.hpp"
#include "sim/check.hpp"

// The MP-BPRAM collectives of Section 4.3.1 that sample sort is built from:
//
//   - bpram_transpose: a P x P matrix held row-per-processor, transposed by
//     the sqrt(P) x sqrt(P) submatrix scheme (2*sqrt(P) single-port block
//     steps of sqrt(P)-element messages);
//   - bpram_multiscan: two transposes around a local exclusive prefix per
//     bucket, giving every processor its write offsets per bucket (the
//     paper's 4*sqrt(P)*(sigma*w*sqrt(P) + ell) cost);
//   - bpram_allgather_one: the transpose-based broadcast (each processor
//     contributes one value, everyone ends with all P).
//
// All three run on real data and charge real (simulated) time through the
// Exchange layer in Block mode, so every data motion below is routed, timed
// and covered by the race check (--race) like any other Exchange step.

namespace pcm::runtime {

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

/// MP-BPRAM multi-scan (Section 4.3.1): counts[p][b] = number of items
/// processor p sends to bucket b (b < P). Returns offsets[p][b] = sum over
/// p' < p of counts[p'][b], the write addresses sample sort needs. Built from
/// two transposes (4*sqrt(P) block steps, the paper's
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

}  // namespace pcm::runtime
