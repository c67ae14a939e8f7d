#include "algos/parallel_radix.hpp"

#include <cassert>

#include "runtime/dist.hpp"
#include "runtime/exchange.hpp"

namespace pcm::algos {

namespace {

// Owner of digit value v when P processors share `radix` digit values.
int digit_owner(int v, int radix, int procs) {
  return static_cast<int>(static_cast<long>(v) * procs / radix);
}

}  // namespace

ParallelRadixResult run_parallel_radix(machines::Machine& m,
                                       const std::vector<std::uint32_t>& keys,
                                       int radix_bits) {
  const int P = m.procs();
  assert(radix_bits > 0 && radix_bits <= 16);
  const int radix = 1 << radix_bits;
  assert((radix % P == 0 || P % radix == 0) &&
         "digit values must map evenly onto processors");
  assert(keys.size() % static_cast<std::size_t>(P) == 0);
  const long M = static_cast<long>(keys.size()) / P;
  const auto& lc = m.compute();

  m.reset();
  auto runs = runtime::block_scatter(keys, P);
  // One Exchange for the ranking steps, one for the key routing, both
  // reused by every digit pass.
  runtime::Exchange<long> rank_ex(m, runtime::TransferMode::Block);
  runtime::Exchange<std::uint32_t> key_ex(m, runtime::TransferMode::Block);

  for (int shift = 0; shift < 32; shift += radix_bits) {
    // --- 1. local histograms -------------------------------------------
    std::vector<std::vector<long>> hist(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      auto& h = hist[static_cast<std::size_t>(p)];
      h.assign(static_cast<std::size_t>(radix), 0);
      for (const auto k : runs[static_cast<std::size_t>(p)]) {
        ++h[(k >> shift) & (radix - 1)];
      }
      m.charge(p, lc.radix_gamma * static_cast<double>(M) +
                      lc.radix_beta * radix);
    }
    m.barrier();

    // --- 2. global ranking ----------------------------------------------
    // Transpose histogram columns to their digit owners (block sends,
    // staggered destination order).
    const int per_owner = std::max(1, radix / P);
    for (int p = 0; p < P; ++p) {
      for (int d = 0; d < P; ++d) {
        const int q = (p + d) % P;
        std::vector<long> seg;
        for (int v = 0; v < radix; ++v) {
          if (digit_owner(v, radix, P) == q) {
            seg.push_back(hist[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)]);
          }
        }
        if (q == p || seg.empty()) continue;
        rank_ex.send(p, q, seg, p);
      }
    }
    const auto& box1 = rank_ex.run();
    m.barrier();

    // Owner q: per-processor offsets within each owned digit + digit totals.
    // owned_counts[q][v_local][p]
    std::vector<std::vector<std::vector<long>>> owned(static_cast<std::size_t>(P));
    std::vector<std::vector<long>> totals(static_cast<std::size_t>(P));
    for (int q = 0; q < P; ++q) {
      auto& counts = owned[static_cast<std::size_t>(q)];
      counts.assign(static_cast<std::size_t>(per_owner),
                    std::vector<long>(static_cast<std::size_t>(P), 0));
      // Own contribution.
      int vl = 0;
      for (int v = 0; v < radix; ++v) {
        if (digit_owner(v, radix, P) != q) continue;
        counts[static_cast<std::size_t>(vl)][static_cast<std::size_t>(q)] =
            hist[static_cast<std::size_t>(q)][static_cast<std::size_t>(v)];
        ++vl;
      }
      for (const auto& parcel : box1.at(q)) {
        for (std::size_t i = 0; i < parcel.data.size(); ++i) {
          counts[i][static_cast<std::size_t>(parcel.src)] = parcel.data[i];
        }
      }
      auto& tot = totals[static_cast<std::size_t>(q)];
      tot.assign(static_cast<std::size_t>(per_owner), 0);
      for (int v = 0; v < per_owner; ++v) {
        for (int p = 0; p < P; ++p) {
          tot[static_cast<std::size_t>(v)] +=
              counts[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
        }
      }
      m.charge(q, lc.ops_time(static_cast<long>(per_owner) * P));
    }

    // Owners send every processor one combined message: the owned digits'
    // totals plus that processor's per-digit starting offsets (prefix over
    // processors) — one all-to-all instead of two.
    for (int q = 0; q < P; ++q) {
      const auto& counts = owned[static_cast<std::size_t>(q)];
      for (int d = 0; d < P; ++d) {
        const int p = (q + d) % P;
        std::vector<long> payload = totals[static_cast<std::size_t>(q)];
        for (int v = 0; v < per_owner; ++v) {
          long acc = 0;
          for (int pp = 0; pp < p; ++pp) {
            acc += counts[static_cast<std::size_t>(v)][static_cast<std::size_t>(pp)];
          }
          payload.push_back(acc);
        }
        rank_ex.send(q, p, payload, q);  // self-delivery included
      }
      m.charge(q, lc.ops_time(static_cast<long>(per_owner) * P));
    }
    const auto& box2 = rank_ex.run();
    m.barrier();

    std::vector<std::vector<long>> digit_total(static_cast<std::size_t>(P));
    std::vector<std::vector<long>> my_digit_offset(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      auto& dt = digit_total[static_cast<std::size_t>(p)];
      auto& off = my_digit_offset[static_cast<std::size_t>(p)];
      dt.assign(static_cast<std::size_t>(radix), 0);
      off.assign(static_cast<std::size_t>(radix), 0);
      for (const auto& parcel : box2.at(p)) {
        int vl = 0;
        for (int v = 0; v < radix; ++v) {
          if (digit_owner(v, radix, P) != parcel.src) continue;
          dt[static_cast<std::size_t>(v)] = parcel.data[static_cast<std::size_t>(vl)];
          off[static_cast<std::size_t>(v)] =
              parcel.data[static_cast<std::size_t>(per_owner + vl)];
          ++vl;
        }
      }
      m.charge(p, lc.ops_time(radix));
    }

    // --- 3. route keys to their global ranks -----------------------------
    // Global base of digit v = sum of totals of smaller digits.
    // Key position = base[v] + my_digit_offset[p][v] + (stable index).
    std::vector<std::vector<std::uint32_t>> next(static_cast<std::size_t>(P));
    for (auto& r : next) r.assign(static_cast<std::size_t>(M), 0);
    runtime::BlockDist dist{static_cast<long>(keys.size()), P};

    for (int p = 0; p < P; ++p) {
      const auto& dt = digit_total[static_cast<std::size_t>(p)];
      std::vector<long> base(static_cast<std::size_t>(radix), 0);
      long acc = 0;
      for (int v = 0; v < radix; ++v) {
        base[static_cast<std::size_t>(v)] = acc;
        acc += dt[static_cast<std::size_t>(v)];
      }
      // Bucket the keys by digit locally (stable), so each digit's keys
      // occupy one contiguous global range and packs stay coarse.
      std::vector<std::vector<std::uint32_t>> buckets(
          static_cast<std::size_t>(radix));
      for (const auto k : runs[static_cast<std::size_t>(p)]) {
        buckets[(k >> shift) & (radix - 1)].push_back(k);
      }
      // Emit per-destination packs in position order: within a digit the
      // positions are contiguous; a pack splits only at processor
      // boundaries.
      struct Pack {
        int dst;
        long start;
        std::vector<std::uint32_t> data;
      };
      std::vector<Pack> packs;
      const auto& my_off = my_digit_offset[static_cast<std::size_t>(p)];
      for (int v = 0; v < radix; ++v) {
        const auto& bucket = buckets[static_cast<std::size_t>(v)];
        long pos = base[static_cast<std::size_t>(v)] +
                   my_off[static_cast<std::size_t>(v)];
        for (const auto k : bucket) {
          const int dst = dist.owner_of(pos);
          if (!packs.empty() && packs.back().dst == dst &&
              packs.back().start + static_cast<long>(packs.back().data.size()) ==
                  pos) {
            packs.back().data.push_back(k);
          } else {
            packs.push_back(Pack{dst, pos, {k}});
          }
          ++pos;
        }
      }
      m.charge(p, lc.ops_time(M));
      // Aggregate: ONE message per destination, self-framed as
      // [npacks, (start, count)*, keys...] — the standard trick to avoid
      // paying the per-message software overhead once per digit chunk.
      std::vector<std::vector<std::uint32_t>> agg(static_cast<std::size_t>(P));
      std::vector<std::vector<std::uint32_t>> headers(static_cast<std::size_t>(P));
      for (auto& pk : packs) {
        if (pk.dst == p) {
          const long lo = dist.range_of(p).first;
          for (std::size_t i = 0; i < pk.data.size(); ++i) {
            next[static_cast<std::size_t>(p)][static_cast<std::size_t>(pk.start - lo + static_cast<long>(i))] =
                pk.data[i];
          }
          continue;
        }
        auto& h = headers[static_cast<std::size_t>(pk.dst)];
        h.push_back(static_cast<std::uint32_t>(pk.start));
        h.push_back(static_cast<std::uint32_t>(pk.data.size()));
        auto& a = agg[static_cast<std::size_t>(pk.dst)];
        a.insert(a.end(), pk.data.begin(), pk.data.end());
      }
      for (int d = 1; d < P; ++d) {
        const int dst = (p + d) % P;  // staggered
        auto& h = headers[static_cast<std::size_t>(dst)];
        if (h.empty()) continue;
        std::vector<std::uint32_t> payload;
        payload.reserve(1 + h.size() + agg[static_cast<std::size_t>(dst)].size());
        payload.push_back(static_cast<std::uint32_t>(h.size() / 2));
        payload.insert(payload.end(), h.begin(), h.end());
        payload.insert(payload.end(), agg[static_cast<std::size_t>(dst)].begin(),
                       agg[static_cast<std::size_t>(dst)].end());
        key_ex.send(p, dst, payload);
      }
    }
    const auto& box4 = key_ex.run();
    m.barrier();
    for (int p = 0; p < P; ++p) {
      const long lo = dist.range_of(p).first;
      for (const auto& parcel : box4.at(p)) {
        const std::uint32_t npacks = parcel.data[0];
        std::size_t cursor2 = 1 + 2 * static_cast<std::size_t>(npacks);
        for (std::uint32_t i = 0; i < npacks; ++i) {
          const long start = parcel.data[1 + 2 * i];
          const std::uint32_t count = parcel.data[2 + 2 * i];
          for (std::uint32_t k = 0; k < count; ++k) {
            next[static_cast<std::size_t>(p)][static_cast<std::size_t>(start - lo + k)] =
                parcel.data[cursor2++];
          }
        }
      }
      m.charge(p, lc.copy_time(M * 4));
    }
    runs.swap(next);
  }

  ParallelRadixResult out;
  out.time = m.now();
  out.time_per_key = (M > 0) ? out.time / static_cast<double>(M) : 0.0;
  out.keys = runtime::block_gather(runs);
  return out;
}

}  // namespace pcm::algos
