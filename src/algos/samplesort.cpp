#include "algos/samplesort.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "algos/bitonic.hpp"
#include "algos/local/radix_sort.hpp"
#include "runtime/collectives.hpp"
#include "runtime/dist.hpp"
#include "runtime/exchange.hpp"
#include "runtime/grid.hpp"

namespace pcm::algos {

std::string_view to_string(SampleSortVariant v) {
  switch (v) {
    case SampleSortVariant::Bpram: return "mp-bpram";
    case SampleSortVariant::StaggeredPacked: return "staggered-packed";
  }
  return "?";
}

namespace {

// Route keys to their bucket owners with the fixed-size two-dimensional
// scheme (see header): view the processors as a sqrt(P) x sqrt(P) grid;
// first route along rows to the bucket's column, then along columns to the
// bucket's row. Each phase runs 2 rounds of sqrt(P) staggered single-port
// steps with messages padded to capacity = 4M/sqrt(P) keys (tag carries the
// true count).
std::vector<std::vector<std::uint32_t>> route_bpram(
    machines::Machine& m, std::vector<std::vector<std::uint32_t>> outgoing,
    const std::vector<std::vector<int>>& bucket_of_key, long mean_keys) {
  const int P = m.procs();
  const runtime::Grid2 grid = runtime::Grid2::fit(P);
  const int s = grid.side;
  assert(s * s == P);
  const long cap = std::max<long>(1, 4 * mean_keys / s);

  // Working sets: keys currently at proc p, with their final bucket.
  struct Item {
    std::uint32_t key;
    int bucket;
  };
  std::vector<std::vector<Item>> at(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    auto& v = at[static_cast<std::size_t>(p)];
    const auto& keys = outgoing[static_cast<std::size_t>(p)];
    const auto& buckets = bucket_of_key[static_cast<std::size_t>(p)];
    v.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) v.push_back({keys[i], buckets[i]});
  }

  runtime::Exchange<std::uint32_t> ex(m, runtime::TransferMode::Block);
  auto phase = [&](bool column_phase) {
    // Nominally 2 rounds of sqrt(P)-1 staggered steps (the fixed-size block
    // scheme of [14]); extra rounds only if pathological skew overflows the
    // per-step capacity.
    for (int round = 0; round < 8; ++round) {
      bool pending = false;
      for (int t = 1; t < s; ++t) {
        // Each proc picks up to `cap` items whose target lane matches the
        // staggered destination of this step.
        std::vector<std::vector<Item>> in_flight(static_cast<std::size_t>(P));
        for (int p = 0; p < P; ++p) {
          const int pr = p / s, pc = p % s;
          const int lane = column_phase ? (pc + t) % s : (pr + t) % s;
          const int dst = column_phase ? pr * s + lane : lane * s + pc;
          auto& mine = at[static_cast<std::size_t>(p)];
          std::vector<std::uint32_t> payload;
          payload.reserve(static_cast<std::size_t>(cap));
          auto& moving = in_flight[static_cast<std::size_t>(p)];
          for (std::size_t i = 0;
               i < mine.size() && static_cast<long>(payload.size()) < cap;) {
            const int want = column_phase ? mine[i].bucket % s : mine[i].bucket / s;
            if (want == lane) {
              payload.push_back(mine[i].key);
              moving.push_back(mine[i]);
              mine[i] = mine.back();
              mine.pop_back();
            } else {
              ++i;
            }
          }
          const int count = static_cast<int>(payload.size());
          // Fixed-size scheme: pad to capacity (the single-port routing of
          // [14] ships full blocks; tag carries the real count).
          payload.resize(static_cast<std::size_t>(cap), 0);
          ex.send(p, dst, payload, count);
        }
        const auto& box = ex.run();
        for (int p = 0; p < P; ++p) {
          runtime::for_each_parcel_once(m, box.at(p), [&](const auto& parcel) {
            const int count = parcel.tag;
            const auto& mv = in_flight[static_cast<std::size_t>(parcel.src)];
            for (int i = 0; i < count; ++i) {
              at[static_cast<std::size_t>(p)].push_back(mv[static_cast<std::size_t>(i)]);
            }
          });
        }
        m.barrier();
      }
      if (round < 1) continue;  // always run the scheme's nominal 2 rounds
      for (int p = 0; p < P && !pending; ++p) {
        for (const auto& it : at[static_cast<std::size_t>(p)]) {
          const int want = column_phase ? it.bucket % s : it.bucket / s;
          const int have = column_phase ? p % s : p / s;
          if (want != have) {
            pending = true;
            break;
          }
        }
      }
      if (!pending) break;
    }
  };

  phase(/*column_phase=*/true);
  phase(/*column_phase=*/false);

  std::vector<std::vector<std::uint32_t>> buckets(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    for (const auto& it : at[static_cast<std::size_t>(p)]) {
      assert(it.bucket == p && "routing must deliver keys to bucket owners");
      buckets[static_cast<std::size_t>(p)].push_back(it.key);
    }
  }
  return buckets;
}

// Staggered packed routing: one pipelined block step; proc p sends the pack
// for bucket (p+d) mod P at stagger offset d.
std::vector<std::vector<std::uint32_t>> route_staggered(
    machines::Machine& m, std::vector<std::vector<std::uint32_t>> outgoing,
    const std::vector<std::vector<int>>& bucket_of_key) {
  const int P = m.procs();
  std::vector<std::vector<std::uint32_t>> buckets(static_cast<std::size_t>(P));
  runtime::Exchange<std::uint32_t> ex(m, runtime::TransferMode::Block);
  for (int p = 0; p < P; ++p) {
    // Pack keys per destination bucket.
    std::vector<std::vector<std::uint32_t>> packs(static_cast<std::size_t>(P));
    const auto& keys = outgoing[static_cast<std::size_t>(p)];
    const auto& bok = bucket_of_key[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < keys.size(); ++i) {
      packs[static_cast<std::size_t>(bok[i])].push_back(keys[i]);
    }
    for (int d = 0; d < P; ++d) {
      const int b = (p + d) % P;
      auto& pack = packs[static_cast<std::size_t>(b)];
      if (pack.empty()) continue;
      if (b == p) {
        auto& own = buckets[static_cast<std::size_t>(p)];
        own.insert(own.end(), pack.begin(), pack.end());
      } else {
        ex.send(p, b, pack);
      }
    }
  }
  const auto& box = ex.run();
  m.barrier();
  for (int p = 0; p < P; ++p) {
    runtime::for_each_parcel_once(m, box.at(p), [&](const auto& parcel) {
      auto& own = buckets[static_cast<std::size_t>(p)];
      own.insert(own.end(), parcel.data.begin(), parcel.data.end());
    });
  }
  return buckets;
}

}  // namespace

void check_samplesort_procs(int procs) {
  // A power of two whose single set bit sits at an even position.
  if (procs <= 0 || (procs & (procs - 1)) != 0 || (procs & 0x55555555) == 0) {
    throw std::invalid_argument("samplesort: procs=" + std::to_string(procs) +
                                " is not a perfect square and a power of two "
                                "(a power of four)");
  }
}

SampleSortResult run_samplesort(machines::Machine& m,
                                const std::vector<std::uint32_t>& keys,
                                int oversampling, SampleSortVariant v) {
  const int P = m.procs();
  check_samplesort_procs(P);
  const int S = oversampling;
  assert(S > 0);
  assert(keys.size() % static_cast<std::size_t>(P) == 0);
  const long M = static_cast<long>(keys.size()) / P;

  m.reset();
  auto runs = runtime::block_scatter(keys, P);

  // ---- Phase 1: splitters -------------------------------------------------
  // Draw S random samples per processor (charged as S ops).
  std::vector<std::vector<std::uint32_t>> samples(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    auto& sp = samples[static_cast<std::size_t>(p)];
    const auto& run = runs[static_cast<std::size_t>(p)];
    sp.reserve(static_cast<std::size_t>(S));
    for (int i = 0; i < S; ++i) {
      sp.push_back(run[static_cast<std::size_t>(m.rng().next_below(run.size()))]);
    }
    m.charge(p, m.compute().ops_time(S));
  }
  m.barrier();

  // Sort the P*S samples with bitonic sort (block transfers for the BPRAM
  // formulations of Fig 18).
  bitonic_core(m, samples, BitonicVariant::Bpram);

  // Splitter j = globally ranked j*S sample = first sample of processor j.
  std::vector<std::uint32_t> firsts(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) firsts[static_cast<std::size_t>(p)] = samples[static_cast<std::size_t>(p)].front();
  auto gathered = runtime::bpram_allgather_one(m, firsts);
  // splitters[b] = lower bound of bucket b+1 (P-1 splitters at everyone).
  std::vector<std::uint32_t> splitters(gathered.front().begin() + 1,
                                       gathered.front().end());

  // ---- Phase 2: send ------------------------------------------------------
  // Local sort, then bucket boundaries by a linear splitter walk.
  std::vector<std::vector<int>> bucket_of_key(static_cast<std::size_t>(P));
  std::vector<std::vector<std::uint32_t>> counts(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    auto& run = runs[static_cast<std::size_t>(p)];
    m.charge(p, radix_sort_charged(run, m.compute()));
    auto& bok = bucket_of_key[static_cast<std::size_t>(p)];
    bok.resize(run.size());
    auto& cnt = counts[static_cast<std::size_t>(p)];
    cnt.assign(static_cast<std::size_t>(P), 0);
    int b = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
      while (b < P - 1 && run[i] >= splitters[static_cast<std::size_t>(b)]) ++b;
      bok[i] = b;
      ++cnt[static_cast<std::size_t>(b)];
    }
    m.charge(p, m.compute().ops_time(static_cast<long>(run.size()) + P));
  }
  m.barrier();

  // Multi-scan for the receive addresses (pp_rsend needs explicit target
  // addresses on the MasPar; the GCel/HPVM code needs receive counts).
  auto offsets = runtime::bpram_multiscan(m, counts);
  (void)offsets;
  m.barrier();

  // Route keys to their buckets.
  std::vector<std::vector<std::uint32_t>> buckets;
  if (v == SampleSortVariant::Bpram) {
    buckets = route_bpram(m, runs, bucket_of_key, M);
  } else {
    buckets = route_staggered(m, runs, bucket_of_key);
  }

  // ---- Phase 3: sort the buckets -----------------------------------------
  long max_bucket = 0;
  for (int p = 0; p < P; ++p) {
    auto& b = buckets[static_cast<std::size_t>(p)];
    max_bucket = std::max(max_bucket, static_cast<long>(b.size()));
    m.charge(p, radix_sort_charged(b, m.compute()));
  }
  m.barrier();

  SampleSortResult out;
  out.time = m.now();
  out.time_per_key = (M > 0) ? out.time / static_cast<double>(M) : 0.0;
  out.max_bucket = max_bucket;
  out.keys = runtime::block_gather(buckets);
  return out;
}

}  // namespace pcm::algos
