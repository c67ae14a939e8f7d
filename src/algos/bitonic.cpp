#include "algos/bitonic.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "algos/local/merge.hpp"
#include "algos/local/radix_sort.hpp"
#include "runtime/dist.hpp"
#include "runtime/exchange.hpp"

namespace pcm::algos {

std::string_view to_string(BitonicVariant v) {
  switch (v) {
    case BitonicVariant::MpBsp: return "mp-bsp";
    case BitonicVariant::Bsp: return "bsp";
    case BitonicVariant::BspSynchronized: return "bsp-sync";
    case BitonicVariant::Bpram: return "mp-bpram";
  }
  return "?";
}

namespace {

int ilog2(int v) {
  int b = 0;
  while ((1 << (b + 1)) <= v) ++b;
  return b;
}

}  // namespace

void check_bitonic_procs(int procs) {
  if (procs <= 0 || (procs & (procs - 1)) != 0) {
    throw std::invalid_argument("bitonic: procs=" + std::to_string(procs) +
                                " is not a power of two");
  }
}

void bitonic_core(machines::Machine& m,
                  std::vector<std::vector<std::uint32_t>>& runs,
                  BitonicVariant v) {
  const int P = m.procs();
  check_bitonic_procs(P);
  assert(static_cast<int>(runs.size()) == P);
  const long M = static_cast<long>(runs.front().size());
  for (const auto& r : runs) {
    assert(static_cast<long>(r.size()) == M);
    (void)r;
  }
  const int logp = ilog2(P);

  // Local sort (8-bit radix, paper Section 4.2.1).
  for (int p = 0; p < P; ++p) {
    m.charge(p, radix_sort_charged(runs[static_cast<std::size_t>(p)], m.compute()));
  }
  m.barrier();

  long sent_since_barrier = 0;
  std::vector<std::vector<std::uint32_t>> partner_buf(
      static_cast<std::size_t>(P));
  // One Exchange serves every communication step of the sort.
  runtime::Exchange<std::uint32_t> ex(
      m, v == BitonicVariant::Bpram ? runtime::TransferMode::Block
                                    : runtime::TransferMode::Word);

  auto merge_step = [&](int bit) {
    if (v == BitonicVariant::MpBsp) {
      // One key per PE per communication step: M bit-flip permutations.
      for (long e = 0; e < M; ++e) {
        for (int p = 0; p < P; ++p) {
          ex.send_value(p, p ^ (1 << bit),
                        runs[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)],
                        static_cast<int>(e));
        }
        const auto& box = ex.run();
        for (int p = 0; p < P; ++p) {
          auto& incoming = partner_buf[static_cast<std::size_t>(p)];
          for (const auto& parcel : box.at(p)) {
            incoming[static_cast<std::size_t>(parcel.tag)] = parcel.data.front();
          }
        }
      }
    } else if (v == BitonicVariant::BspSynchronized) {
      // The paper's fix: a barrier after each node has sent and received 256
      // messages — i.e. the M-message stream is chunked *within* the step.
      constexpr long kChunk = 256;
      for (long lo = 0; lo < M; lo += kChunk) {
        const long hi = std::min<long>(M, lo + kChunk);
        for (int p = 0; p < P; ++p) {
          const auto& run = runs[static_cast<std::size_t>(p)];
          ex.send(p, p ^ (1 << bit),
                  std::span<const std::uint32_t>(run.data() + lo,
                                                 static_cast<std::size_t>(hi - lo)),
                  static_cast<int>(lo));
        }
        const auto& box = ex.run();
        for (int p = 0; p < P; ++p) {
          auto& incoming = partner_buf[static_cast<std::size_t>(p)];
          for (const auto& parcel : box.at(p)) {
            // Clip to the parcel's own window [tag, min(tag + kChunk, M)): a
            // duplicated word under a fault plan lengthens the parcel, and
            // those extra words are appended after the body.
            const long room = std::min<long>(M, parcel.tag + kChunk) - parcel.tag;
            const auto words = parcel.data.first(std::min(
                parcel.data.size(), static_cast<std::size_t>(room)));
            std::copy(words.begin(), words.end(), incoming.begin() + parcel.tag);
          }
        }
        sent_since_barrier += hi - lo;
        if (sent_since_barrier >= kChunk) {
          m.barrier();
          sent_since_barrier = 0;
        }
      }
    } else {
      for (int p = 0; p < P; ++p) {
        ex.send(p, p ^ (1 << bit), runs[static_cast<std::size_t>(p)]);
      }
      const auto& box = ex.run();
      for (int p = 0; p < P; ++p) {
        const auto parcels = box.at(p);
        // The whole partner run travels as one parcel; under a data-loss
        // fault plan it can vanish entirely. Fail loudly — a merge against
        // a phantom run would be undefined behaviour, not a wrong answer.
        if (parcels.empty()) {
          throw std::runtime_error(
              "bitonic: PE " + std::to_string(p) +
              " never received its partner run — parcel lost (data-loss "
              "fault?)");
        }
        // Copy at most the run's M keys over the zeroed partner run: under
        // a dup fault plan a duplicated word trails the body of a word-mode
        // run, and under a drop plan the run arrives short.
        const auto run = parcels.front().data;
        const auto words =
            run.first(std::min(run.size(), static_cast<std::size_t>(M)));
        std::copy(words.begin(), words.end(),
                  partner_buf[static_cast<std::size_t>(p)].begin());
      }
      if (v == BitonicVariant::Bpram) {
        m.barrier();  // The MP-BPRAM step is synchronous by definition.
      }
    }
  };

  // One scratch run for every merge: it takes each PE's merged keys and is
  // swapped with that PE's run, whose buffer then serves the next PE.
  std::vector<std::uint32_t> merged;
  for (int d = 1; d <= logp; ++d) {
    for (int j = d - 1; j >= 0; --j) {
      // Zero every partner run in place (a key lost to a fault plan reads
      // as 0); the capacity is reused across merge steps.
      for (auto& buf : partner_buf) buf.assign(static_cast<std::size_t>(M), 0u);
      merge_step(j);
      for (int p = 0; p < P; ++p) {
        const int partner = p ^ (1 << j);
        const bool ascending = ((p >> d) & 1) == 0;
        const bool lower_side = p < partner;
        auto& mine = runs[static_cast<std::size_t>(p)];
        const auto& theirs = partner_buf[static_cast<std::size_t>(p)];
        if (lower_side == ascending) {
          merge_keep_low(mine, theirs, merged);
        } else {
          merge_keep_high(mine, theirs, merged);
        }
        mine.swap(merged);
        m.charge(p, m.compute().merge_time(M));
      }
    }
  }
  m.barrier();
}

BitonicResult run_bitonic(machines::Machine& m,
                          const std::vector<std::uint32_t>& keys,
                          BitonicVariant v) {
  const int P = m.procs();
  assert(keys.size() % static_cast<std::size_t>(P) == 0);
  const long M = static_cast<long>(keys.size()) / P;

  m.reset();
  auto runs = runtime::block_scatter(keys, P);
  bitonic_core(m, runs, v);

  BitonicResult out;
  out.time = m.now();
  out.time_per_key = (M > 0) ? out.time / static_cast<double>(M) : 0.0;
  out.keys = runtime::block_gather(runs);
  return out;
}

}  // namespace pcm::algos
