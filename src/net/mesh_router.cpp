#include "net/mesh_router.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "audit/audit.hpp"

namespace pcm::net {

namespace {

double clipped_jitter(sim::Rng& rng, double sigma) {
  const double g = std::clamp(rng.next_gaussian(), -3.0, 3.0);
  return std::max(0.5, 1.0 + sigma * g);
}

/// Merge the sorted runs data[bounds[r], bounds[r+1]) bottom-up by
/// (t, seq) into one sorted range [bounds.front(), bounds.back()). Runs
/// ping-pong between `data` and `spare`; the result is whichever holds the
/// merged range. Overwrites `bounds`.
template <typename T>
std::span<T> merge_runs(std::span<T> data, std::span<T> spare,
                        std::span<std::size_t> bounds) {
  const auto precedes = [](const T& a, const T& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  };
  std::size_t runs = bounds.size() - 1;
  const std::size_t end = bounds[runs];
  while (runs > 1) {
    std::size_t merged = 0;
    for (std::size_t r = 0; r < runs; r += 2) {
      const T* a = data.data() + bounds[r];
      const T* const a_end = data.data() + bounds[std::min(r + 1, runs)];
      const T* b = a_end;
      const T* const b_end = data.data() + bounds[std::min(r + 2, runs)];
      T* out = spare.data() + bounds[r];
      while (a != a_end && b != b_end) *out++ = precedes(*b, *a) ? *b++ : *a++;
      std::copy(b, b_end, std::copy(a, a_end, out));
      bounds[merged++] = bounds[r];
    }
    bounds[merged] = end;
    runs = merged;
    std::swap(data, spare);
  }
  return data;
}

int checked_procs(int procs, const MeshRouterParams& p) {
  if (p.width <= 0 || p.height <= 0 || p.width * p.height != procs) {
    throw std::invalid_argument(
        "MeshRouter: procs=" + std::to_string(procs) + " does not fill a " +
        std::to_string(p.width) + "x" + std::to_string(p.height) + " mesh");
  }
  if (!(p.o_send >= 0.0) || !(p.copy_send >= 0.0) || !(p.t_hop_lat >= 0.0) ||
      !(p.t_link_byte >= 0.0)) {
    throw std::invalid_argument(
        "MeshRouter: o_send, copy_send, t_hop_lat and t_link_byte must be >= 0");
  }
  return procs;
}

}  // namespace

MeshRouterParams squarest_mesh(int procs) {
  int height = 1;
  for (int d = 1; d <= procs / d; ++d) {
    if (procs % d == 0) height = d;
  }
  MeshRouterParams p;
  p.width = procs / height;
  p.height = height;
  return p;
}

MeshRouter::MeshRouter(int procs, MeshRouterParams params, std::uint64_t seed)
    : Router(checked_procs(procs, params)),
      params_(params),
      cpu_free_(static_cast<std::size_t>(procs), 0.0),
      link_free_(static_cast<std::size_t>(procs) * 4, 0.0),
      link_stamp_(static_cast<std::size_t>(procs) * 4, 0),
      bias_(static_cast<std::size_t>(procs), 1.0),
      coord_(static_cast<std::size_t>(procs)),
      recv_end_(static_cast<std::size_t>(procs) * kLinkRuns, 0) {
  for (int p = 0; p < procs; ++p) {
    coord_[static_cast<std::size_t>(p)] = {p % params_.width, p / params_.width};
  }
  sim::Rng r(seed);
  redraw_biases(r);
}

int MeshRouter::hops(int a, int b) const {
  const int ax = a % params_.width, ay = a / params_.width;
  const int bx = b % params_.width, by = b / params_.width;
  return std::abs(ax - bx) + std::abs(ay - by);
}

int MeshRouter::link_index(int x, int y, int dir) const {
  return ((y * params_.width) + x) * 4 + dir;
}

std::size_t MeshRouter::run_slot(int src, int dst) const {
  // XY routing ends with a Y hop when the rows differ, else with an X hop
  // when the columns differ, else the message never leaves its node.
  const Coord a = coord_[static_cast<std::size_t>(src)];
  const Coord b = coord_[static_cast<std::size_t>(dst)];
  std::size_t run = 4;  // to self
  if (a.y != b.y) {
    run = b.y > a.y ? 2 : 3;  // arrived moving S / N
  } else if (a.x != b.x) {
    run = b.x > a.x ? 0 : 1;  // arrived moving E / W
  }
  return static_cast<std::size_t>(dst) * kLinkRuns + run;
}

void MeshRouter::redraw_biases(sim::Rng& rng) {
  for (auto& b : bias_) {
    b = std::max(0.8, 1.0 + params_.node_bias *
                           std::clamp(rng.next_gaussian(), -2.5, 2.5));
  }
}

void MeshRouter::claim_link(std::size_t li, sim::Micros busy_until) {
  if (link_stamp_[li] != link_epoch_) {
    link_stamp_[li] = link_epoch_;
    touched_links_.push_back(li);
  }
  link_free_[li] = busy_until;
}

void MeshRouter::route(const CommPattern& pattern, sim::ClockSet& clocks,
                       sim::Rng& rng) {
  assert(clocks.size() == procs());
  if (pattern.empty()) return;

  const auto senders = pattern.senders();
  const auto receivers = pattern.receivers();
  // Each message claims at least one link; after the first superstep the
  // capacity persists and claim_link() appends without allocating.
  touched_links_.reserve(pattern.size());

  // Desynchronisation spread among the processors that take part in this
  // step. Excess over what PVM's buffering tolerates surcharges every
  // receive below (see header comment).
  sim::Micros lo = 0.0, hi = 0.0;
  bool any = false;
  auto widen = [&](int p) {
    const sim::Micros t = clocks.at(p);
    if (!any) {
      lo = hi = t;
      any = true;
    } else {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  };
  for (const int p : senders) widen(p);
  for (const int p : receivers) widen(p);
  const sim::Micros excess = std::max(0.0, (hi - lo) - params_.desync_tolerance);
  const sim::Micros surcharge =
      std::min(params_.desync_penalty * excess, params_.max_desync_surcharge);

  // Phase 1: senders issue their messages in queue order (one CPU per node).
  // senders() is ascending, so the jitter draws come out in the same order
  // as the historical all-P scan, and message i of the canonical stream
  // departs at order[i].t. A send costs >= 0 (checked at construction), so
  // each sender's departures form one non-decreasing run. The same pass
  // counts each receiver's arrivals per incoming link.
  const auto msgs = pattern.messages();
  const std::size_t n = msgs.size();
  arena_.reset();
  auto order = arena_.alloc<Timed>(n);
  auto spare = arena_.alloc<Timed>(n);
  auto bounds = arena_.alloc<std::size_t>(senders.size() + 1);
  for (const int r : receivers) {
    std::fill_n(recv_end_.begin() + static_cast<std::ptrdiff_t>(r) * kLinkRuns,
                kLinkRuns, 0);
  }
  std::size_t nf = 0;
  for (std::size_t si = 0; si < senders.size(); ++si) {
    const int p = senders[si];
    sim::Micros cpu = std::max(cpu_avail(p), clocks.at(p));
    const double bias = bias_[static_cast<std::size_t>(p)];
    bounds[si] = nf;
    for (const auto& m : pattern.sends_of(p)) {
      const sim::Micros cost =
          (params_.o_send + params_.copy_send * m.bytes) * bias *
          clipped_jitter(rng, params_.jitter);
      cpu += cost;
      order[nf] = Timed{cpu, static_cast<std::uint32_t>(nf), m.bytes};
      ++nf;
      ++recv_end_[run_slot(m.src, m.dst)];
    }
    cpu_free_[static_cast<std::size_t>(p)] = cpu;
  }
  assert(nf == n);
  bounds[senders.size()] = n;
  const auto departures =
      merge_runs(order, spare, bounds.first(senders.size() + 1));
  // The other buffer is free: Phase 2 buckets the arrivals there.
  const auto recv = departures.data() == order.data() ? spare : order;

  // Receive buckets: a counting sort by (receiver, incoming link) over the
  // active receivers; each cursor ends at its run's end.
  std::size_t off = 0;
  for (const int r : receivers) {
    for (std::size_t c = 0; c < kLinkRuns; ++c) {
      std::size_t& slot = recv_end_[static_cast<std::size_t>(r) * kLinkRuns + c];
      const std::size_t count = slot;
      slot = off;
      off += count;
    }
  }

  // Phase 2: store-and-forward XY transit, messages claim links in global
  // departure order.
  std::uint32_t rank = 0;
  for (const Timed& d : departures) {
    const Message& m = msgs[d.seq];
    sim::Micros t = d.t;
    const sim::Micros hop_cost =
        params_.t_hop_lat + params_.t_link_byte * d.bytes;
    int x = coord_[static_cast<std::size_t>(m.src)].x;
    int y = coord_[static_cast<std::size_t>(m.src)].y;
    const int dx = coord_[static_cast<std::size_t>(m.dst)].x;
    const int dy = coord_[static_cast<std::size_t>(m.dst)].y;
    while (x != dx) {
      const int dir = (dx > x) ? 0 : 1;  // 0=E, 1=W
      const auto li = static_cast<std::size_t>(link_index(x, y, dir));
      t = std::max(link_free_[li], t) + hop_cost;
      claim_link(li, t);
      x += (dx > x) ? 1 : -1;
    }
    while (y != dy) {
      const int dir = (dy > y) ? 2 : 3;  // 2=S, 3=N
      const auto li = static_cast<std::size_t>(link_index(x, y, dir));
      t = std::max(link_free_[li], t) + hop_cost;
      claim_link(li, t);
      y += (dy > y) ? 1 : -1;
    }
    recv[recv_end_[run_slot(m.src, m.dst)]++] = Timed{t, rank++, d.bytes};
  }

  if (audit::enabled()) {
    // Conservation: every injected message transited, and each receiver's
    // bucket filled to exactly its expected receive count.
    if (rank != pattern.size()) {
      audit::fail("packet-conservation", "mesh",
                  "transited " + std::to_string(rank) + " of " +
                      std::to_string(pattern.size()) + " injected messages");
    }
    std::size_t end = 0;
    for (const int r : receivers) {
      const std::size_t begin = end;
      end += static_cast<std::size_t>(pattern.receive_count(r));
      const std::size_t filled =
          recv_end_[static_cast<std::size_t>(r) * kLinkRuns + kLinkRuns - 1];
      if (filled != end) {
        audit::fail("packet-conservation", "node " + std::to_string(r),
                    "expected " + std::to_string(pattern.receive_count(r)) +
                        " arrivals, saw " + std::to_string(filled - begin));
      }
    }
    audit::count_check();
  }

  // Phase 3: receivers process deliveries in arrival order on the same CPU
  // that issued their sends. Each of a node's runs is already sorted by
  // (arrival, rank): a link's claims come in rank order and each ends no
  // earlier than the one before (hop costs are >= 0), and messages to self
  // arrive at their departure. Merging the runs (through the departure
  // buffer, free now) gives the node's arrival order. Walk it; `done`
  // counts processed messages, `ahead` the arrivals already in the buffer
  // when a message starts processing (backlog = ahead - done).
  obs::Metrics* const om = live_metrics();
  std::size_t bucket_begin = 0;
  for (const int dst : receivers) {
    const auto d = static_cast<std::size_t>(dst);
    std::array<std::size_t, kLinkRuns + 1> run_bounds{bucket_begin};
    std::size_t runs = 0;
    for (std::size_t c = 0; c < kLinkRuns; ++c) {
      const std::size_t end = recv_end_[d * kLinkRuns + c];
      if (end != run_bounds[runs]) run_bounds[++runs] = end;
    }
    const std::size_t bucket_end = run_bounds[runs];
    const auto bucket =
        merge_runs(recv, departures, std::span(run_bounds).first(runs + 1))
            .subspan(bucket_begin, bucket_end - bucket_begin);
    bucket_begin = bucket_end;
    const double bias = bias_[d];
    std::size_t ahead = 0;
    for (std::size_t done = 0; done < bucket.size(); ++done) {
      const Timed& a = bucket[done];
      const sim::Micros begin = std::max({cpu_avail(dst), a.t, clocks.at(dst)});
      // Advance `ahead` over this receiver's arrivals that are <= begin.
      while (ahead < bucket.size() && bucket[ahead].t <= begin) ++ahead;
      const long backlog = static_cast<long>(ahead - done) - 1;
      if (om != nullptr && backlog > 0) {
        om->peak(obs::builtin().mesh_recv_backlog_peak,
                 static_cast<std::uint64_t>(backlog));
      }
      const sim::Micros backlog_cost =
          (backlog > params_.backlog_tolerance)
              ? params_.backlog_penalty *
                    static_cast<double>(backlog - params_.backlog_tolerance)
              : 0.0;
      const sim::Micros cost =
          (params_.o_recv + params_.copy_recv * a.bytes) * bias *
              clipped_jitter(rng, params_.jitter) +
          surcharge + backlog_cost;
      cpu_free_[d] = begin + cost;
    }
  }

  // Participants' clocks advance to their CPU availability; everyone else
  // is untouched.
  for (const int p : senders) clocks.wait_until(p, cpu_avail(p));
  for (const int p : receivers) clocks.wait_until(p, cpu_avail(p));
}

void MeshRouter::drain(sim::Micros t) {
  // Every stored CPU time is <= t at a barrier (clocks were advanced past
  // them and t is the barrier instant), so raising the floor is equivalent
  // to the historical write of all P entries.
  cpu_floor_ = t;
  for (const std::size_t li : touched_links_) {
    link_free_[li] = std::min(link_free_[li], t);
  }
  touched_links_.clear();
  ++link_epoch_;
}

void MeshRouter::reset() {
  std::fill(cpu_free_.begin(), cpu_free_.end(), 0.0);
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
  cpu_floor_ = 0.0;
  touched_links_.clear();
  ++link_epoch_;
}

std::string MeshRouter::audit_leak_report(sim::Micros t) const {
  for (std::size_t p = 0; p < cpu_free_.size(); ++p) {
    const sim::Micros c = std::max(cpu_floor_, cpu_free_[p]);
    if (c != t) {
      return "node " + std::to_string(p) + " cpu busy until " +
             std::to_string(c) + " us at barrier " + std::to_string(t) + " us";
    }
  }
  for (std::size_t l = 0; l < link_free_.size(); ++l) {
    if (link_free_[l] > t) {
      return "link " + std::to_string(l) + " held until " +
             std::to_string(link_free_[l]) + " us past barrier " +
             std::to_string(t) + " us";
    }
  }
  return {};
}

}  // namespace pcm::net
