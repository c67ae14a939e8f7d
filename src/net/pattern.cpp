#include "net/pattern.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace pcm::net {

namespace {

/// The last identity() stamp handed out. Only uniqueness matters, so the
/// increment needs no ordering.
std::atomic<std::uint64_t> g_last_identity{0};

}  // namespace

CommPattern::CommPattern(int procs)
    : procs_(procs),
      send_count_(static_cast<std::size_t>(procs), 0),
      recv_count_(static_cast<std::size_t>(procs), 0) {
  assert(procs > 0);
}

void CommPattern::add(int src, int dst, int bytes) {
  assert(src >= 0 && src < procs_);
  assert(dst >= 0 && dst < procs_);
  assert(bytes > 0);
  if (!stage_.empty() && src < stage_.back().src) stage_sorted_ = false;
  stage_.push_back(Message{src, dst, bytes});
  if (send_count_[static_cast<std::size_t>(src)]++ == 0) senders_.push_back(src);
  if (recv_count_[static_cast<std::size_t>(dst)]++ == 0) {
    receivers_.push_back(dst);
    receivers_sorted_ = false;
  }
  total_bytes_ += bytes;
  canonical_ready_ = false;
  identity_ = 0;
}

void CommPattern::add(const Message& m) { add(m.src, m.dst, m.bytes); }

void CommPattern::reserve(std::size_t expected_messages) {
  stage_.reserve(expected_messages);
  const auto p = static_cast<std::size_t>(procs_);
  senders_.reserve(std::min(expected_messages, p));
  receivers_.reserve(std::min(expected_messages, p));
}

void CommPattern::ensure_canonical() const {
  if (canonical_ready_) return;
  // Senders first touched in non-decreasing order are already ascending.
  if (!stage_sorted_) {
    const auto p_count = static_cast<std::size_t>(procs_);
    if (senders_.size() >= p_count / kDenseSenderDivisor) {
      // Dense: one pass over the counts rebuilds the ascending list more
      // cheaply than sorting this many ids (a shuffled full relation).
      std::size_t n = 0;
      for (std::size_t p = 0; p < p_count; ++p) {  // only when >= P/16 PEs send
        if (send_count_[p] != 0) senders_[n++] = static_cast<int>(p);
      }
    } else {
      std::sort(senders_.begin(), senders_.end());
    }
  }
  if (begin_of_.size() < static_cast<std::size_t>(procs_)) {
    begin_of_.resize(static_cast<std::size_t>(procs_));
  }
  std::size_t off = 0;
  for (const int s : senders_) {
    begin_of_[static_cast<std::size_t>(s)] = off;
    off += static_cast<std::size_t>(send_count_[static_cast<std::size_t>(s)]);
  }
  if (stage_sorted_) {
    canonical_is_stage_ = true;
  } else {
    // Stable counting sort by sender, preserving queue-position order.
    canonical_is_stage_ = false;
    if (cursor_.size() < static_cast<std::size_t>(procs_)) {
      cursor_.resize(static_cast<std::size_t>(procs_));
    }
    for (const int s : senders_) {
      cursor_[static_cast<std::size_t>(s)] = begin_of_[static_cast<std::size_t>(s)];
    }
    sorted_.resize(stage_.size());
    for (const Message& m : stage_) {
      sorted_[cursor_[static_cast<std::size_t>(m.src)]++] = m;
    }
  }
  canonical_ready_ = true;
}

std::span<const Message> CommPattern::messages() const {
  ensure_canonical();
  return canonical_is_stage_ ? std::span<const Message>(stage_)
                             : std::span<const Message>(sorted_);
}

std::span<const Message> CommPattern::sends_of(int p) const {
  assert(p >= 0 && p < procs_);
  const int n = send_count_[static_cast<std::size_t>(p)];
  if (n == 0) return {};
  return messages().subspan(begin_of_[static_cast<std::size_t>(p)],
                            static_cast<std::size_t>(n));
}

std::span<const int> CommPattern::senders() const {
  ensure_canonical();
  return senders_;
}

std::span<const int> CommPattern::receivers() const {
  ensure_receivers_sorted();
  return receivers_;
}

void CommPattern::ensure_receivers_sorted() const {
  if (receivers_sorted_) return;
  std::sort(receivers_.begin(), receivers_.end());
  receivers_sorted_ = true;
}

void CommPattern::clear() {
  for (const int s : senders_) send_count_[static_cast<std::size_t>(s)] = 0;
  for (const int r : receivers_) recv_count_[static_cast<std::size_t>(r)] = 0;
  senders_.clear();
  receivers_.clear();
  stage_.clear();
  total_bytes_ = 0;
  stage_sorted_ = true;
  receivers_sorted_ = true;
  canonical_ready_ = false;
  canonical_is_stage_ = true;
  identity_ = 0;
}

int CommPattern::max_sent() const {
  int mx = 0;
  for (const int s : senders_) {
    mx = std::max(mx, send_count_[static_cast<std::size_t>(s)]);
  }
  return mx;
}

int CommPattern::max_received() const {
  int mx = 0;
  for (const int r : receivers_) {
    mx = std::max(mx, recv_count_[static_cast<std::size_t>(r)]);
  }
  return mx;
}

int CommPattern::h_degree() const { return std::max(max_sent(), max_received()); }

int CommPattern::active_processors() const {
  // |senders ∪ receivers| by merge over the two sorted active sets.
  ensure_canonical();
  ensure_receivers_sorted();
  std::size_t i = 0, j = 0;
  int n = 0;
  while (i < senders_.size() && j < receivers_.size()) {
    ++n;
    if (senders_[i] < receivers_[j]) {
      ++i;
    } else if (receivers_[j] < senders_[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  n += static_cast<int>((senders_.size() - i) + (receivers_.size() - j));
  return n;
}

bool CommPattern::is_partial_permutation() const {
  return max_sent() <= 1 && max_received() <= 1;
}

bool CommPattern::is_full_permutation() const {
  return size() == static_cast<std::size_t>(procs_) && is_partial_permutation();
}

CommPattern::Relation CommPattern::classify() const {
  Relation r;
  r.total = static_cast<long>(size());
  r.h_send = max_sent();
  r.h_recv = max_received();
  return r;
}

std::uint64_t CommPattern::hash() const {
  // FNV-1a over the canonical (src, dst, bytes) stream, active senders only.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(procs_));
  mix(static_cast<std::uint64_t>(size()));
  for (const Message& m : messages()) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.src)) << 40 |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.dst)) << 16 |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.bytes)));
  }
  return h;
}

std::uint64_t CommPattern::identity() const {
  if (identity_ == 0) {
    identity_ = g_last_identity.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return identity_;
}

namespace patterns {

CommPattern from_permutation(std::span<const int> perm, int bytes) {
  CommPattern pat(static_cast<int>(perm.size()));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] >= 0) pat.add(static_cast<int>(i), perm[i], bytes);
  }
  return pat;
}

CommPattern bit_flip(int procs, int bit, int msgs, int bytes) {
  assert((procs & (procs - 1)) == 0 && "bit_flip expects power-of-two procs");
  assert((1 << bit) < procs);
  CommPattern pat(procs);
  for (int m = 0; m < msgs; ++m) {
    for (int p = 0; p < procs; ++p) pat.add(p, p ^ (1 << bit), bytes);
  }
  return pat;
}

}  // namespace patterns

}  // namespace pcm::net
