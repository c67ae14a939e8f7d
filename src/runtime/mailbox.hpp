#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "machines/machine.hpp"
#include "race/race.hpp"
#include "sim/check.hpp"

// Delivered data. Each Exchange owns one Mailbox and refills it on every
// run(): per destination processor, the parcels it received, in the order
// they were staged. Tags let an algorithm separate logical streams that
// travel in the same communication step.
//
// Storage is CSR, like CommPattern's: one flat parcel array grouped by
// destination, plus dense per-destination offsets that are reset sparsely
// through the list of touched destinations. A step costs O(delivered
// parcels), never O(P). A parcel's data is a span into its Exchange's
// payload arena, so delivery copies no payload.
//
// Lifetime: a mailbox is valid until its Exchange's next send() or run().
// The first send() after run() recycles the arena the spans point into and
// closes the mailbox; reading a closed mailbox is a PCM_CHECK failure, not
// a dangling read. The next run() refills the same object. Mailboxes are
// non-copyable, so a caller binds the reference run() returns:
// `auto& box = ex.run();`.
//
// Race detection: Exchange::run() stamps the mailbox with the producing
// machine's (trial, superstep) epoch while the detector is enabled, and
// clears the stamp while it is off. Every consumption re-checks that the
// machine is still on the same trial — a parcel held across reset() belongs
// to a superstep whose closing barrier was torn down with the old timeline,
// so reading it is a stale read (it would mix a previous trial's data into
// the current measurement).

namespace pcm::runtime {

template <typename T>
class Exchange;

template <typename T>
struct Parcel {
  int src = 0;
  int tag = 0;
  std::span<const T> data;
  /// Set by Exchange::run() when a fault plan flipped a bit of `data` in
  /// flight. Algorithms normally ignore it (a real machine would not know);
  /// fault-tolerance experiments and tests read it as ground truth.
  bool corrupted = false;
};

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(int procs)
      : begin_(static_cast<std::size_t>(procs), 0),
        count_(static_cast<std::size_t>(procs), 0) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  [[nodiscard]] int procs() const { return static_cast<int>(count_.size()); }

  /// All parcels received by processor p, in staging order.
  [[nodiscard]] std::span<const Parcel<T>> at(int p) const {
    PCM_CHECK(open_ && "mailbox read after its Exchange staged again");
    PCM_CHECK(p >= 0 && p < procs());
    race_check_fresh(p);
    const std::size_t n = count_[static_cast<std::size_t>(p)];
    if (n == 0) return {};
    return {parcels_.data() + begin_[static_cast<std::size_t>(p)], n};
  }

  /// Parcels for processor p with a given tag.
  [[nodiscard]] std::vector<const Parcel<T>*> with_tag(int p, int tag) const {
    std::vector<const Parcel<T>*> out;
    for (const auto& parcel : at(p)) {
      if (parcel.tag == tag) out.push_back(&parcel);
    }
    return out;
  }

  /// Total keys/elements delivered to processor p.
  [[nodiscard]] std::size_t count_at(int p) const {
    std::size_t n = 0;
    for (const auto& parcel : at(p)) n += parcel.data.size();
    return n;
  }

  /// Parcels across all processors that a fault plan corrupted in flight.
  [[nodiscard]] std::size_t corrupted_count() const {
    PCM_CHECK(open_ && "mailbox read after its Exchange staged again");
    std::size_t n = 0;
    for (const auto& parcel : parcels_) n += parcel.corrupted ? 1 : 0;
    return n;
  }

 private:
  friend class Exchange<T>;

  /// Refill from an Exchange's staged headers (fields src, dst, tag, data,
  /// len, copies, corrupted): a counting sort by destination that keeps
  /// each destination's parcels in staging order. `stamp` is the machine
  /// to race-stamp against, or null.
  template <typename Staged>
  void refill(const std::vector<Staged>& staged,
              const machines::Machine* stamp) {
    for (const int d : touched_) count_[static_cast<std::size_t>(d)] = 0;
    touched_.clear();
    std::size_t total = 0;
    for (const auto& s : staged) {
      if (s.copies == 0) continue;
      std::size_t& c = count_[static_cast<std::size_t>(s.dst)];
      if (c == 0) touched_.push_back(s.dst);
      c += static_cast<std::size_t>(s.copies);
      total += static_cast<std::size_t>(s.copies);
    }
    // begin_ holds each destination's end offset; the reverse walk below
    // fills each group back to front and leaves begin_ at its start.
    std::size_t end = 0;
    for (const int d : touched_) {
      end += count_[static_cast<std::size_t>(d)];
      begin_[static_cast<std::size_t>(d)] = end;
    }
    parcels_.resize(total);
    for (auto it = staged.rbegin(); it != staged.rend(); ++it) {
      std::size_t& slot = begin_[static_cast<std::size_t>(it->dst)];
      for (int c = 0; c < it->copies; ++c) {
        parcels_[--slot] = Parcel<T>{
            it->src, it->tag, std::span<const T>(it->data, it->len),
            it->corrupted};
      }
    }
    machine_ = stamp;
    if (stamp != nullptr) {
      trial_ = stamp->trial();
      epoch_ = stamp->superstep();
    }
    open_ = true;
  }

  void close() { open_ = false; }
  [[nodiscard]] bool is_open() const { return open_; }

  void race_check_fresh(int p) const {
    if (machine_ == nullptr || !race::enabled()) return;
    if (machine_->trial() != trial_) {
      race::fail("stale-mailbox-read", std::string(machine_->name()),
                 machine_->superstep(), p,
                 "parcels delivered at superstep " + std::to_string(epoch_) +
                     " of trial " + std::to_string(trial_) +
                     " consumed on trial " + std::to_string(machine_->trial()) +
                     "; their superstep's barrier was torn down by reset()");
    }
    race::count_check();
  }

  std::vector<Parcel<T>> parcels_;   ///< Grouped by destination.
  std::vector<std::size_t> begin_;   ///< Dense; valid where count_ > 0.
  std::vector<std::size_t> count_;   ///< Dense; zeroed through touched_.
  std::vector<int> touched_;         ///< Destinations with parcels.
  bool open_ = false;
  const machines::Machine* machine_ = nullptr;  ///< Race stamp; may be null.
  long trial_ = -1;
  long epoch_ = -1;
};

/// Calls `fn` on each of one destination's parcels (Mailbox::at()), taking
/// a duplicated Block-mode parcel once. Under a dup fault plan the same
/// staged parcel is delivered again, and Mailbox::refill writes the copies
/// next to each other over the same data span; a separately staged parcel
/// always has a span of its own. Receivers that add up what they receive
/// use this; a machine without a fault injector delivers each parcel once.
template <typename T, typename Fn>
void for_each_parcel_once(const machines::Machine& m,
                          std::span<const Parcel<T>> parcels, Fn&& fn) {
  const bool faulted = m.injector() != nullptr;
  for (std::size_t i = 0; i < parcels.size(); ++i) {
    if (faulted && i > 0 &&
        parcels[i].data.data() == parcels[i - 1].data.data()) {
      continue;
    }
    fn(parcels[i]);
  }
}

}  // namespace pcm::runtime
