#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "audit/conservation.hpp"
#include "fault/injector.hpp"
#include "machines/machine.hpp"
#include "net/pattern.hpp"
#include "race/race.hpp"
#include "runtime/mailbox.hpp"
#include "sim/arena.hpp"

// One communication step: algorithms stage sends (in the order they want
// them issued — staggering is expressed here), run() lets the machine's
// router time the CommPattern built while staging, and delivers the
// payloads into the Exchange's Mailbox.
//
// TransferMode selects the model style:
//   - Word:  every element travels as its own w-byte message (BSP / MP-BSP
//            style fixed short messages);
//   - Block: each staged parcel is a single message of size(data) bytes
//            (MP-BPRAM style bulk transfer).
//
// An Exchange is built once per kernel and reused for every step, keeping
// every buffer's capacity. send() copies the payload into an Exchange-owned
// sim::Arena and keeps one small header per parcel; run() hands the mailbox
// spans into that arena. The arena is recycled at the first send() after
// run(), which is also where the previous mailbox closes. In steady state a
// step allocates nothing.
//
// Repeated steps: run() keeps the step's parcel headers and its
// CommPattern. A send() whose (src, dst, length) equals the last step's
// parcel at the same position only copies its payload and overwrites that
// parcel's tag and data pointer. The first send that differs, or a run()
// reached with fewer sends, re-stages the matching prefix (rebuilding the
// pattern from it) and goes on as a fresh step, whose sends take exactly
// the path they take with nothing kept. A step that matched throughout
// routes the untouched pattern, whose unchanged identity() lets the
// DeltaRouter return its last cost unhashed. Bitonic sort's MP-BSP merge
// steps, M identical bit-flip permutations each, run this way.
//
// Fault injection: when the machine carries a fault::Injector, the machine
// rewrites the pattern (drops/duplicates) during exchange(); run() then
// mirrors those packet faults onto the staged payloads — a dropped message's
// element never arrives, a duplicated one arrives twice — and applies
// payload-corruption draws at delivery. The audit conservation check is
// adjusted by the same fault records, so --audit and --fault compose. All
// of this runs on a cold path, taken only when the machine has an injector.
// Such a machine never takes the repeated path: its packet faults rewrite
// staged parcels, and its router sees a rewritten copy of the pattern.

namespace pcm::runtime {

enum class TransferMode { Word, Block };

template <typename T>
class Exchange {
  static_assert(std::is_trivially_copyable_v<T>,
                "payloads are staged by byte copy into an arena");

 public:
  explicit Exchange(machines::Machine& m, TransferMode mode)
      : machine_(m), mode_(mode), pattern_(m.procs()), box_(m.procs()) {}

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  [[nodiscard]] machines::Machine& machine() { return machine_; }
  [[nodiscard]] TransferMode mode() const { return mode_; }

  /// Stage a parcel (a copy of `data`). Sends are issued per sender in
  /// staging order. Always inlined, like send_value(): the body sits at the
  /// compiler's inlining size limit, so without the attribute an unrelated
  /// edit can move a kernel's send loop from an inlined body (its state in
  /// registers) to a call per parcel.
  [[gnu::always_inline]] void send(int src, int dst, std::span<const T> data,
                                   int tag = 0) {
    if (data.empty()) return;
    if ((repeating_ || box_.is_open()) && resend(src, dst, data, tag)) return;
    const int qpos = pattern_.send_count(src);
    stage_pattern(src, dst, data.size());
    const std::span<T> copy = arena_.alloc<T>(data.size());
    std::memcpy(copy.data(), data.data(), data.size_bytes());
    staged_.push_back(Staged{src, dst, tag, qpos, copy.data(), copy.size()});
  }

  [[gnu::always_inline]] void send_value(int src, int dst, T value,
                                         int tag = 0) {
    send(src, dst, std::span<const T>(&value, 1), tag);
  }

  /// Messages staged since the last run().
  [[nodiscard]] std::size_t staged_messages() const {
    if (!repeating_ || sent_ == staged_.size()) return pattern_.size();
    if (mode_ == TransferMode::Block) return sent_;
    std::size_t n = 0;
    for (std::size_t i = 0; i < sent_; ++i) n += staged_[i].len;
    return n;
  }

  /// The pattern run() will route. During a step that repeats the last one
  /// (and after run(), before the next send) it holds that whole step, until
  /// a send differs.
  [[nodiscard]] const net::CommPattern& pattern() const { return pattern_; }

  /// Execute the communication step on the machine and deliver payloads.
  /// The returned mailbox stays valid until this Exchange's next send() or
  /// run(); the Exchange is ready for the next step.
  Mailbox<T>& run() {
    box_.close();
    if (repeating_ && sent_ < staged_.size()) diverge();  // fewer sends
    // Under --audit: snapshot the injected per-endpoint byte totals before
    // the pattern is consumed, and require the mailbox to account for every
    // one of them afterwards (each parcel delivered exactly once, to the
    // right destination, payload bytes conserved). Packet faults adjust the
    // snapshot below, so injected drops/duplicates are not flagged as leaks.
    const bool auditing = audit::enabled();
    audit::EndpointBytes injected;
    if (auditing) injected = audit::endpoint_bytes(pattern_);
    machine_.exchange(pattern_);
    if (machine_.metrics().on()) {
      // Runtime-level view (staged parcels as the algorithm expressed them,
      // before packet faults): complements the machine's router-level
      // packet/byte counters.
      const obs::Builtin& b = obs::builtin();
      std::uint64_t payload = 0;
      for (const auto& s : staged_) payload += s.len * sizeof(T);
      machine_.metrics().add(b.parcels, staged_.size());
      machine_.metrics().add(b.payload_bytes, payload);
    }
    if (machine_.injector() != nullptr) {
      apply_faults(auditing ? &injected : nullptr);
    }
    // Under --race: stamp the mailbox with the delivery epoch so consuming
    // it after a reset() (stale read) is caught. Unstamped mailboxes carry
    // no machine pointer, so runs without the detector cannot dangle.
    box_.refill(staged_, race::enabled() ? &machine_ : nullptr);
    // The next step is compared against this one, unless packet faults
    // rewrote it.
    sent_ = 0;
    repeating_ = machine_.injector() == nullptr;
    if (!repeating_) {
      staged_.clear();
      pattern_.clear();
    }
    if (auditing) {
      audit::EndpointBytes delivered;
      for (int p = 0; p < box_.procs(); ++p) {
        for (const auto& parcel : box_.at(p)) {
          delivered[{parcel.src, p}] +=
              static_cast<long>(parcel.data.size() * sizeof(T));
        }
      }
      audit::check_endpoints_conserved(injected, delivered);
    }
    return box_;
  }

 private:
  /// One staged parcel: its payload lives in arena_.
  struct Staged {
    int src;
    int dst;
    int tag;
    /// Position of this parcel's first message in src's per-sender queue of
    /// the staged CommPattern — the key packet-fault records are matched on.
    int first_qpos;
    T* data;
    std::size_t len;
    int copies = 1;  ///< Deliveries after packet faults (0 = lost).
    bool corrupted = false;
  };

  /// Cold path: mirror the machine's packet faults and draw payload
  /// corruption, parcel by parcel in staging order.
  void apply_faults(audit::EndpointBytes* injected) {
    const fault::ExchangeFaults& faults = machine_.last_exchange_faults();
    fault::Injector& inj = *machine_.injector();
    const long step = machine_.superstep();
    for (auto& s : staged_) {
      if (!faults.empty()) {
        s.copies = mirror_packet_faults(s, faults, injected);
      }
      if (s.copies == 0) continue;  // lost in flight
      if (inj.should_corrupt(step)) s.corrupted = corrupt_payload(inj, s);
    }
  }

  /// Mirror the injected packet faults onto one staged parcel, adjusting
  /// the audit snapshot (when non-null) by the same records. Returns how
  /// many copies of the parcel to deliver (0 = dropped).
  int mirror_packet_faults(Staged& s, const fault::ExchangeFaults& faults,
                           audit::EndpointBytes* injected) {
    const auto first = static_cast<std::size_t>(s.first_qpos);
    if (mode_ == TransferMode::Block) {
      // One staged parcel == one message: drop it or deliver it twice.
      int copies = 1;
      for (const auto& f : faults.dropped) {
        if (f.src == s.src && f.qpos == first) {
          copies = 0;
          if (injected != nullptr) (*injected)[{f.src, f.dst}] -= f.bytes;
        }
      }
      for (const auto& f : faults.duplicated) {
        if (f.src == s.src && f.qpos == first) {
          ++copies;
          if (injected != nullptr) (*injected)[{f.src, f.dst}] += f.bytes;
        }
      }
      return copies;
    }
    // Word mode: the parcel's elements are messages [first, first + len) of
    // s.src's queue. A dropped message loses its element; a duplicated one
    // arrives again after the parcel body. A rewritten parcel gets a fresh
    // arena slice.
    dup_at_.clear();
    for (const auto& f : faults.duplicated) {
      if (f.src == s.src && f.qpos >= first && f.qpos < first + s.len) {
        dup_at_.push_back(f.qpos - first);
        if (injected != nullptr) (*injected)[{f.src, f.dst}] += f.bytes;
      }
    }
    drop_at_.clear();  // ascending (the injector walks each queue in order)
    for (const auto& f : faults.dropped) {
      if (f.src == s.src && f.qpos >= first && f.qpos < first + s.len) {
        drop_at_.push_back(f.qpos - first);
        if (injected != nullptr) (*injected)[{f.src, f.dst}] -= f.bytes;
      }
    }
    if (dup_at_.empty() && drop_at_.empty()) return 1;
    const std::span<T> out =
        arena_.alloc<T>(s.len - drop_at_.size() + dup_at_.size());
    std::size_t k = 0;
    std::size_t next_drop = 0;
    for (std::size_t i = 0; i < s.len; ++i) {
      if (next_drop < drop_at_.size() && drop_at_[next_drop] == i) {
        ++next_drop;
        continue;
      }
      out[k++] = s.data[i];
    }
    for (const std::size_t i : dup_at_) out[k++] = s.data[i];
    s.data = out.data();
    s.len = out.size();
    return s.len == 0 ? 0 : 1;
  }

  /// Flip one injector-chosen bit of the payload.
  static bool corrupt_payload(fault::Injector& inj, const Staged& s) {
    if (s.len == 0) return false;
    auto* bytes = reinterpret_cast<unsigned char*>(s.data);
    inj.corrupt(std::span<unsigned char>(bytes, s.len * sizeof(T)));
    return true;
  }

  /// The part of send() a fresh step's sends skip after their first: it
  /// recycles the arena on the first send after run(), and while this step
  /// repeats the last one, a send equal to the last step's parcel at its
  /// position only copies its payload (true). The first that differs ends
  /// the repeat, and send() stages it (false).
  bool resend(int src, int dst, std::span<const T> data, int tag) {
    if (box_.is_open()) {
      // First send after run(): the previous mailbox's spans point into
      // the arena about to be recycled.
      box_.close();
      arena_.reset();
    }
    if (!repeating_) return false;
    if (sent_ < staged_.size()) {
      Staged& s = staged_[sent_];
      if (s.src == src && s.dst == dst && s.len == data.size()) {
        const std::span<T> copy = arena_.alloc<T>(data.size());
        std::memcpy(copy.data(), data.data(), data.size_bytes());
        s.data = copy.data();
        s.tag = tag;
        ++sent_;
        return true;
      }
    }
    diverge();
    return false;
  }

  /// This step stopped repeating the last one after sent_ parcels: it
  /// keeps the matching prefix, and the pattern is rebuilt from it unless
  /// it already holds exactly that.
  void diverge() {
    repeating_ = false;
    if (sent_ == staged_.size()) return;
    staged_.resize(sent_);
    pattern_.clear();
    for (const Staged& s : staged_) stage_pattern(s.src, s.dst, s.len);
  }

  void stage_pattern(int src, int dst, std::size_t elems) {
    const int w = static_cast<int>(sizeof(T));
    if (mode_ == TransferMode::Word) {
      for (std::size_t i = 0; i < elems; ++i) pattern_.add(src, dst, w);
    } else {
      pattern_.add(src, dst, static_cast<int>(elems) * w);
    }
  }

  machines::Machine& machine_;
  TransferMode mode_;
  net::CommPattern pattern_;
  sim::Arena arena_;
  /// This step's parcels. While it repeats the last step, the first sent_
  /// are this step's and the rest the last step's, which the coming sends
  /// are compared against.
  std::vector<Staged> staged_;
  std::size_t sent_ = 0;
  /// Every send of this step so far equalled the last step's parcel at its
  /// position, and pattern_ holds the last step.
  bool repeating_ = false;
  Mailbox<T> box_;
  std::vector<std::size_t> drop_at_;  ///< Fault-path scratch.
  std::vector<std::size_t> dup_at_;   ///< Fault-path scratch.
};

}  // namespace pcm::runtime
