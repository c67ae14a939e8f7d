#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "race/race.hpp"
#include "race/shadow.hpp"
#include "runtime/exchange.hpp"
#include "sim/check.hpp"

// A Split-C-flavoured global address space (Culler et al. [10]) — the
// programming layer the paper's CM-5 implementations were written in. The
// substrate piece this library otherwise only references:
//
//   - GlobalArray<T>: a spread array with cyclic layout (element i lives on
//     processor i mod P, slot i div P), each processor owning a local slice;
//   - split-phase access: puts, one-way stores and gets are *staged* and
//     executed by sync(), which performs the word-level communication on the
//     simulated machine (gets cost a request plus a reply, puts and stores
//     one message each — matching Split-C's counted one-way stores).
//
// The layer is deliberately thin: it maps directly onto Exchange, so every
// access is timed by the machine's router like any other message.
//
// Race detection (--race / PCM_RACE=1): while the detector is enabled the
// array lazily allocates shadow state (race/shadow.hpp) and every access is
// checked against the split-phase contract — two puts to one cell in a
// batch are write-write, reading a cell with a pending put is
// read-before-sync, and a local() access by a declared PE (race::ScopedPe)
// that does not own the slot is a bypass-write that dodged the router.

namespace pcm::runtime {

template <typename T>
class GlobalArray {
 public:
  GlobalArray(machines::Machine& m, long global_size)
      : m_(m), size_(global_size), slices_(static_cast<std::size_t>(m.procs())) {
    const int P = m.procs();
    for (int p = 0; p < P; ++p) {
      const long slots = (global_size - p + P - 1) / P;
      slices_[static_cast<std::size_t>(p)].assign(
          static_cast<std::size_t>(std::max<long>(0, slots)), T{});
    }
  }

  [[nodiscard]] long size() const { return size_; }
  [[nodiscard]] int owner(long i) const {
    PCM_CHECK(i >= 0 && i < size_);
    return static_cast<int>(i % m_.procs());
  }
  [[nodiscard]] long slot(long i) const { return i / m_.procs(); }

  /// Direct local access (no communication; the caller is the owner —
  /// declare the acting PE with race::ScopedPe to have that enforced).
  [[nodiscard]] T& local(long i) {
    if (auto* sh = race_shadow()) {
      sh->note_local_access(race::current_pe(), owner(i), i, m_.name(),
                            m_.superstep());
    }
    return slices_[static_cast<std::size_t>(owner(i))][static_cast<std::size_t>(slot(i))];
  }
  [[nodiscard]] const T& local(long i) const {
    if (auto* sh = race_shadow()) {
      const int reader = race::current_pe();
      sh->note_read(reader >= 0 ? reader : owner(i), i, m_.name(),
                    m_.superstep());
    }
    return peek(i);
  }

  [[nodiscard]] std::vector<T>& slice_of(int p) {
    return slices_[static_cast<std::size_t>(p)];
  }

  /// Shadow state for the race detector; null while detection is off. The
  /// shadow survives a disable/re-enable cycle but is only consulted (and
  /// first allocated) while race::enabled().
  [[nodiscard]] race::ShadowArray* race_shadow() const {
    if (!race::enabled()) return nullptr;
    if (!race_shadow_) race_shadow_ = std::make_shared<race::ShadowArray>(size_);
    return race_shadow_.get();
  }

  /// The shadow if one was ever allocated, regardless of the runtime flag —
  /// sync() commits through this so pending marks cannot survive a
  /// disable/re-enable cycle.
  [[nodiscard]] race::ShadowArray* race_shadow_if_allocated() const {
    return race_shadow_.get();
  }

  /// Uninstrumented read — sync() internals, which move data the router has
  /// already timed and the shadow has already accounted for, use this.
  [[nodiscard]] const T& peek(long i) const {
    return slices_[static_cast<std::size_t>(owner(i))][static_cast<std::size_t>(slot(i))];
  }

 private:
  machines::Machine& m_;
  long size_;
  std::vector<std::vector<T>> slices_;
  mutable std::shared_ptr<race::ShadowArray> race_shadow_;
};

template <typename T>
class SplitPhase {
 public:
  explicit SplitPhase(machines::Machine& m) : m_(m) {}

  /// Split-phase remote write issued by `src`: ga[i] = value at sync().
  void put(GlobalArray<T>& ga, int src, long i, T value) {
    if (auto* sh = ga.race_shadow()) {
      sh->note_staged_write(src, i, /*is_store=*/false, m_.name(),
                            m_.superstep());
    }
    staged_writes_.push_back({&ga, src, i, value});
  }

  /// One-way store (Split-C's `:-` operator): same data motion as put; kept
  /// separate because all_store_sync only waits for stores.
  void store(GlobalArray<T>& ga, int src, long i, T value) {
    if (auto* sh = ga.race_shadow()) {
      sh->note_staged_write(src, i, /*is_store=*/true, m_.name(),
                            m_.superstep());
    }
    staged_writes_.push_back({&ga, src, i, value});
    ++stores_;
  }

  /// Split-phase remote read issued by `src`: *out = ga[i] after sync().
  void get(const GlobalArray<T>& ga, int src, long i, T* out) {
    if (auto* sh = ga.race_shadow()) {
      sh->note_read(src, i, m_.name(), m_.superstep());
    }
    staged_reads_.push_back({&ga, src, i, out});
  }

  [[nodiscard]] std::size_t pending() const {
    return staged_writes_.size() + staged_reads_.size();
  }
  [[nodiscard]] long stores_issued() const { return stores_; }

  /// Execute every staged access: one communication step carrying the
  /// writes and the read *requests*, a second carrying the read replies,
  /// then a barrier (Split-C's sync()).
  void sync() {
    // Commit the batch to the shadow first: after this point the staged
    // values are the cells' committed contents (epoch = the superstep the
    // batch executes in) and the pending marks are gone, so the data
    // movement below runs against a consistent shadow.
    for (const auto& w : staged_writes_) {
      if (auto* sh = w.ga->race_shadow_if_allocated()) {
        sh->commit(w.src, w.index, m_.superstep());
      }
    }

    // Writes, grouped per target array (one communication step each; a
    // single-array sync — the common case — costs one step).
    std::vector<GlobalArray<T>*> arrays;
    for (const auto& w : staged_writes_) {
      if (std::find(arrays.begin(), arrays.end(), w.ga) == arrays.end()) {
        arrays.push_back(w.ga);
      }
    }
    Exchange<T> writes(m_, TransferMode::Word);
    for (auto* ga : arrays) {
      for (const auto& w : staged_writes_) {
        if (w.ga != ga) continue;
        const int dst = ga->owner(w.index);
        if (dst == w.src) {
          ga->slice_of(dst)[static_cast<std::size_t>(ga->slot(w.index))] =
              w.value;
        } else {
          writes.send_value(w.src, dst, w.value, static_cast<int>(ga->slot(w.index)));
        }
      }
      const auto& wbox = writes.run();
      for (int p = 0; p < m_.procs(); ++p) {
        for (const auto& parcel : wbox.at(p)) {
          ga->slice_of(p)[static_cast<std::size_t>(parcel.tag)] =
              parcel.data.front();
        }
      }
    }

    // Read requests (index words).
    Exchange<long> requests(m_, TransferMode::Word);
    for (std::size_t r = 0; r < staged_reads_.size(); ++r) {
      const auto& rd = staged_reads_[r];
      const int dst = rd.ga->owner(rd.index);
      if (dst == rd.src) continue;  // local read
      requests.send_value(rd.src, dst, static_cast<long>(r), rd.src);
    }
    const auto& reqbox = requests.run();

    // Replies.
    Exchange<T> replies(m_, TransferMode::Word);
    for (int p = 0; p < m_.procs(); ++p) {
      for (const auto& parcel : reqbox.at(p)) {
        const auto r = static_cast<std::size_t>(parcel.data.front());
        const auto& rd = staged_reads_[r];
        replies.send_value(p, rd.src, rd.ga->peek(rd.index), static_cast<int>(r));
      }
    }
    const auto& repbox = replies.run();
    for (int p = 0; p < m_.procs(); ++p) {
      for (const auto& parcel : repbox.at(p)) {
        const auto& rd = staged_reads_[static_cast<std::size_t>(parcel.tag)];
        *rd.out = parcel.data.front();
      }
    }
    // Local reads resolve at sync too.
    for (const auto& rd : staged_reads_) {
      if (rd.ga->owner(rd.index) == rd.src) *rd.out = rd.ga->peek(rd.index);
    }
    m_.barrier();
    staged_writes_.clear();
    staged_reads_.clear();
    stores_ = 0;
  }

 private:
  struct Write {
    GlobalArray<T>* ga;
    int src;
    long index;
    T value;
  };
  struct Read {
    const GlobalArray<T>* ga;
    int src;
    long index;
    T* out;
  };

  machines::Machine& m_;
  std::vector<Write> staged_writes_;
  std::vector<Read> staged_reads_;
  long stores_ = 0;
};

}  // namespace pcm::runtime
