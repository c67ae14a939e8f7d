#include "algos/matmul.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "algos/local/matmul_kernel.hpp"
#include "runtime/exchange.hpp"

namespace pcm::algos {

std::string_view to_string(MatmulVariant v) {
  switch (v) {
    case MatmulVariant::BspUnstaggered: return "bsp-unstaggered";
    case MatmulVariant::BspStaggered: return "bsp-staggered";
    case MatmulVariant::MpBsp: return "mp-bsp";
    case MatmulVariant::Bpram: return "mp-bpram";
  }
  return "?";
}

int matmul_q(const machines::Machine& m) {
  return runtime::Grid3::fit(m.procs()).q;
}

int matmul_round_n(const machines::Machine& m, int n) {
  const int q2 = matmul_q(m) * matmul_q(m);
  return ((n + q2 - 1) / q2) * q2;
}

namespace {

// Per-processor working state. Blocks are row-major with row length n/q.
template <typename T>
struct Local {
  std::vector<T> a_piece;  // N/q^2 x N/q   (A^k_ij)
  std::vector<T> b_piece;  // N/q^2 x N/q   (B^k_ij)
  std::vector<T> a_full;   // N/q   x N/q   (A_ij, assembled)
  std::vector<T> b_full;   // N/q   x N/q   (B_jk, assembled)
  std::vector<T> chat;     // N/q   x N/q   (A_ij * B_jk)
  std::vector<T> c_piece;  // N/q^2 x N/q   (C^l_ik, accumulated)
};

template <typename T>
class MatmulRun {
 public:
  MatmulRun(machines::Machine& m, const std::vector<T>& a,
            const std::vector<T>& b, int n, MatmulVariant v)
      : m_(m), grid_(runtime::Grid3::fit(m.procs())), n_(n), v_(v) {
    q_ = grid_.q;
    bs_ = n_ / q_;        // block size N/q
    ps_ = n_ / (q_ * q_); // piece rows N/q^2
    assert(ps_ * q_ * q_ == n_ && "N must be divisible by q^2");
    distribute(a, b);
  }

  MatmulResult<T> run() {
    m_.reset();
    replicate();       // superstep 1
    local_multiply();  // superstep 2
    reduce_scatter();  // superstep 3
    local_sums();      // superstep 4
    MatmulResult<T> out;
    out.time = m_.now();
    out.c = gather();
    out.mflops = 2.0 * static_cast<double>(n_) * n_ * n_ / out.time;  // flops/µs == Mflops
    return out;
  }

 private:
  [[nodiscard]] int rank(int i, int j, int k) const { return grid_.rank(i, j, k); }
  [[nodiscard]] long piece_elems() const { return static_cast<long>(ps_) * bs_; }

  void distribute(const std::vector<T>& a, const std::vector<T>& b) {
    local_.resize(static_cast<std::size_t>(m_.procs()));
    for (int i = 0; i < q_; ++i) {
      for (int j = 0; j < q_; ++j) {
        for (int k = 0; k < q_; ++k) {
          auto& loc = local_[static_cast<std::size_t>(rank(i, j, k))];
          loc.a_piece.resize(static_cast<std::size_t>(piece_elems()));
          loc.b_piece.resize(static_cast<std::size_t>(piece_elems()));
          for (int r = 0; r < ps_; ++r) {
            const long grow = static_cast<long>(i) * bs_ + k * ps_ + r;
            const long gcol = static_cast<long>(j) * bs_;
            std::memcpy(&loc.a_piece[static_cast<std::size_t>(r) * bs_],
                        &a[grow * n_ + gcol], sizeof(T) * static_cast<std::size_t>(bs_));
            std::memcpy(&loc.b_piece[static_cast<std::size_t>(r) * bs_],
                        &b[grow * n_ + gcol], sizeof(T) * static_cast<std::size_t>(bs_));
          }
        }
      }
    }
  }

  // The first piece_elems() words of a parcel: under a dup fault plan a
  // duplicated word lengthens a word parcel, and the extra words trail the
  // body.
  [[nodiscard]] std::span<const T> clip(std::span<const T> parcel) const {
    return parcel.first(
        std::min(parcel.size(), static_cast<std::size_t>(piece_elems())));
  }

  // Install an N/q^2-row piece into a full N/q x N/q block at row-slot `slot`.
  void install(std::vector<T>& full, int slot, std::span<const T> piece) {
    if (full.empty()) full.assign(static_cast<std::size_t>(bs_) * bs_, T{});
    const auto body = clip(piece);
    std::memcpy(&full[static_cast<std::size_t>(slot) * ps_ * bs_], body.data(),
                body.size_bytes());
  }

  // ---- superstep 1: replicate A within <i,j,*>, B to <*,i,j> -------------
  void replicate() {
    const bool stag = v_ != MatmulVariant::BspUnstaggered;
    if (v_ == MatmulVariant::MpBsp) {
      replicate_mp_bsp();
      return;
    }
    if (v_ == MatmulVariant::Bpram) {
      // Single-port permutation steps: one block per processor per step.
      runtime::Exchange<T> ex(m_, runtime::TransferMode::Block);
      for (int d = 1; d < q_; ++d) {  // A to <i,j,(k+d)%q>
        for_each_proc([&](int i, int j, int k, Local<T>& loc) {
          ex.send(rank(i, j, k), rank(i, j, (k + d) % q_), loc.a_piece, k);
        });
        deliver_a(ex);
        m_.barrier();
      }
      for (int d = 0; d < q_; ++d) {  // B^k_ij to <(k+d)%q, i, j>
        for_each_proc([&](int i, int j, int k, Local<T>& loc) {
          const int dst = rank((k + d) % q_, i, j);
          if (dst == rank(i, j, k)) {
            install(loc.b_full, k, loc.b_piece);
          } else {
            ex.send(rank(i, j, k), dst, loc.b_piece, kBTagBase + k);
          }
        });
        deliver_b(ex);
        m_.barrier();
      }
    } else {
      // One pipelined word superstep carrying both replications.
      runtime::Exchange<T> ex(m_, runtime::TransferMode::Word);
      for_each_proc([&](int i, int j, int k, Local<T>& loc) {
        for (int d = 1; d < q_; ++d) {
          const int kk = stag ? (k + d) % q_ : d - 1 + (d - 1 >= k ? 1 : 0);
          ex.send(rank(i, j, k), rank(i, j, kk), loc.a_piece, k);
        }
        for (int d = 0; d < q_; ++d) {
          const int ii = stag ? (k + d) % q_ : d;
          const int dst = rank(ii, i, j);
          if (dst == rank(i, j, k)) {
            install(loc.b_full, k, loc.b_piece);
          } else {
            ex.send(rank(i, j, k), dst, loc.b_piece, kBTagBase + k);
          }
        }
      });
      consume(ex.run());
      m_.barrier();
    }
    // Everyone installs its own A piece locally (free).
    for_each_proc([&](int, int, int k, Local<T>& loc) {
      install(loc.a_full, k, loc.a_piece);
    });
  }

  // MasPar MP-BSP: one element per PE per communication step, staggered.
  void replicate_mp_bsp() {
    const long elems = piece_elems();
    runtime::Exchange<T> ex(m_, runtime::TransferMode::Word);
    for (int d = 1; d < q_; ++d) {
      for (long e = 0; e < elems; ++e) {
        for_each_proc([&](int i, int j, int k, Local<T>& loc) {
          ex.send_value(rank(i, j, k), rank(i, j, (k + d) % q_),
                        loc.a_piece[static_cast<std::size_t>(e)],
                        tag2(k, static_cast<int>(e)));
        });
        deliver_a_elems(ex);
      }
    }
    for (int d = 0; d < q_; ++d) {
      for (long e = 0; e < elems; ++e) {
        for_each_proc([&](int i, int j, int k, Local<T>& loc) {
          const int dst = rank((k + d) % q_, i, j);
          if (dst == rank(i, j, k)) {
            ensure_b(loc);
            loc.b_full[static_cast<std::size_t>(k) * elems + static_cast<std::size_t>(e)] =
                loc.b_piece[static_cast<std::size_t>(e)];
          } else {
            ex.send_value(rank(i, j, k), dst,
                          loc.b_piece[static_cast<std::size_t>(e)],
                          tag2(k, static_cast<int>(e)));
          }
        });
        deliver_b_elems(ex);
      }
    }
    for_each_proc([&](int, int, int k, Local<T>& loc) {
      install(loc.a_full, k, loc.a_piece);
    });
  }

  // ---- superstep 2 --------------------------------------------------------
  void local_multiply() {
    for_each_proc([&](int, int, int, Local<T>& loc) {
      loc.chat.assign(static_cast<std::size_t>(bs_) * bs_, T{});
    });
    for (int p = 0; p < grid_.procs(); ++p) {
      auto& loc = local_[static_cast<std::size_t>(p)];
      // An operand block stays empty when every parcel carrying it was lost
      // (e.g. under a drop/dead-channel fault plan). Fail loudly rather than
      // hand the kernel a null span; partial loss leaves zero-filled holes
      // and is caught downstream by output validation instead.
      if (loc.a_full.empty() || loc.b_full.empty()) {
        throw std::runtime_error(
            "matmul: PE " + std::to_string(p) + " never received its " +
            (loc.a_full.empty() ? "A" : "B") +
            " block — all parcels lost (data-loss fault?)");
      }
      const sim::Micros cost = matmul_charged<T>(
          loc.a_full, loc.b_full, loc.chat, bs_, bs_, bs_, m_.compute());
      m_.charge(p, cost);
    }
    m_.barrier();
  }

  // ---- superstep 3: Chat^l_ijk -> <i,k,l> ---------------------------------
  void reduce_scatter() {
    const bool stag = v_ != MatmulVariant::BspUnstaggered;
    auto piece_of = [&](const Local<T>& loc, int l) {
      return std::span<const T>(loc.chat.data() +
                                    static_cast<std::size_t>(l) * ps_ * bs_,
                                static_cast<std::size_t>(piece_elems()));
    };
    if (v_ == MatmulVariant::MpBsp) {
      const long elems = piece_elems();
      runtime::Exchange<T> ex(m_, runtime::TransferMode::Word);
      for (int d = 0; d < q_; ++d) {
        for (long e = 0; e < elems; ++e) {
          for_each_proc([&](int i, int j, int k, Local<T>& loc) {
            const int l = (j + d) % q_;
            const int dst = rank(i, k, l);
            const T val = piece_of(loc, l)[static_cast<std::size_t>(e)];
            if (dst == rank(i, j, k)) {
              accumulate_c(loc, static_cast<int>(e), val);
            } else {
              ex.send_value(rank(i, j, k), dst, static_cast<T>(val),
                            static_cast<int>(e));
            }
          });
          const auto& box = ex.run();
          for (int p = 0; p < grid_.procs(); ++p) {
            auto& loc = local_[static_cast<std::size_t>(p)];
            for (const auto& parcel : box.at(p)) {
              accumulate_c(loc, parcel.tag, parcel.data.front());
              m_.charge(p, m_.compute().beta_sum);
            }
          }
        }
      }
      return;
    }
    if (v_ == MatmulVariant::Bpram) {
      runtime::Exchange<T> ex(m_, runtime::TransferMode::Block);
      for (int d = 0; d < q_; ++d) {
        for_each_proc([&](int i, int j, int k, Local<T>& loc) {
          const int l = (j + d) % q_;
          const int dst = rank(i, k, l);
          if (dst == rank(i, j, k)) {
            accumulate_piece(loc, piece_of(loc, l));
          } else {
            ex.send(rank(i, j, k), dst, piece_of(loc, l));
          }
        });
        deliver_c(ex);
        m_.barrier();
      }
      return;
    }
    // BSP word superstep.
    runtime::Exchange<T> ex(m_, runtime::TransferMode::Word);
    for_each_proc([&](int i, int j, int k, Local<T>& loc) {
      for (int d = 0; d < q_; ++d) {
        const int l = stag ? (j + d) % q_ : d;
        const int dst = rank(i, k, l);
        if (dst == rank(i, j, k)) {
          accumulate_piece(loc, piece_of(loc, l));
        } else {
          ex.send(rank(i, j, k), dst, piece_of(loc, l));
        }
      }
    });
    deliver_c(ex);
    m_.barrier();
  }

  void local_sums() {
    // The additions were folded into accumulate_* as data motion; charge the
    // model's beta * (q-1) * N^2/q^3 here for the word/block variants
    // (MP-BSP already charged per element on delivery).
    if (v_ != MatmulVariant::MpBsp) {
      const sim::Micros cost =
          m_.compute().beta_sum * static_cast<double>(q_ - 1) *
          static_cast<double>(piece_elems());
      m_.charge_all(cost);
      m_.barrier();
    } else {
      m_.barrier();
    }
  }

  // ---- plumbing -----------------------------------------------------------
  template <typename Fn>
  void for_each_proc(Fn&& fn) {
    for (int i = 0; i < q_; ++i) {
      for (int j = 0; j < q_; ++j) {
        for (int k = 0; k < q_; ++k) {
          fn(i, j, k, local_[static_cast<std::size_t>(rank(i, j, k))]);
        }
      }
    }
  }

  static constexpr int kBTagBase = 1 << 20;

  static int tag2(int slot, int elem) { return slot * (1 << 24) + elem; }

  void ensure_b(Local<T>& loc) {
    if (loc.b_full.empty())
      loc.b_full.assign(static_cast<std::size_t>(bs_) * bs_, T{});
  }

  void consume(const runtime::Mailbox<T>& box) {
    for (int p = 0; p < grid_.procs(); ++p) {
      auto& loc = local_[static_cast<std::size_t>(p)];
      for (const auto& parcel : box.at(p)) {
        // Tags below kBTagBase carry A pieces (tag = sender's k slot);
        // tags at or above it carry B pieces.
        if (parcel.tag < kBTagBase) {
          install(loc.a_full, parcel.tag, parcel.data);
        } else {
          install(loc.b_full, parcel.tag - kBTagBase, parcel.data);
        }
      }
    }
  }

  void deliver_a(runtime::Exchange<T>& ex) {
    const auto& box = ex.run();
    for (int p = 0; p < grid_.procs(); ++p) {
      auto& loc = local_[static_cast<std::size_t>(p)];
      for (const auto& parcel : box.at(p)) install(loc.a_full, parcel.tag, parcel.data);
    }
  }

  void deliver_b(runtime::Exchange<T>& ex) {
    const auto& box = ex.run();
    for (int p = 0; p < grid_.procs(); ++p) {
      auto& loc = local_[static_cast<std::size_t>(p)];
      for (const auto& parcel : box.at(p)) {
        install(loc.b_full, parcel.tag - kBTagBase, parcel.data);
      }
    }
  }

  void deliver_a_elems(runtime::Exchange<T>& ex) {
    const auto& box = ex.run();
    for (int p = 0; p < grid_.procs(); ++p) {
      auto& loc = local_[static_cast<std::size_t>(p)];
      if (loc.a_full.empty())
        loc.a_full.assign(static_cast<std::size_t>(bs_) * bs_, T{});
      for (const auto& parcel : box.at(p)) {
        const int slot = parcel.tag >> 24;
        const int e = parcel.tag & ((1 << 24) - 1);
        loc.a_full[static_cast<std::size_t>(slot) * piece_elems() + e] =
            parcel.data.front();
      }
    }
  }

  void deliver_b_elems(runtime::Exchange<T>& ex) {
    const auto& box = ex.run();
    for (int p = 0; p < grid_.procs(); ++p) {
      auto& loc = local_[static_cast<std::size_t>(p)];
      ensure_b(loc);
      for (const auto& parcel : box.at(p)) {
        const int slot = parcel.tag >> 24;
        const int e = parcel.tag & ((1 << 24) - 1);
        loc.b_full[static_cast<std::size_t>(slot) * piece_elems() + e] =
            parcel.data.front();
      }
    }
  }

  void ensure_c(Local<T>& loc) {
    if (loc.c_piece.empty())
      loc.c_piece.assign(static_cast<std::size_t>(piece_elems()), T{});
  }

  void accumulate_c(Local<T>& loc, int e, T val) {
    ensure_c(loc);
    loc.c_piece[static_cast<std::size_t>(e)] += val;
  }

  void accumulate_piece(Local<T>& loc, std::span<const T> piece) {
    ensure_c(loc);
    const auto body = clip(piece);
    for (std::size_t e = 0; e < body.size(); ++e) loc.c_piece[e] += body[e];
  }

  void deliver_c(runtime::Exchange<T>& ex) {
    const auto& box = ex.run();
    for (int p = 0; p < grid_.procs(); ++p) {
      auto& loc = local_[static_cast<std::size_t>(p)];
      runtime::for_each_parcel_once(m_, box.at(p), [&](const auto& parcel) {
        accumulate_piece(loc, parcel.data);
      });
    }
  }

  std::vector<T> gather() {
    std::vector<T> c(static_cast<std::size_t>(n_) * n_, T{});
    // <i,k,l> holds C^l_ik: rows [i*bs + l*ps, ...), column block k.
    for (int i = 0; i < q_; ++i) {
      for (int k = 0; k < q_; ++k) {
        for (int l = 0; l < q_; ++l) {
          auto& loc = local_[static_cast<std::size_t>(rank(i, k, l))];
          ensure_c(loc);
          for (int r = 0; r < ps_; ++r) {
            const long grow = static_cast<long>(i) * bs_ + l * ps_ + r;
            const long gcol = static_cast<long>(k) * bs_;
            std::memcpy(&c[grow * n_ + gcol],
                        &loc.c_piece[static_cast<std::size_t>(r) * bs_],
                        sizeof(T) * static_cast<std::size_t>(bs_));
          }
        }
      }
    }
    return c;
  }

  machines::Machine& m_;
  runtime::Grid3 grid_;
  int n_;
  MatmulVariant v_;
  int q_ = 1;
  int bs_ = 0;
  int ps_ = 0;
  std::vector<Local<T>> local_;
};

}  // namespace

template <typename T>
MatmulResult<T> run_matmul(machines::Machine& m, const std::vector<T>& a,
                           const std::vector<T>& b, int n, MatmulVariant v) {
  assert(static_cast<long>(a.size()) == static_cast<long>(n) * n);
  assert(static_cast<long>(b.size()) == static_cast<long>(n) * n);
  MatmulRun<T> run(m, a, b, n, v);
  return run.run();
}

template MatmulResult<float> run_matmul<float>(machines::Machine&,
                                               const std::vector<float>&,
                                               const std::vector<float>&, int,
                                               MatmulVariant);
template MatmulResult<double> run_matmul<double>(machines::Machine&,
                                                 const std::vector<double>&,
                                                 const std::vector<double>&,
                                                 int, MatmulVariant);

}  // namespace pcm::algos
