#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cfg.hpp"
#include "sema.hpp"

// pcm::lint::flow — the forward dataflow engine on top of cfg.hpp.
//
// The solver is a plain worklist fixpoint over an arbitrary lattice: the
// caller supplies transfer/join/equality, and a widening operator that the
// solver applies at blocks visited more than `widen_after` times (loop
// heads under the structured builder; the single fallback block otherwise).
// With the interval domain, widening drops any still-changing fact to top,
// so termination is by key-set shrinkage, not iteration luck.
//
// The interval domain is the one cost-overflow reads: value ranges for
// integer-flavoured locals. Seeded from MachineSpec.procs-style bounds: any
// `procs`/`pes` spelling (variable, member, call, `spec.procs`) is worth
// [1, 2^20], the 1M-PE ceiling the simulators scale to. Absent key = top
// (unknown); a rule built on the domain fires only on *known* intervals, so
// unknowable code stays silent instead of noisy. Function return intervals
// propagate interprocedurally through the callgraph's simple-name link
// (bounded fixpoint, see FlowSummaries).

namespace pcm::lint::flow {

// --- interval lattice --------------------------------------------------------

inline constexpr long long kProcsCeiling = 1LL << 20;  ///< p <= 2^20 PEs
/// Magnitudes beyond this are treated as top: the analyzer's own 64-bit
/// arithmetic must never overflow while reasoning about the target's.
inline constexpr long long kClamp = 1LL << 62;

struct Interval {
  long long lo = 0;
  long long hi = 0;
  bool known = false;  ///< false = top (no information)

  [[nodiscard]] static Interval top() { return {}; }
  [[nodiscard]] static Interval exact(long long v) { return {v, v, true}; }
  [[nodiscard]] static Interval range(long long lo, long long hi) {
    return {lo, hi, true};
  }
  bool operator==(const Interval& o) const {
    if (!known && !o.known) return true;
    return known == o.known && lo == o.lo && hi == o.hi;
  }
};

[[nodiscard]] Interval join(const Interval& a, const Interval& b);
/// Widening: any growth beyond `prev` goes straight to top.
[[nodiscard]] Interval widen(const Interval& prev, const Interval& next);
[[nodiscard]] Interval iadd(const Interval& a, const Interval& b);
[[nodiscard]] Interval isub(const Interval& a, const Interval& b);
[[nodiscard]] Interval imul(const Interval& a, const Interval& b);
[[nodiscard]] Interval idiv(const Interval& a, const Interval& b);
[[nodiscard]] Interval ishl(const Interval& a, const Interval& b);

/// Variable environment: name -> interval. Absent = top.
using IntervalEnv = std::map<std::string, Interval>;

[[nodiscard]] IntervalEnv join_env(const IntervalEnv& a, const IntervalEnv& b);
[[nodiscard]] IntervalEnv widen_env(const IntervalEnv& prev,
                                    const IntervalEnv& next);

// --- declared-type table -----------------------------------------------------

/// What the rules need to know about a declared integer type.
struct IntType {
  long long min = 0;
  long long max = 0;
  bool is_narrow = false;   ///< 32 bits or fewer
  std::string spelling;     ///< as written, e.g. "int", "uint32_t"
};

/// nullptr when `name` is not a known integer type spelling.
[[nodiscard]] const IntType* int_type(const std::string& name);

/// Scan a function (parameters + body) for integer-typed declarations:
/// variable name -> its declared type.
[[nodiscard]] std::map<std::string, const IntType*> scan_var_types(
    const sema::TranslationUnit& tu, const sema::FunctionDef& fn);

// --- interprocedural summaries ----------------------------------------------

/// Return-value intervals per simple function name, linked across TUs the
/// same way callgraph.hpp links calls. Built by a bounded fixpoint (two
/// rounds), so `int a() { return procs() * 4; } int b() { return a() + 1; }`
/// resolves b through a. Names resolving to multiple definitions join.
class FlowSummaries {
 public:
  explicit FlowSummaries(const std::vector<sema::TranslationUnit>& tus);

  /// Interval of `name()`'s return value; top when unknown.
  [[nodiscard]] Interval returns(const std::string& name) const;

 private:
  FlowSummaries() = default;  ///< empty snapshot used inside the fixpoint

  std::map<std::string, Interval> by_name_;
};

// --- expression evaluation / transfer ---------------------------------------

/// Everything cost-overflow needs from one assignment/initialisation.
struct AssignSite {
  std::string name;  ///< destination variable (simple name)
  int line = 0;
  Interval rhs;      ///< 64-bit interval of the right-hand side
  bool rhs_has_mul = false;  ///< a `*`/`<<` was evaluated in the RHS
};

struct EvalResult {
  Interval value;
  bool has_mul = false;
};

/// Evaluate the token range [lo, hi) as an integer expression under `env`
/// and the procs seeds/summaries. Unknown constructs evaluate to top.
[[nodiscard]] EvalResult eval_expr(const sema::TranslationUnit& tu,
                                   std::size_t lo, std::size_t hi,
                                   const IntervalEnv& env,
                                   const FlowSummaries* summaries);

/// The interval transfer function for one basic block. When `sites` is
/// non-null, every assignment/initialisation the transfer interprets is
/// appended (used by the rules to replay a solved CFG).
[[nodiscard]] IntervalEnv interval_transfer(
    const sema::TranslationUnit& tu, const Cfg& cfg, std::size_t block,
    IntervalEnv env, const FlowSummaries* summaries,
    std::vector<AssignSite>* sites);

// --- generic worklist solver -------------------------------------------------

template <typename State>
struct SolveResult {
  std::vector<State> in;        ///< per-block entry state
  std::vector<bool> reachable;  ///< block ever taken off the worklist
  int iterations = 0;
};

/// Forward worklist fixpoint. `widen_after` bounds how often a block may be
/// revisited before `widen` replaces plain `join` on its entry state; a
/// hard iteration cap (blocks * 16 + 64) backstops non-monotone transfer
/// mistakes.
template <typename State>
SolveResult<State> solve(
    const Cfg& cfg, State entry_state,
    const std::function<State(std::size_t, const State&)>& transfer,
    const std::function<State(const State&, const State&)>& join_fn,
    const std::function<State(const State&, const State&)>& widen_fn,
    int widen_after = 2) {
  const std::size_t n = cfg.blocks.size();
  SolveResult<State> r;
  r.in.resize(n);
  r.reachable.assign(n, false);
  std::vector<State> out(n);
  std::vector<bool> has_out(n, false);
  std::vector<bool> has_in(n, false);
  std::vector<int> visits(n, 0);
  std::vector<std::size_t> work = {cfg.entry};
  std::vector<bool> queued(n, false);
  queued[cfg.entry] = true;
  r.in[cfg.entry] = std::move(entry_state);
  has_in[cfg.entry] = true;
  const int cap = static_cast<int>(n) * 16 + 64;

  while (!work.empty() && r.iterations < cap) {
    const std::size_t b = work.front();
    work.erase(work.begin());
    queued[b] = false;
    ++r.iterations;
    r.reachable[b] = true;
    State o = transfer(b, r.in[b]);
    if (has_out[b] && o == out[b]) continue;
    out[b] = std::move(o);
    has_out[b] = true;
    for (const std::size_t s : cfg.blocks[b].succs) {
      State next = has_in[s] ? join_fn(r.in[s], out[b]) : out[b];
      if (++visits[s] > widen_after && has_in[s]) {
        next = widen_fn(r.in[s], next);
      }
      if (has_in[s] && next == r.in[s]) continue;
      r.in[s] = std::move(next);
      has_in[s] = true;
      if (!queued[s]) {
        work.push_back(s);
        queued[s] = true;
      }
    }
  }
  return r;
}

}  // namespace pcm::lint::flow
