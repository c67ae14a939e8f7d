#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sema.hpp"

// pcm::lint::flow — control-flow graphs over the sema token stream.
//
// One CFG per FunctionDef, built by recursive descent over the body's token
// range: if/else (including `if constexpr`), while/for/do loops with back
// edges, try/catch with explicit throw edges, return/throw terminators and
// break/continue. A body the builder cannot structure (switch, goto, an
// unmatched brace) collapses to the conservative fallback — one block over
// the whole body with a self edge, which forces the dataflow engine to
// widen everything to top, so no rule built on the CFG can claim knowledge
// it does not have.
//
// Blocks carry *token ranges*, not copies: a block owns one or more
// [begin, end) windows into TranslationUnit::tokens (a join block keeps
// collecting the statements after the construct that created it, so ranges
// need not be contiguous).

namespace pcm::lint::flow {

inline constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

struct BasicBlock {
  /// Token windows [begin, end) into the TU stream, in source order.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<std::size_t> succs;
};

struct Cfg {
  std::vector<BasicBlock> blocks;
  std::size_t entry = 0;
  std::size_t exit = 0;  ///< synthetic, empty range, no successors
  /// False when the conservative single-block fallback was used.
  bool structured = true;
  /// Loop back edges (from, to) — `to` is a loop head.
  std::vector<std::pair<std::size_t, std::size_t>> back_edges;
};

/// Build the CFG for one parsed function body.
[[nodiscard]] Cfg build_cfg(const sema::TranslationUnit& tu,
                            const sema::FunctionDef& fn);

}  // namespace pcm::lint::flow
