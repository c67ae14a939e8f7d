#include "cfg.hpp"

#include <string>

namespace pcm::lint::flow {

namespace {

using lexer::Tok;
using lexer::Token;

/// Index of the token matching the opener at `open` (`(`/`[`/`{`), scanning
/// forward no further than `limit`. Returns `limit` when unbalanced.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          std::size_t limit) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : (o == "[" ? "]" : "}");
  int depth = 0;
  for (std::size_t i = open; i < limit; ++i) {
    if (toks[i].kind != Tok::Punct) continue;
    if (toks[i].text == o) {
      ++depth;
    } else if (toks[i].text == c) {
      if (--depth == 0) return i;
    }
  }
  return limit;
}

class Builder {
 public:
  Builder(const sema::TranslationUnit& tu, const sema::FunctionDef& fn)
      : toks_(tu.tokens), fn_(fn) {}

  Cfg build() {
    cfg_.entry = new_block();
    cfg_.exit = new_block();
    const std::size_t lo = fn_.body_begin + 1;
    const std::size_t hi =
        fn_.body_end < toks_.size() ? fn_.body_end : toks_.size();
    std::size_t i = lo;
    const std::size_t out = parse_seq(i, hi, cfg_.entry);
    if (out != kNoBlock) edge(out, cfg_.exit);
    if (bail_) return fallback(lo, hi);
    return std::move(cfg_);
  }

 private:
  struct Loop {
    std::size_t head;
    std::size_t exit;
  };

  std::size_t new_block() {
    cfg_.blocks.push_back(BasicBlock{});
    return cfg_.blocks.size() - 1;
  }

  void edge(std::size_t from, std::size_t to) {
    cfg_.blocks[from].succs.push_back(to);
  }

  void add_range(std::size_t b, std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    auto& rs = cfg_.blocks[b].ranges;
    if (!rs.empty() && rs.back().second == lo) {
      rs.back().second = hi;  // extend a contiguous run
    } else {
      rs.emplace_back(lo, hi);
    }
  }

  bool is_punct(std::size_t i, const char* p) const {
    return i < toks_.size() && toks_[i].kind == Tok::Punct &&
           toks_[i].text == p;
  }

  bool is_ident(std::size_t i, const char* s) const {
    return i < toks_.size() && toks_[i].kind == Tok::Ident &&
           toks_[i].text == s;
  }

  /// Consume one simple statement: everything through the next `;` at
  /// bracket depth 0 (balancing parens/brackets/braces, so lambda bodies
  /// and braced initialisers stay inside the statement).
  void simple_stmt(std::size_t& i, std::size_t end, std::size_t cur) {
    const std::size_t start = i;
    int depth = 0;
    while (i < end) {
      const Token& t = toks_[i];
      if (t.kind == Tok::Punct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
        if (t.text == ";" && depth <= 0) {
          ++i;
          break;
        }
      }
      ++i;
    }
    add_range(cur, start, i);
  }

  /// Parse statements until `end`; returns the fallthrough block, or
  /// kNoBlock when every path terminated (return/throw/break/continue).
  std::size_t parse_seq(std::size_t& i, std::size_t end, std::size_t cur) {
    while (i < end && !bail_) {
      if (cur == kNoBlock) cur = new_block();  // unreachable tail code
      cur = parse_stmt(i, end, cur);
    }
    return cur;
  }

  /// Parse one statement into `cur`; returns the block control falls out
  /// of (possibly a fresh join block), or kNoBlock.
  std::size_t parse_stmt(std::size_t& i, std::size_t end, std::size_t cur) {
    if (i >= end || bail_) return cur;

    if (is_ident(i, "switch") || is_ident(i, "goto")) {
      bail_ = true;
      return cur;
    }
    if (is_punct(i, "{")) {
      const std::size_t close = match_forward(toks_, i, end);
      std::size_t j = i + 1;
      const std::size_t out = parse_seq(j, close, cur);
      i = close < end ? close + 1 : end;
      return out;
    }
    if (is_ident(i, "if")) return parse_if(i, end, cur);
    if (is_ident(i, "while")) return parse_while(i, end, cur);
    if (is_ident(i, "for")) return parse_for(i, end, cur);
    if (is_ident(i, "do")) return parse_do(i, end, cur);
    if (is_ident(i, "try")) return parse_try(i, end, cur);
    if (is_ident(i, "return")) {
      simple_stmt(i, end, cur);
      edge(cur, cfg_.exit);
      return kNoBlock;
    }
    if (is_ident(i, "throw")) {
      simple_stmt(i, end, cur);
      edge(cur, handlers_.empty() ? cfg_.exit : handlers_.back());
      return kNoBlock;
    }
    if (is_ident(i, "break")) {
      if (loops_.empty()) {
        bail_ = true;
        return cur;
      }
      simple_stmt(i, end, cur);
      edge(cur, loops_.back().exit);
      return kNoBlock;
    }
    if (is_ident(i, "continue")) {
      if (loops_.empty()) {
        bail_ = true;
        return cur;
      }
      simple_stmt(i, end, cur);
      edge(cur, loops_.back().head);
      cfg_.back_edges.emplace_back(cur, loops_.back().head);
      return kNoBlock;
    }
    simple_stmt(i, end, cur);
    return cur;
  }

  std::size_t parse_if(std::size_t& i, std::size_t end, std::size_t cur) {
    std::size_t j = i + 1;
    if (is_ident(j, "constexpr")) ++j;  // `if constexpr (...)`: a plain branch
    if (!is_punct(j, "(")) {
      bail_ = true;
      return cur;
    }
    const std::size_t close = match_forward(toks_, j, end);
    add_range(cur, i, close + 1);
    std::size_t then_b = new_block();
    edge(cur, then_b);
    i = close + 1;
    const std::size_t tend = parse_stmt(i, end, then_b);
    if (is_ident(i, "else")) {
      ++i;
      std::size_t else_b = new_block();
      edge(cur, else_b);
      const std::size_t eend = parse_stmt(i, end, else_b);
      if (tend == kNoBlock && eend == kNoBlock) return kNoBlock;
      const std::size_t join = new_block();
      if (tend != kNoBlock) edge(tend, join);
      if (eend != kNoBlock) edge(eend, join);
      return join;
    }
    const std::size_t join = new_block();
    edge(cur, join);  // condition false
    if (tend != kNoBlock) edge(tend, join);
    return join;
  }

  std::size_t parse_while(std::size_t& i, std::size_t end, std::size_t cur) {
    if (!is_punct(i + 1, "(")) {
      bail_ = true;
      return cur;
    }
    const std::size_t close = match_forward(toks_, i + 1, end);
    const std::size_t head = new_block();
    edge(cur, head);
    add_range(head, i, close + 1);
    const std::size_t exit_b = new_block();
    const std::size_t body = new_block();
    edge(head, body);
    edge(head, exit_b);
    loops_.push_back({head, exit_b});
    i = close + 1;
    const std::size_t bend = parse_stmt(i, end, body);
    loops_.pop_back();
    if (bend != kNoBlock) {
      edge(bend, head);
      cfg_.back_edges.emplace_back(bend, head);
    }
    return exit_b;
  }

  std::size_t parse_for(std::size_t& i, std::size_t end, std::size_t cur) {
    if (!is_punct(i + 1, "(")) {
      bail_ = true;
      return cur;
    }
    const std::size_t close = match_forward(toks_, i + 1, end);
    const std::size_t head = new_block();
    edge(cur, head);
    add_range(head, i, close + 1);  // init + cond + increment
    const std::size_t exit_b = new_block();
    const std::size_t body = new_block();
    edge(head, body);
    edge(head, exit_b);
    loops_.push_back({head, exit_b});
    i = close + 1;
    const std::size_t bend = parse_stmt(i, end, body);
    loops_.pop_back();
    if (bend != kNoBlock) {
      edge(bend, head);
      cfg_.back_edges.emplace_back(bend, head);
    }
    return exit_b;
  }

  std::size_t parse_do(std::size_t& i, std::size_t end, std::size_t cur) {
    const std::size_t body = new_block();
    edge(cur, body);
    const std::size_t cond = new_block();
    const std::size_t exit_b = new_block();
    loops_.push_back({cond, exit_b});
    ++i;  // past `do`
    const std::size_t bend = parse_stmt(i, end, body);
    loops_.pop_back();
    if (bend != kNoBlock) edge(bend, cond);
    if (!is_ident(i, "while") || !is_punct(i + 1, "(")) {
      bail_ = true;
      return cur;
    }
    const std::size_t close = match_forward(toks_, i + 1, end);
    std::size_t semi = close + 1;
    if (is_punct(semi, ";")) ++semi;
    add_range(cond, i, semi);
    i = semi;
    edge(cond, body);
    cfg_.back_edges.emplace_back(cond, body);
    edge(cond, exit_b);
    return exit_b;
  }

  std::size_t parse_try(std::size_t& i, std::size_t end, std::size_t cur) {
    if (!is_punct(i + 1, "{")) {
      bail_ = true;
      return cur;
    }
    const std::size_t body = new_block();
    edge(cur, body);
    const std::size_t landing = new_block();
    handlers_.push_back(landing);
    const std::size_t close = match_forward(toks_, i + 1, end);
    std::size_t j = i + 2;
    const std::size_t bend = parse_seq(j, close, body);
    handlers_.pop_back();
    i = close < end ? close + 1 : end;
    const std::size_t join = new_block();
    if (bend != kNoBlock) edge(bend, join);
    bool any_handler = false;
    while (is_ident(i, "catch") && is_punct(i + 1, "(")) {
      any_handler = true;
      const std::size_t pclose = match_forward(toks_, i + 1, end);
      const std::size_t handler = new_block();
      edge(landing, handler);
      i = pclose + 1;
      const std::size_t hend = parse_stmt(i, end, handler);
      if (hend != kNoBlock) edge(hend, join);
    }
    if (!any_handler) edge(landing, cfg_.exit);  // malformed: be conservative
    return join;
  }

  /// Conservative fallback: one block over the whole body with a self edge
  /// (forcing widening to top) plus an exit edge.
  Cfg fallback(std::size_t lo, std::size_t hi) {
    Cfg out;
    out.structured = false;
    out.blocks.resize(2);
    out.entry = 0;
    out.exit = 1;
    out.blocks[0].ranges.emplace_back(lo, hi);
    out.blocks[0].succs = {0, 1};
    out.back_edges.emplace_back(0, 0);
    return out;
  }

  const std::vector<Token>& toks_;
  const sema::FunctionDef& fn_;
  Cfg cfg_;
  std::vector<Loop> loops_;
  std::vector<std::size_t> handlers_;  ///< innermost try's landing block
  bool bail_ = false;
};

}  // namespace

Cfg build_cfg(const sema::TranslationUnit& tu, const sema::FunctionDef& fn) {
  return Builder(tu, fn).build();
}

}  // namespace pcm::lint::flow
