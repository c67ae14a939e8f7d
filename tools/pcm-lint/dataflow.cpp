#include "dataflow.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace pcm::lint::flow {

namespace {

using lexer::Tok;
using lexer::Token;

long long clamp_ll(__int128 v) {
  if (v > static_cast<__int128>(kClamp)) return kClamp + 1;  // overflow mark
  if (v < -static_cast<__int128>(kClamp)) return -(kClamp + 1);
  return static_cast<long long>(v);
}

bool clamped(long long v) { return v > kClamp || v < -kClamp; }

/// procs/pes spellings seeded to [1, 2^20] wherever they appear.
bool is_procs_seed(const std::string& name) {
  return name == "procs" || name == "procs_" || name == "pes" ||
         name == "pes_" || name == "nprocs" || name == "n_procs" ||
         name == "num_procs" || name == "resolved_procs" ||
         name == "clusters" || name == "clusters_";
}

}  // namespace

// --- interval arithmetic -----------------------------------------------------

Interval join(const Interval& a, const Interval& b) {
  if (!a.known || !b.known) return Interval::top();
  return Interval::range(std::min(a.lo, b.lo), std::max(a.hi, b.hi));
}

Interval widen(const Interval& prev, const Interval& next) {
  if (!prev.known || !next.known) return Interval::top();
  if (next.lo < prev.lo || next.hi > prev.hi) return Interval::top();
  return next;
}

namespace {

Interval hull4(long long a, long long b, long long c, long long d) {
  const long long lo = std::min(std::min(a, b), std::min(c, d));
  const long long hi = std::max(std::max(a, b), std::max(c, d));
  if (clamped(lo) || clamped(hi)) return Interval::top();
  return Interval::range(lo, hi);
}

}  // namespace

Interval iadd(const Interval& a, const Interval& b) {
  if (!a.known || !b.known) return Interval::top();
  const long long lo = clamp_ll(static_cast<__int128>(a.lo) + b.lo);
  const long long hi = clamp_ll(static_cast<__int128>(a.hi) + b.hi);
  if (clamped(lo) || clamped(hi)) return Interval::top();
  return Interval::range(lo, hi);
}

Interval isub(const Interval& a, const Interval& b) {
  if (!a.known || !b.known) return Interval::top();
  const long long lo = clamp_ll(static_cast<__int128>(a.lo) - b.hi);
  const long long hi = clamp_ll(static_cast<__int128>(a.hi) - b.lo);
  if (clamped(lo) || clamped(hi)) return Interval::top();
  return Interval::range(lo, hi);
}

Interval imul(const Interval& a, const Interval& b) {
  if (!a.known || !b.known) return Interval::top();
  return hull4(clamp_ll(static_cast<__int128>(a.lo) * b.lo),
               clamp_ll(static_cast<__int128>(a.lo) * b.hi),
               clamp_ll(static_cast<__int128>(a.hi) * b.lo),
               clamp_ll(static_cast<__int128>(a.hi) * b.hi));
}

Interval idiv(const Interval& a, const Interval& b) {
  if (!a.known || !b.known || b.lo <= 0) return Interval::top();
  return hull4(a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi);
}

Interval ishl(const Interval& a, const Interval& b) {
  if (!a.known || !b.known || a.lo < 0 || b.lo < 0 || b.hi > 62) {
    return Interval::top();
  }
  const long long lo = clamp_ll(static_cast<__int128>(a.lo) << b.lo);
  const long long hi = clamp_ll(static_cast<__int128>(a.hi) << b.hi);
  if (clamped(lo) || clamped(hi)) return Interval::top();
  return Interval::range(lo, hi);
}

IntervalEnv join_env(const IntervalEnv& a, const IntervalEnv& b) {
  // Absent = top, so only keys known on *both* paths survive the join.
  IntervalEnv out;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end()) continue;
    const Interval j = join(v, it->second);
    if (j.known) out[k] = j;
  }
  return out;
}

IntervalEnv widen_env(const IntervalEnv& prev, const IntervalEnv& next) {
  // Keep only facts that have stopped changing; everything else goes to
  // top. Termination by key-set shrinkage.
  IntervalEnv out;
  for (const auto& [k, v] : next) {
    const auto it = prev.find(k);
    if (it != prev.end() && it->second == v) out[k] = v;
  }
  return out;
}

// --- declared-type table -----------------------------------------------------

const IntType* int_type(const std::string& name) {
  static const std::map<std::string, IntType> table = {
      {"int", {-2147483648LL, 2147483647LL, true, "int"}},
      {"int32_t", {-2147483648LL, 2147483647LL, true, "int32_t"}},
      {"unsigned", {0, 4294967295LL, true, "unsigned"}},
      {"uint32_t", {0, 4294967295LL, true, "uint32_t"}},
      {"short", {-32768, 32767, true, "short"}},
      {"int16_t", {-32768, 32767, true, "int16_t"}},
      {"uint16_t", {0, 65535, true, "uint16_t"}},
      {"int8_t", {-128, 127, true, "int8_t"}},
      {"uint8_t", {0, 255, true, "uint8_t"}},
      // Wide types (LP64: long is 64-bit, matching the toolchain image this
      // linter and the simulators build in).
      {"long", {-kClamp, kClamp, false, "long"}},
      {"int64_t", {-kClamp, kClamp, false, "int64_t"}},
      {"uint64_t", {0, kClamp, false, "uint64_t"}},
      {"size_t", {0, kClamp, false, "size_t"}},
      {"ptrdiff_t", {-kClamp, kClamp, false, "ptrdiff_t"}},
      {"intptr_t", {-kClamp, kClamp, false, "intptr_t"}},
      {"uintptr_t", {0, kClamp, false, "uintptr_t"}},
  };
  const auto it = table.find(name);
  return it == table.end() ? nullptr : &it->second;
}

namespace {

bool is_type_word(const std::string& s) {
  return s == "const" || s == "signed" || s == "unsigned" || s == "long" ||
         s == "int" || s == "short" || s == "char" || s == "constexpr" ||
         s == "static";
}

/// Canonical IntType for a multi-word phrase like `unsigned long` /
/// `long long` / `short int`; nullptr for char or non-integer phrases.
const IntType* phrase_type(const std::vector<std::string>& words) {
  int longs = 0;
  bool uns = false, has_int = false, has_short = false, has_char = false;
  for (const auto& w : words) {
    if (w == "long") ++longs;
    if (w == "unsigned") uns = true;
    if (w == "int") has_int = true;
    if (w == "short") has_short = true;
    if (w == "char") has_char = true;
  }
  if (has_char) return nullptr;
  if (longs > 0) return int_type(uns ? "uint64_t" : "long");
  if (has_short) return int_type("short");
  if (uns) return int_type("unsigned");
  if (has_int) return int_type("int");
  return nullptr;
}

std::size_t signature_start(const sema::TranslationUnit& tu,
                            const sema::FunctionDef& fn) {
  // Walk back from the body `{` over trailing specifiers to the `)` of the
  // parameter list, then to its `(`.
  const auto& toks = tu.tokens;
  if (fn.body_begin == 0) return fn.body_begin;
  std::size_t j = fn.body_begin - 1;
  while (j > 0 && toks[j].kind == Tok::Ident) --j;
  if (!(toks[j].kind == Tok::Punct && toks[j].text == ")")) {
    return fn.body_begin;
  }
  int depth = 0;
  for (std::size_t i = j + 1; i-- > 0;) {
    if (toks[i].kind != Tok::Punct) continue;
    if (toks[i].text == ")") ++depth;
    if (toks[i].text == "(" && --depth == 0) return i;
  }
  return fn.body_begin;
}

}  // namespace

std::map<std::string, const IntType*> scan_var_types(
    const sema::TranslationUnit& tu, const sema::FunctionDef& fn) {
  std::map<std::string, const IntType*> out;
  const auto& toks = tu.tokens;
  const std::size_t lo = signature_start(tu, fn);
  const std::size_t hi = std::min(fn.body_end, toks.size());
  for (std::size_t i = lo; i + 1 < hi; ++i) {
    if (toks[i].kind != Tok::Ident) continue;
    const IntType* ty = nullptr;
    std::size_t j = i;
    std::vector<std::string> words;
    if (toks[i].text == "std" && i + 2 < hi &&
        toks[i + 1].kind == Tok::Punct && toks[i + 1].text == "::" &&
        int_type(toks[i + 2].text) != nullptr) {
      ty = int_type(toks[i + 2].text);
      j = i + 3;
    } else if (int_type(toks[i].text) != nullptr &&
               !is_type_word(toks[i].text)) {
      // Single-token typedef name (int32_t, size_t, ...).
      ty = int_type(toks[i].text);
      j = i + 1;
    } else if (is_type_word(toks[i].text)) {
      while (j < hi && toks[j].kind == Tok::Ident &&
             is_type_word(toks[j].text)) {
        words.push_back(toks[j].text);
        ++j;
      }
      ty = phrase_type(words);
      if (ty == nullptr) continue;
    } else {
      continue;
    }
    // Pointers/references are not integer variables.
    if (j < hi && toks[j].kind == Tok::Punct &&
        (toks[j].text == "*" || toks[j].text == "&")) {
      i = j;
      continue;
    }
    if (j >= hi || toks[j].kind != Tok::Ident ||
        int_type(toks[j].text) != nullptr || is_type_word(toks[j].text)) {
      continue;
    }
    const std::string& name = toks[j].text;
    if (j + 1 < hi && toks[j + 1].kind == Tok::Punct &&
        (toks[j + 1].text == "=" || toks[j + 1].text == ";" ||
         toks[j + 1].text == "," || toks[j + 1].text == ")" ||
         toks[j + 1].text == "{" || toks[j + 1].text == "[")) {
      out[name] = ty;
      i = j;
    }
  }
  return out;
}

// --- expression evaluation ---------------------------------------------------

namespace {

/// Integer literal -> interval. Handles digit separators, hex/octal/binary
/// bases and integer suffixes; float-flavoured literals (., e/E exponents,
/// hex-float p/P) evaluate to top.
Interval literal(const std::string& text) {
  std::string s;
  s.reserve(text.size());
  for (const char c : text) {
    if (c != '\'') s.push_back(c);
  }
  const bool hex = s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  // Float? A dot anywhere, a p/P exponent (hex floats), or an e/E exponent
  // in a non-hex literal.
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '.') return Interval::top();
    if ((c == 'p' || c == 'P') && hex) return Interval::top();
    if ((c == 'e' || c == 'E') && !hex) return Interval::top();
    if ((c == 'f' || c == 'F') && !hex) return Interval::top();
  }
  while (!s.empty()) {
    const char c = s.back();
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'z' ||
        c == 'Z') {
      s.pop_back();
    } else {
      break;
    }
  }
  if (s.empty()) return Interval::top();
  errno = 0;
  char* endp = nullptr;
  const long long v = std::strtoll(s.c_str(), &endp, 0);
  if (errno != 0 || endp == nullptr || *endp != '\0') return Interval::top();
  return Interval::exact(v);
}

class ExprEval {
 public:
  ExprEval(const std::vector<Token>& toks, std::size_t lo, std::size_t hi,
           const IntervalEnv& env, const FlowSummaries* sums)
      : toks_(toks), pos_(lo), end_(hi), env_(env), sums_(sums) {}

  EvalResult run() {
    EvalResult r;
    r.value = parse_expr();
    if (pos_ != end_) r.value = Interval::top();  // unparsed tail: no claim
    r.has_mul = has_mul_;
    return r;
  }

 private:
  bool at_punct(const char* p) const {
    return pos_ < end_ && toks_[pos_].kind == Tok::Punct &&
           toks_[pos_].text == p;
  }

  std::size_t match_paren(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < end_; ++i) {
      if (toks_[i].kind != Tok::Punct) continue;
      if (toks_[i].text == "(") ++depth;
      if (toks_[i].text == ")" && --depth == 0) return i;
    }
    return end_;
  }

  Interval parse_expr() {
    Interval v = parse_mul();
    while (pos_ < end_ && toks_[pos_].kind == Tok::Punct &&
           (toks_[pos_].text == "+" || toks_[pos_].text == "-")) {
      const bool add = toks_[pos_].text == "+";
      ++pos_;
      const Interval r = parse_mul();
      v = add ? iadd(v, r) : isub(v, r);
    }
    return v;
  }

  Interval parse_mul() {
    Interval v = parse_unary();
    while (pos_ < end_ && toks_[pos_].kind == Tok::Punct &&
           (toks_[pos_].text == "*" || toks_[pos_].text == "/" ||
            toks_[pos_].text == "%" || toks_[pos_].text == "<<" ||
            toks_[pos_].text == ">>")) {
      const std::string op = toks_[pos_].text;
      ++pos_;
      const Interval r = parse_unary();
      if (op == "*") {
        has_mul_ = true;
        v = imul(v, r);
      } else if (op == "<<") {
        has_mul_ = true;
        v = ishl(v, r);
      } else if (op == "/") {
        v = idiv(v, r);
      } else if (op == "%") {
        // |a % b| < b for positive b, whatever a is.
        v = (r.known && r.lo > 0) ? Interval::range(-(r.hi - 1), r.hi - 1)
                                  : Interval::top();
      } else {  // >>
        v = (v.known && r.known && v.lo >= 0 && r.lo >= 0 && r.hi <= 62)
                ? Interval::range(v.lo >> r.hi, v.hi >> r.lo)
                : Interval::top();
      }
    }
    return v;
  }

  Interval parse_unary() {
    if (at_punct("-")) {
      ++pos_;
      const Interval v = parse_unary();
      return isub(Interval::exact(0), v);
    }
    if (at_punct("+")) {
      ++pos_;
      return parse_unary();
    }
    if (at_punct("~") || at_punct("!")) {
      ++pos_;
      parse_unary();
      return Interval::top();
    }
    return parse_primary();
  }

  Interval parse_primary() {
    if (pos_ >= end_) return Interval::top();
    const Token& t = toks_[pos_];
    if (t.kind == Tok::Number) {
      ++pos_;
      return literal(t.text);
    }
    if (at_punct("(")) {
      const std::size_t close = match_paren(pos_);
      ++pos_;
      const Interval v = parse_expr();
      pos_ = close < end_ ? close + 1 : end_;
      return v;
    }
    if (t.kind != Tok::Ident) {
      ++pos_;
      return Interval::top();
    }
    if (t.text == "sizeof") {
      ++pos_;
      if (at_punct("(")) pos_ = match_paren(pos_) + 1;
      return Interval::range(1, 16);
    }
    if (t.text == "static_cast" || t.text == "narrow_cast") {
      // static_cast<T>(expr): evaluate the operand. A cast does not shrink
      // the value, so cost-overflow still sees the operand's range.
      ++pos_;
      if (at_punct("<")) {
        int depth = 0;
        while (pos_ < end_) {
          if (toks_[pos_].kind == Tok::Punct) {
            if (toks_[pos_].text == "<") ++depth;
            if (toks_[pos_].text == ">" && --depth == 0) {
              ++pos_;
              break;
            }
          }
          ++pos_;
        }
      }
      if (at_punct("(")) {
        const std::size_t close = match_paren(pos_);
        ++pos_;
        const Interval v = parse_expr();
        pos_ = close < end_ ? close + 1 : end_;
        return v;
      }
      return Interval::top();
    }
    // Identifier chain: [std ::]* name (. name | -> name | :: name)*
    std::string last = t.text;
    ++pos_;
    bool chain = false;
    while (pos_ + 1 < end_ && toks_[pos_].kind == Tok::Punct &&
           (toks_[pos_].text == "." || toks_[pos_].text == "->" ||
            toks_[pos_].text == "::") &&
           toks_[pos_ + 1].kind == Tok::Ident) {
      last = toks_[pos_ + 1].text;
      pos_ += 2;
      chain = true;
    }
    if (at_punct("(")) {
      const std::size_t close = match_paren(pos_);
      Interval v = Interval::top();
      if (is_procs_seed(last)) {
        v = Interval::range(1, kProcsCeiling);
      } else if (last == "min" || last == "max") {
        v = minmax_call(pos_, close, last == "max");
      } else if (sums_ != nullptr) {
        v = sums_->returns(last);
      }
      pos_ = close < end_ ? close + 1 : end_;
      return v;
    }
    if (at_punct("[")) {  // subscript: no claim
      int depth = 0;
      while (pos_ < end_) {
        if (toks_[pos_].kind == Tok::Punct) {
          if (toks_[pos_].text == "[") ++depth;
          if (toks_[pos_].text == "]" && --depth == 0) {
            ++pos_;
            break;
          }
        }
        ++pos_;
      }
      return Interval::top();
    }
    if (!chain) {
      const auto it = env_.find(last);
      if (it != env_.end()) return it->second;
    }
    if (is_procs_seed(last)) return Interval::range(1, kProcsCeiling);
    return Interval::top();
  }

  /// std::min/std::max over two args: the hull join is a sound bound for
  /// both.
  Interval minmax_call(std::size_t open, std::size_t close, bool) {
    int depth = 0;
    std::size_t comma = end_;
    for (std::size_t i = open; i < close; ++i) {
      if (toks_[i].kind != Tok::Punct) continue;
      if (toks_[i].text == "(" || toks_[i].text == "[") ++depth;
      if (toks_[i].text == ")" || toks_[i].text == "]") --depth;
      if (toks_[i].text == "," && depth == 1) {
        comma = i;
        break;
      }
    }
    if (comma >= close) return Interval::top();
    ExprEval a(toks_, open + 1, comma, env_, sums_);
    ExprEval b(toks_, comma + 1, close, env_, sums_);
    return join(a.run().value, b.run().value);
  }

  const std::vector<Token>& toks_;
  std::size_t pos_;
  std::size_t end_;
  const IntervalEnv& env_;
  const FlowSummaries* sums_;
  bool has_mul_ = false;
};

/// End of the RHS starting at `lo`: the next `;` or depth-0 `,`/`)` (for
/// multi-declarators and for-heads).
std::size_t rhs_end(const std::vector<Token>& toks, std::size_t lo,
                    std::size_t hi) {
  int depth = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (toks[i].kind != Tok::Punct) continue;
    const std::string& s = toks[i].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    if (s == ")" || s == "]" || s == "}") {
      if (depth == 0) return i;
      --depth;
    }
    if ((s == ";" || s == ",") && depth == 0) return i;
  }
  return hi;
}

}  // namespace

EvalResult eval_expr(const sema::TranslationUnit& tu, std::size_t lo,
                     std::size_t hi, const IntervalEnv& env,
                     const FlowSummaries* summaries) {
  return ExprEval(tu.tokens, lo, hi, env, summaries).run();
}

// --- interval transfer -------------------------------------------------------

IntervalEnv interval_transfer(const sema::TranslationUnit& tu, const Cfg& cfg,
                              std::size_t block, IntervalEnv env,
                              const FlowSummaries* summaries,
                              std::vector<AssignSite>* sites) {
  const auto& toks = tu.tokens;
  for (const auto& [rlo, rhi] : cfg.blocks[block].ranges) {
    for (std::size_t k = rlo; k + 1 < rhi; ++k) {
      if (toks[k].kind != Tok::Ident) continue;
      const Token& op = toks[k + 1];
      if (op.kind != Tok::Punct) continue;
      const std::string& name = toks[k].text;

      if (op.text == "=") {
        const std::size_t re = rhs_end(toks, k + 2, rhi);
        const EvalResult r = eval_expr(tu, k + 2, re, env, summaries);
        if (sites != nullptr) {
          sites->push_back({name, toks[k].line, r.value, r.has_mul});
        }
        if (r.value.known) {
          env[name] = r.value;
        } else {
          env.erase(name);
        }
        k = re;
        continue;
      }
      if (op.text == "+=" || op.text == "-=" || op.text == "*=" ||
          op.text == "<<=" || op.text == "/=") {
        const std::size_t re = rhs_end(toks, k + 2, rhi);
        const EvalResult r = eval_expr(tu, k + 2, re, env, summaries);
        const auto it = env.find(name);
        const Interval cur =
            it != env.end() ? it->second : Interval::top();
        Interval res;
        bool mul = r.has_mul;
        if (op.text == "+=") {
          res = iadd(cur, r.value);
        } else if (op.text == "-=") {
          res = isub(cur, r.value);
        } else if (op.text == "*=") {
          res = imul(cur, r.value);
          mul = true;
        } else if (op.text == "<<=") {
          res = ishl(cur, r.value);
          mul = true;
        } else {
          res = idiv(cur, r.value);
        }
        if (sites != nullptr) {
          sites->push_back({name, toks[k].line, res, mul});
        }
        if (res.known) {
          env[name] = res;
        } else {
          env.erase(name);
        }
        k = re;
        continue;
      }
      if (op.text == "++" || op.text == "--") {
        const auto it = env.find(name);
        if (it != env.end()) {
          const Interval one = Interval::exact(1);
          it->second = op.text == "++" ? iadd(it->second, one)
                                       : isub(it->second, one);
          if (!it->second.known) env.erase(it);
        }
        ++k;
        continue;
      }
    }
    // Pre-increment (`++i`) at range starts / after semicolons.
    for (std::size_t k = rlo; k + 1 < rhi; ++k) {
      if (toks[k].kind == Tok::Punct &&
          (toks[k].text == "++" || toks[k].text == "--") &&
          toks[k + 1].kind == Tok::Ident &&
          (k == rlo || toks[k - 1].kind == Tok::Punct)) {
        const auto it = env.find(toks[k + 1].text);
        if (it != env.end()) {
          const Interval one = Interval::exact(1);
          it->second = toks[k].text == "++" ? iadd(it->second, one)
                                            : isub(it->second, one);
          if (!it->second.known) env.erase(it);
        }
      }
    }
  }
  return env;
}

// --- interprocedural summaries ----------------------------------------------

FlowSummaries::FlowSummaries(const std::vector<sema::TranslationUnit>& tus) {
  // Two bounded rounds: round 2 sees round 1's summaries, so one level of
  // helper indirection resolves; deeper or recursive chains stay top.
  for (int round = 0; round < 2; ++round) {
    std::map<std::string, Interval> next;
    std::map<std::string, bool> seen;
    FlowSummaries prev;
    prev.by_name_ = by_name_;
    for (const auto& tu : tus) {
      const auto& toks = tu.tokens;
      for (const auto& fn : tu.functions) {
        // Straight-line single-assignment environment: a variable assigned
        // twice is dropped (its value is control-flow dependent — the CFG
        // analysis handles those; summaries stay conservative).
        IntervalEnv env;
        std::map<std::string, int> writes;
        Interval ret = Interval::top();
        bool any_return = false;
        const std::size_t hi = std::min(fn.body_end, toks.size());
        for (std::size_t k = fn.body_begin + 1; k + 1 < hi; ++k) {
          if (toks[k].kind != Tok::Ident) continue;
          if (toks[k].text == "return") {
            const std::size_t re = rhs_end(toks, k + 1, hi);
            const EvalResult r =
                eval_expr(tu, k + 1, re, env, round > 0 ? &prev : nullptr);
            ret = any_return ? join(ret, r.value) : r.value;
            any_return = true;
            k = re;
            continue;
          }
          if (toks[k + 1].kind == Tok::Punct && toks[k + 1].text == "=") {
            const std::size_t re = rhs_end(toks, k + 2, hi);
            const EvalResult r =
                eval_expr(tu, k + 2, re, env, round > 0 ? &prev : nullptr);
            if (writes[toks[k].text]++ == 0 && r.value.known) {
              env[toks[k].text] = r.value;
            } else {
              env.erase(toks[k].text);
            }
            k = re;
          } else if (toks[k + 1].kind == Tok::Punct &&
                     (toks[k + 1].text == "+=" || toks[k + 1].text == "-=" ||
                      toks[k + 1].text == "*=" || toks[k + 1].text == "<<=" ||
                      toks[k + 1].text == "++" || toks[k + 1].text == "--")) {
            ++writes[toks[k].text];
            env.erase(toks[k].text);
          }
        }
        if (!any_return) ret = Interval::top();
        const std::string& name = fn.simple_name;
        if (!seen[name]) {
          next[name] = ret;
          seen[name] = true;
        } else {
          next[name] = join(next[name], ret);
        }
      }
    }
    by_name_ = std::move(next);
  }
}

Interval FlowSummaries::returns(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? Interval::top() : it->second;
}

}  // namespace pcm::lint::flow
