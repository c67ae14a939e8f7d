#include "sema.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace pcm::lint::sema {

namespace {

using lexer::Tok;
using lexer::Token;

bool ends_with(const std::string& s, char c) {
  return !s.empty() && s.back() == c;
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",     "while",    "switch",   "catch",    "return",
      "sizeof", "alignof", "decltype", "constexpr", "new",     "delete",
      "co_await", "co_return", "co_yield", "throw", "requires", "alignas",
  };
  return kw;
}

bool is_type_scope_keyword(const std::string& s) {
  return s == "class" || s == "struct" || s == "union" || s == "enum";
}

/// Index of the `(` matching tokens[close] == `)`, scanning backwards.
/// Returns SIZE_MAX when unbalanced.
std::size_t match_paren_back(const std::vector<Token>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].kind != Tok::Punct) continue;
    if (toks[i].text == ")") {
      ++depth;
    } else if (toks[i].text == "(") {
      if (--depth == 0) return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

struct Scope {
  enum class Kind { Namespace, Class, Function, Block };
  Kind kind;
  std::string name;        // class/namespace name, or the function's
  std::size_t fn_index;    // into TranslationUnit::functions, Function only
};

/// What does the `{` at token index `i` open? Fills `name`/`class_name` for
/// Function results (class_name from explicit qualification only; the caller
/// merges the scope stack).
struct BraceInfo {
  Scope::Kind kind = Scope::Kind::Block;
  std::string name;        // simple name
  std::string class_name;  // explicit A:: qualifier, Function only
};

BraceInfo classify_brace(const std::vector<Token>& toks, std::size_t i) {
  BraceInfo info;
  if (i == 0) return info;
  std::size_t j = i - 1;

  // Skip trailing cv/virt specifiers between `)` and `{`.
  auto is_specifier = [](const Token& t) {
    return t.kind == Tok::Ident &&
           (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
            t.text == "final" || t.text == "mutable" || t.text == "volatile" ||
            t.text == "try");
  };
  while (j > 0 && is_specifier(toks[j])) --j;

  // Trailing return type: walk back over type tokens to a `->` then require
  // a `)` in front of it. `auto f() -> std::span<int> {`.
  if (!(toks[j].kind == Tok::Punct && toks[j].text == ")")) {
    std::size_t k = j;
    bool saw_arrow = false;
    while (k > 0) {
      const Token& t = toks[k];
      if (t.kind == Tok::Ident || t.kind == Tok::Number ||
          (t.kind == Tok::Punct &&
           (t.text == "::" || t.text == "<" || t.text == ">" || t.text == "*" ||
            t.text == "&" || t.text == "," || t.text == "[" || t.text == "]"))) {
        --k;
        continue;
      }
      if (t.kind == Tok::Punct && t.text == "->") {
        saw_arrow = true;
        --k;
      }
      break;
    }
    if (saw_arrow && k > 0 && toks[k].kind == Tok::Punct && toks[k].text == ")") {
      j = k;
    }
  }

  if (toks[j].kind == Tok::Punct && toks[j].text == ")") {
    // Function definition, control statement, lambda, or ctor init list.
    while (true) {
      const std::size_t open = match_paren_back(toks, j);
      if (open == static_cast<std::size_t>(-1) || open == 0) return info;
      std::size_t m = open - 1;
      const Token& t = toks[m];
      if (t.kind == Tok::Punct && t.text == "]") return info;  // lambda
      if (t.kind != Tok::Ident) return info;
      if (control_keywords().count(t.text) > 0) return info;  // if/for/...
      // Collect the qualified id backwards: ident (:: ident)*, with ~ for
      // destructors.
      std::vector<std::string> parts = {t.text};
      std::size_t start = m;
      while (start >= 2 && toks[start - 1].kind == Tok::Punct &&
             toks[start - 1].text == "::" && toks[start - 2].kind == Tok::Ident) {
        parts.insert(parts.begin(), toks[start - 2].text);
        start -= 2;
      }
      if (start >= 1 && toks[start - 1].kind == Tok::Punct &&
          toks[start - 1].text == "~") {
        parts.back().insert(0, "~");
        --start;
      }
      if (start == 0) {
        // Id at the very start of the TU: a definition.
      } else {
        const Token& pre = toks[start - 1];
        if (pre.kind == Tok::Punct && (pre.text == ":" || pre.text == ",")) {
          // Constructor member-init entry (`: a_(1), b_(2) {`): the token
          // before `:`/`,` must be the `)` of the previous entry or of the
          // parameter list — walk back to it and reclassify.
          if (start >= 2 && toks[start - 2].kind == Tok::Punct &&
              toks[start - 2].text == ")") {
            j = start - 2;
            continue;
          }
          return info;  // bit-field / label / ternary — not a definition
        }
        if (pre.kind == Tok::Punct &&
            (pre.text == "." || pre.text == "->" || pre.text == "=" ||
             pre.text == "(" || pre.text == "," || pre.text == "!" ||
             pre.text == "?" || pre.text == "&&" || pre.text == "||")) {
          return info;  // a call expression, not a definition
        }
      }
      info.kind = Scope::Kind::Function;
      info.name = parts.back();
      if (parts.size() > 1) info.class_name = parts[parts.size() - 2];
      return info;
    }
  }

  // Not a parameter list: look back over the current declaration (to the
  // previous `;` / `{` / `}`) for class/struct/namespace keywords.
  std::size_t lo = j;
  for (std::size_t back = 0; lo > 0 && back < 64; ++back, --lo) {
    const Token& t = toks[lo];
    if (t.kind == Tok::Punct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      ++lo;
      break;
    }
  }
  std::size_t kw_at = static_cast<std::size_t>(-1);
  bool is_namespace = false;
  for (std::size_t k = lo; k <= j; ++k) {
    if (toks[k].kind != Tok::Ident) continue;
    if (toks[k].text == "namespace") {
      kw_at = k;
      is_namespace = true;
      // keep scanning: `namespace` wins only if no later type keyword? No —
      // `namespace X { class Y {` are separate braces; within one window the
      // last keyword owns the brace.
    } else if (is_type_scope_keyword(toks[k].text)) {
      // Ignore `class`/`struct` inside template parameter lists: approximate
      // by ignoring a type keyword immediately preceded by `<` or `,`.
      if (k > lo && toks[k - 1].kind == Tok::Punct &&
          (toks[k - 1].text == "<" || toks[k - 1].text == ",")) {
        continue;
      }
      kw_at = k;
      is_namespace = false;
    }
  }
  if (kw_at == static_cast<std::size_t>(-1)) return info;  // plain block
  info.kind = is_namespace ? Scope::Kind::Namespace : Scope::Kind::Class;
  // Name: first identifier after the keyword, skipping `class`/`struct`
  // (enum class) and attributes.
  for (std::size_t k = kw_at + 1; k <= j; ++k) {
    if (toks[k].kind == Tok::Ident && !is_type_scope_keyword(toks[k].text) &&
        toks[k].text != "final" && toks[k].text != "alignas") {
      info.name = toks[k].text;
      break;
    }
    if (toks[k].kind == Tok::Punct && toks[k].text == ":") break;  // anonymous
  }
  return info;
}

const std::set<std::string>& wallclock_primitives() {
  static const std::set<std::string> prims = {
      "rand",  "srand",        "rand_r",       "drand48", "lrand48",
      "time",  "clock",        "gettimeofday", "clock_gettime",
  };
  return prims;
}

}  // namespace

TranslationUnit parse(std::string rel_path, std::vector<lexer::Token> tokens) {
  TranslationUnit tu;
  tu.rel_path = std::move(rel_path);
  tu.tokens = std::move(tokens);
  const auto& toks = tu.tokens;

  std::vector<Scope> scopes;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::Punct) continue;
    if (t.text == "{") {
      BraceInfo info = classify_brace(toks, i);
      Scope s{info.kind, info.name, static_cast<std::size_t>(-1)};
      // A function nested inside another function's scope stack (a local
      // helper is impossible in C++; this is a lambda or local class
      // misread) is demoted to a block so its events stay attributed to
      // the enclosing function.
      const bool inside_function =
          std::any_of(scopes.begin(), scopes.end(), [](const Scope& sc) {
            return sc.kind == Scope::Kind::Function;
          });
      if (info.kind == Scope::Kind::Function && !inside_function) {
        FunctionDef fn;
        fn.simple_name = info.name;
        fn.class_name = info.class_name;
        if (fn.class_name.empty()) {
          // Inherit the innermost class scope for inline member defs.
          for (std::size_t k = scopes.size(); k-- > 0;) {
            if (scopes[k].kind == Scope::Kind::Class) {
              fn.class_name = scopes[k].name;
              break;
            }
          }
        }
        fn.qualified_name = fn.class_name.empty()
                                ? fn.simple_name
                                : fn.class_name + "::" + fn.simple_name;
        fn.line = t.line;
        fn.body_begin = i;
        s.fn_index = tu.functions.size();
        tu.functions.push_back(std::move(fn));
      } else if (info.kind == Scope::Kind::Function) {
        s.kind = Scope::Kind::Block;
      }
      scopes.push_back(std::move(s));
    } else if (t.text == "}") {
      if (scopes.empty()) continue;  // unbalanced; give up quietly
      const Scope s = scopes.back();
      scopes.pop_back();
      if (s.kind == Scope::Kind::Function &&
          s.fn_index != static_cast<std::size_t>(-1)) {
        tu.functions[s.fn_index].body_end = i;
      }
    }
  }
  // Unterminated functions (unbalanced input): close at EOF.
  for (auto& fn : tu.functions) {
    if (fn.body_end == 0) fn.body_end = toks.size() - 1;
  }

  // --- call extraction per function body -----------------------------------
  for (auto& fn : tu.functions) {
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::Ident) continue;
      // std::random_device is a seed wherever it appears (constructed, not
      // called).
      if (t.text == "random_device" && !fn.direct_wallclock) {
        fn.direct_wallclock = true;
        fn.wallclock_line = t.line;
        fn.wallclock_what = "std::random_device";
        continue;
      }
      const Token& nx = toks[i + 1];
      if (!(nx.kind == Tok::Punct && nx.text == "(")) continue;
      if (control_keywords().count(t.text) > 0) continue;
      CallSite cs;
      cs.callee = t.text;
      cs.line = t.line;
      if (i >= 2 && toks[i - 1].kind == Tok::Punct) {
        const std::string& p = toks[i - 1].text;
        if (p == "." || p == "->") {
          cs.object = toks[i - 2].kind == Tok::Ident ? toks[i - 2].text : "";
          if (cs.object.empty()) cs.object = "<expr>";
        } else if (p == "::") {
          cs.qualifier = toks[i - 2].kind == Tok::Ident ? toks[i - 2].text : "";
        }
      }
      // Direct wallclock primitive? Members (obj.time()) are someone's
      // accessor; only free or std::-qualified calls count, matching the
      // line rule. `_clock::now()` is the chrono face of the same hazard.
      const bool member = !cs.object.empty();
      if (!member && wallclock_primitives().count(cs.callee) > 0 &&
          (cs.qualifier.empty() || cs.qualifier == "std")) {
        if (!fn.direct_wallclock) {
          fn.direct_wallclock = true;
          fn.wallclock_line = cs.line;
          fn.wallclock_what = cs.callee + "()";
        }
      } else if (cs.callee == "now" && !cs.qualifier.empty() &&
                 cs.qualifier.size() > 6 &&
                 cs.qualifier.compare(cs.qualifier.size() - 6, 6, "_clock") ==
                     0) {
        if (!fn.direct_wallclock) {
          fn.direct_wallclock = true;
          fn.wallclock_line = cs.line;
          fn.wallclock_what = cs.qualifier + "::now()";
        }
      }
      fn.calls.push_back(std::move(cs));
    }
  }
  return tu;
}

// --- span-invalidation -------------------------------------------------------

void check_span_invalidation(const TranslationUnit& tu,
                             std::vector<Diagnostic>* out) {
  static const std::set<std::string> span_methods = {
      "messages", "senders", "receivers", "sends_of", "alloc", "alloc_zeroed"};
  static const std::set<std::string> mutators = {"add", "clear", "reset",
                                                 "canonicalise", "drain"};
  const auto& toks = tu.tokens;

  struct SpanVar {
    std::string obj;
    std::string method;
    int decl_line = 0;
    int invalid_line = 0;       // 0 = still valid
    std::string invalidator;    // "obj.add()"
    bool reported = false;
  };

  for (const auto& fn : tu.functions) {
    std::map<std::string, SpanVar> vars;
    for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
      if (toks[i].kind != Tok::Ident) continue;
      const std::string& name = toks[i].text;

      // Binding: NAME = OBJ .|-> METHOD ( | <    (span-returning method), or
      // a reassignment of a tracked name to anything else (stop tracking).
      if (toks[i + 1].kind == Tok::Punct && toks[i + 1].text == "=") {
        const std::size_t r = i + 2;
        if (r + 3 < fn.body_end && toks[r].kind == Tok::Ident &&
            toks[r + 1].kind == Tok::Punct &&
            (toks[r + 1].text == "." || toks[r + 1].text == "->") &&
            toks[r + 2].kind == Tok::Ident &&
            span_methods.count(toks[r + 2].text) > 0 &&
            toks[r + 3].kind == Tok::Punct &&
            (toks[r + 3].text == "(" || toks[r + 3].text == "<")) {
          vars[name] =
              SpanVar{toks[r].text, toks[r + 2].text, toks[i].line, 0, "", false};
          i = r + 2;  // skip past the method name
        } else {
          vars.erase(name);  // re-pointed at something else
        }
        continue;
      }

      // Mutation: OBJ .|-> MUTATOR (  — every span view of OBJ dies here.
      if (i + 3 < fn.body_end && toks[i + 1].kind == Tok::Punct &&
          (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
          toks[i + 2].kind == Tok::Ident && mutators.count(toks[i + 2].text) > 0 &&
          toks[i + 3].kind == Tok::Punct && toks[i + 3].text == "(") {
        for (auto& [vname, v] : vars) {
          if (v.obj == name && v.invalid_line == 0) {
            v.invalid_line = toks[i].line;
            v.invalidator = name + "." + toks[i + 2].text + "()";
          }
        }
        i += 2;
        continue;
      }

      // Use of an invalidated span.
      auto it = vars.find(name);
      if (it != vars.end() && it->second.invalid_line > 0 &&
          !it->second.reported) {
        SpanVar& v = it->second;
        v.reported = true;
        out->push_back(
            {tu.rel_path, toks[i].line, "span-invalidation",
             "'" + name + "' (a " + v.obj + "." + v.method +
                 "() span view bound at line " + std::to_string(v.decl_line) +
                 ") is used after " + v.invalidator + " at line " +
                 std::to_string(v.invalid_line) +
                 " invalidated it — span views are only valid until the next "
                 "mutating/canonicalising call; re-acquire the view after the "
                 "mutation"});
      }
    }
  }
}

// --- arena-escape ------------------------------------------------------------

void check_arena_escape(const TranslationUnit& tu,
                        std::vector<Diagnostic>* out) {
  const auto& toks = tu.tokens;
  for (const auto& fn : tu.functions) {
    for (std::size_t i = fn.body_begin + 1; i + 4 < fn.body_end; ++i) {
      // Pattern: = OBJ .|-> alloc|alloc_zeroed (|<
      if (!(toks[i].kind == Tok::Punct && toks[i].text == "=")) continue;
      if (!(toks[i + 1].kind == Tok::Ident && toks[i + 2].kind == Tok::Punct &&
            (toks[i + 2].text == "." || toks[i + 2].text == "->") &&
            toks[i + 3].kind == Tok::Ident &&
            (toks[i + 3].text == "alloc" || toks[i + 3].text == "alloc_zeroed") &&
            toks[i + 4].kind == Tok::Punct &&
            (toks[i + 4].text == "(" || toks[i + 4].text == "<"))) {
        continue;
      }
      if (i < 1 || toks[i - 1].kind != Tok::Ident) continue;
      const std::string& target = toks[i - 1].text;
      const std::string call =
          toks[i + 1].text + "." + toks[i + 3].text + "()";

      // A `*` immediately before the target is a dereference only when the
      // token in front of it is a statement boundary; `static int* x = ...`
      // must fall through to the static-declaration scan instead.
      const bool deref =
          i >= 2 && toks[i - 2].kind == Tok::Punct && toks[i - 2].text == "*" &&
          (i < 3 || (toks[i - 3].kind == Tok::Punct &&
                     (toks[i - 3].text == ";" || toks[i - 3].text == "{" ||
                      toks[i - 3].text == "}" || toks[i - 3].text == "(" ||
                      toks[i - 3].text == ",")));
      std::string how;
      if (i >= 3 && toks[i - 2].kind == Tok::Punct &&
          toks[i - 2].text == "->") {
        how = toks[i - 3].text == "this" ? "a member ('this->" + target + "')"
                                         : "'" + toks[i - 3].text + "->" +
                                               target + "' (escapes through a "
                                               "pointer)";
      } else if (deref) {
        how = "'*" + target + "' (an out-parameter)";
      } else if (ends_with(target, '_')) {
        how = "a member ('" + target + "')";
      } else {
        // Static local? Scan the declaration back to the statement start.
        bool is_static = false;
        for (std::size_t k = i - 1; k-- > 0;) {
          const Token& t = toks[k];
          if (t.kind == Tok::Punct &&
              (t.text == ";" || t.text == "{" || t.text == "}")) {
            break;
          }
          if (t.kind == Tok::Ident && t.text == "static") {
            is_static = true;
            break;
          }
          if (i - 1 - k > 16) break;
        }
        if (!is_static) continue;
        how = "a static ('" + target + "')";
      }
      out->push_back(
          {tu.rel_path, toks[i].line, "arena-escape",
           call + " scratch stored into " + how +
               " in '" + fn.qualified_name +
               "' — arena spans are valid only until the owner's next "
               "reset(), so storage that survives the enclosing "
               "route()/reset() scope dangles; copy the data out or keep the "
               "span local"});
    }
  }
}

}  // namespace pcm::lint::sema
