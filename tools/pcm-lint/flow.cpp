#include "flow.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "callgraph.hpp"
#include "cfg.hpp"
#include "dataflow.hpp"

namespace pcm::lint::flow {

namespace {

using lexer::Tok;
using lexer::Token;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string fmt(const Interval& v) {
  return "[" + std::to_string(v.lo) + ", " + std::to_string(v.hi) + "]";
}

// --- cost-overflow ----------------------------------------------------------

void check_cost_overflow(const sema::TranslationUnit& tu,
                         const sema::FunctionDef& fn,
                         const FlowSummaries& sums,
                         std::vector<Diagnostic>* out) {
  const Cfg cfg = build_cfg(tu, fn);
  const auto decls = scan_var_types(tu, fn);
  if (decls.empty()) return;

  const auto sol = solve<IntervalEnv>(
      cfg, IntervalEnv{},
      [&](std::size_t b, const IntervalEnv& in) {
        return interval_transfer(tu, cfg, b, in, &sums, nullptr);
      },
      join_env, widen_env);

  // Replay each reachable block from its solved entry state to enumerate
  // the assignments the transfer interpreted, now with final envs.
  std::vector<AssignSite> sites;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (!sol.reachable[b]) continue;
    (void)interval_transfer(tu, cfg, b, sol.in[b], &sums, &sites);
  }

  std::set<int> seen;  // one finding per line
  for (const AssignSite& site : sites) {
    if (!site.rhs.known || !site.rhs_has_mul) continue;
    const auto it = decls.find(site.name);
    if (it == decls.end() || it->second == nullptr ||
        !it->second->is_narrow) {
      continue;
    }
    const IntType& ty = *it->second;
    if (site.rhs.lo >= ty.min && site.rhs.hi <= ty.max) continue;
    if (!seen.insert(site.line).second) continue;
    out->push_back(
        {tu.rel_path, site.line, "cost-overflow",
         "'" + site.name + "' (" + ty.spelling +
             ") takes a product with range " + fmt(site.rhs) +
             " at p<=2^20, exceeding " + ty.spelling + "'s range [" +
             std::to_string(ty.min) + ", " + std::to_string(ty.max) +
             "] — an explicit cast does not help, the value itself is too "
             "big; widen the destination to a 64-bit type"});
  }
}

// --- hot-path-alloc ----------------------------------------------------------

bool is_hot_root_name(const std::string& simple) {
  return simple == "route" || simple == "exchange" || simple == "barrier" ||
         starts_with(simple, "charge");
}

// `resize` is deliberately absent: sizing a buffer up front is the *fix*
// for incremental growth, not an instance of it.
const std::set<std::string>& growth_callees() {
  static const std::set<std::string> s = {"push_back", "emplace_back",
                                          "emplace", "insert", "append"};
  return s;
}

/// Source lines covered by a cold or throw-terminated block of `fn`'s CFG.
/// Calls on these lines do not propagate hotness: an audit-gated branch or
/// an error-reporting funnel is not the clean superstep path.
std::set<int> cold_lines(const sema::TranslationUnit& tu,
                         const sema::FunctionDef& fn) {
  std::set<int> out;
  const Cfg cfg = build_cfg(tu, fn);
  for (const BasicBlock& blk : cfg.blocks) {
    if (!blk.cold && !blk.ends_in_throw) continue;
    for (const auto& [rlo, rhi] : blk.ranges) {
      for (std::size_t k = rlo; k < rhi && k < tu.tokens.size(); ++k) {
        out.insert(tu.tokens[k].line);
      }
    }
  }
  return out;
}

/// Receivers with a `recv.reserve(` call anywhere in this TU.
std::set<std::string> reserved_receivers(const sema::TranslationUnit& tu) {
  std::set<std::string> out;
  const auto& toks = tu.tokens;
  for (std::size_t k = 0; k + 3 < toks.size(); ++k) {
    if (toks[k].kind == Tok::Ident && toks[k + 1].kind == Tok::Punct &&
        (toks[k + 1].text == "." || toks[k + 1].text == "->") &&
        toks[k + 2].kind == Tok::Ident && toks[k + 2].text == "reserve" &&
        toks[k + 3].kind == Tok::Punct && toks[k + 3].text == "(") {
      out.insert(toks[k].text);
    }
  }
  return out;
}

void check_hot_path_alloc(const sema::TranslationUnit& tu,
                          const sema::FunctionDef& fn,
                          const std::string& root,
                          const std::set<std::string>& reserved,
                          std::vector<Diagnostic>* out) {
  const Cfg cfg = build_cfg(tu, fn);
  const auto& toks = tu.tokens;
  const std::string where =
      fn.qualified_name == root
          ? "hot function '" + fn.qualified_name + "()'"
          : "'" + fn.qualified_name + "()', reachable from hot root '" +
                root + "()'";
  std::set<std::pair<int, std::string>> seen;  // (line, what)
  auto diag = [&](int line, const std::string& what, const std::string& hint) {
    if (!seen.insert({line, what}).second) return;
    out->push_back({tu.rel_path, line, "hot-path-alloc",
                    what + " in " + where +
                        " allocates per superstep on the clean path; " +
                        hint});
  };

  for (const BasicBlock& blk : cfg.blocks) {
    if (blk.cold || blk.ends_in_throw) continue;
    for (const auto& [rlo, rhi] : blk.ranges) {
      for (std::size_t k = rlo; k < rhi; ++k) {
        if (toks[k].kind != Tok::Ident) continue;
        const std::string& t = toks[k].text;
        const Token* nx = k + 1 < rhi ? &toks[k + 1] : nullptr;

        if (t == "new") {
          diag(toks[k].line, "'new'",
               "carve scratch out of the superstep arena instead");
          continue;
        }
        if ((t == "make_unique" || t == "make_shared") && nx != nullptr &&
            nx->kind == Tok::Punct && (nx->text == "<" || nx->text == "(")) {
          diag(toks[k].line, "'" + t + "'",
               "carve scratch out of the superstep arena instead");
          continue;
        }
        if (t == "to_string" && nx != nullptr && nx->kind == Tok::Punct &&
            nx->text == "(") {
          diag(toks[k].line, "'to_string'",
               "format diagnostics off the hot path (or gate behind "
               "audit::enabled())");
          continue;
        }
        if (t == "std" && k + 3 < rhi && toks[k + 1].kind == Tok::Punct &&
            toks[k + 1].text == "::" && toks[k + 2].kind == Tok::Ident &&
            toks[k + 2].text == "string" &&
            (toks[k + 3].kind == Tok::Ident ||
             (toks[k + 3].kind == Tok::Punct && toks[k + 3].text == "("))) {
          diag(toks[k].line, "std::string construction",
               "format diagnostics off the hot path (or gate behind "
               "audit::enabled())");
          k += 2;
          continue;
        }
        // Un-reserved container growth: recv.push_back(...) etc.
        if (k + 3 < rhi && toks[k + 1].kind == Tok::Punct &&
            (toks[k + 1].text == "." || toks[k + 1].text == "->") &&
            toks[k + 2].kind == Tok::Ident &&
            growth_callees().count(toks[k + 2].text) > 0 &&
            toks[k + 3].kind == Tok::Punct && toks[k + 3].text == "(" &&
            reserved.count(t) == 0) {
          diag(toks[k].line,
               "'" + t + "." + toks[k + 2].text + "()' without a prior '" +
                   t + ".reserve()'",
               "pre-size the container outside the loop");
          k += 2;
          continue;
        }
      }
    }
  }
}

// --- throw-leak --------------------------------------------------------------

/// The function manually calls both sides of at least one tracked
/// acquire/release pair. Pure-RAII code never calls the release side and
/// must stay silent.
bool has_manual_pair(const sema::TranslationUnit& tu,
                     const sema::FunctionDef& fn) {
  std::set<std::string> names;
  const auto& toks = tu.tokens;
  const std::size_t hi = std::min(fn.body_end, toks.size());
  for (std::size_t k = fn.body_begin; k < hi; ++k) {
    if (toks[k].kind == Tok::Ident) names.insert(toks[k].text);
  }
  for (const char* acq : {"fopen", "open", "watch", "lock", "acquire"}) {
    if (names.count(acq) > 0 && names.count(release_of(acq)) > 0) return true;
  }
  return false;
}

void check_throw_leak(const sema::TranslationUnit& tu,
                      const sema::FunctionDef& fn,
                      std::vector<Diagnostic>* out) {
  if (!has_manual_pair(tu, fn)) return;
  const Cfg cfg = build_cfg(tu, fn);
  const auto sol = solve<ResEnv>(
      cfg, ResEnv{},
      [&](std::size_t b, const ResEnv& in) {
        return res_transfer(tu, cfg, b, in);
      },
      join_res, join_res);

  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const BasicBlock& blk = cfg.blocks[b];
    if (!sol.reachable[b] || !blk.ends_in_throw || !blk.throw_escapes) {
      continue;
    }
    // State *at* the throw: the block's own acquires/releases run first.
    const ResEnv at_throw = res_transfer(tu, cfg, b, sol.in[b]);
    for (const auto& [key, fact] : at_throw) {
      if (fact.state == Res::Released) continue;
      const std::string maybe =
          fact.state == Res::Maybe ? " on at least one path" : "";
      out->push_back(
          {tu.rel_path, blk.throw_line, "throw-leak",
           "'" + key + "' acquired via " + fact.how + " (line " +
               std::to_string(fact.acq_line) + ") is still held" + maybe +
               " when this throw leaves '" + fn.simple_name +
               "()'; release it before throwing or hold it in a RAII "
               "guard"});
    }
  }
}

}  // namespace

std::vector<Diagnostic> run_flow_rules(
    const std::vector<sema::TranslationUnit>& tus) {
  std::vector<Diagnostic> out;
  const FlowSummaries sums(tus);
  const callgraph::CallGraph cg(tus);

  // Hot set: route/exchange/barrier/charge* roots in src/net|src/machines,
  // closed under the callgraph's simple-name link (BFS, root recorded for
  // the diagnostic).
  const std::size_t n = cg.all().size();
  std::vector<char> hot(n, 0);
  std::vector<std::string> hot_root(n);
  std::vector<std::size_t> work;
  for (std::size_t id = 0; id < n; ++id) {
    const std::string& file = cg.file_of(id);
    if ((starts_with(file, "src/net/") ||
         starts_with(file, "src/machines/")) &&
        is_hot_root_name(cg.fn(id).simple_name)) {
      hot[id] = 1;
      hot_root[id] = cg.fn(id).qualified_name;
      work.push_back(id);
    }
  }
  while (!work.empty()) {
    const std::size_t id = work.back();
    work.pop_back();
    const callgraph::Node& node = cg.all()[id];
    const std::set<int> cold = cold_lines(tus[node.tu], cg.fn(id));
    for (const sema::CallSite& call : cg.fn(id).calls) {
      // std::-qualified calls name the standard library, never a repo
      // definition that happens to share the simple name (to_string...).
      if (call.qualifier == "std") continue;
      if (cold.count(call.line) > 0) continue;
      for (const std::size_t t : cg.resolve(call.callee)) {
        if (hot[t] != 0) continue;
        hot[t] = 1;
        hot_root[t] = hot_root[id];
        work.push_back(t);
      }
    }
  }
  // Map (tu, fn) -> node id for the per-function walk below.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> node_of;
  for (std::size_t id = 0; id < n; ++id) {
    node_of[{cg.all()[id].tu, cg.all()[id].fn}] = id;
  }

  for (std::size_t t = 0; t < tus.size(); ++t) {
    const sema::TranslationUnit& tu = tus[t];
    const bool leak_scope = starts_with(tu.rel_path, "src/exec/") ||
                            starts_with(tu.rel_path, "src/fault/");
    const std::set<std::string> reserved = reserved_receivers(tu);
    for (std::size_t f = 0; f < tu.functions.size(); ++f) {
      const sema::FunctionDef& fn = tu.functions[f];
      check_cost_overflow(tu, fn, sums, &out);
      const auto it = node_of.find({t, f});
      if (it != node_of.end() && hot[it->second] != 0) {
        check_hot_path_alloc(tu, fn, hot_root[it->second], reserved, &out);
      }
      if (leak_scope) check_throw_leak(tu, fn, &out);
    }
  }
  return out;
}

}  // namespace pcm::lint::flow
