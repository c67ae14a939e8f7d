#include "flow.hpp"

#include <set>
#include <string>

#include "cfg.hpp"
#include "dataflow.hpp"

namespace pcm::lint::flow {

namespace {

std::string fmt(const Interval& v) {
  return "[" + std::to_string(v.lo) + ", " + std::to_string(v.hi) + "]";
}

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

}  // namespace

std::vector<Diagnostic> cost_overflow(
    const std::vector<sema::TranslationUnit>& tus) {
  std::vector<Diagnostic> out;
  const FlowSummaries sums(tus);
  for (const sema::TranslationUnit& tu : tus) {
    for (const sema::FunctionDef& fn : tu.functions) {
      check_cost_overflow(tu, fn, sums, &out);
    }
  }
  return out;
}

}  // namespace pcm::lint::flow
