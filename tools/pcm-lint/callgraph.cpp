#include "callgraph.hpp"

#include <algorithm>
#include <deque>
#include <map>

namespace pcm::lint::callgraph {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// One linked definition, addressable across the whole parse set.
struct Node {
  std::size_t tu = 0;  ///< index into the TU vector
  std::size_t fn = 0;  ///< index into that TU's functions
};

/// The repo-wide graph: every definition, indexed by simple name.
class CallGraph {
 public:
  explicit CallGraph(const std::vector<sema::TranslationUnit>& tus);

  /// Node ids (indices into all()) for every definition named `simple`.
  [[nodiscard]] std::vector<std::size_t> resolve(
      const std::string& simple) const;

  [[nodiscard]] const std::vector<Node>& all() const { return nodes_; }

  [[nodiscard]] const sema::FunctionDef& fn(std::size_t id) const;
  [[nodiscard]] const std::string& file_of(std::size_t id) const;

  /// True when `rel_path` may touch the host clock (src/exec/, tools/):
  /// taint neither seeds in nor propagates through such files.
  [[nodiscard]] static bool exempt(const std::string& rel_path);

 private:
  const std::vector<sema::TranslationUnit>* tus_;
  std::vector<Node> nodes_;
  // simple name -> node ids, kept sorted for deterministic iteration.
  std::vector<std::pair<std::string, std::vector<std::size_t>>> by_name_;
};

bool CallGraph::exempt(const std::string& rel_path) {
  return starts_with(rel_path, "src/exec/") || starts_with(rel_path, "tools/");
}

CallGraph::CallGraph(const std::vector<sema::TranslationUnit>& tus)
    : tus_(&tus) {
  std::map<std::string, std::vector<std::size_t>> index;
  for (std::size_t t = 0; t < tus.size(); ++t) {
    if (exempt(tus[t].rel_path)) continue;  // never part of the taint graph
    for (std::size_t f = 0; f < tus[t].functions.size(); ++f) {
      index[tus[t].functions[f].simple_name].push_back(nodes_.size());
      nodes_.push_back(Node{t, f});
    }
  }
  by_name_.assign(index.begin(), index.end());
}

std::vector<std::size_t> CallGraph::resolve(const std::string& simple) const {
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), simple,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it == by_name_.end() || it->first != simple) return {};
  return it->second;
}

const sema::FunctionDef& CallGraph::fn(std::size_t id) const {
  const Node& n = nodes_[id];
  return (*tus_)[n.tu].functions[n.fn];
}

const std::string& CallGraph::file_of(std::size_t id) const {
  return (*tus_)[nodes_[id].tu].rel_path;
}

}  // namespace

std::vector<Diagnostic> determinism_taint(
    const std::vector<sema::TranslationUnit>& tus) {
  const CallGraph graph(tus);
  const std::size_t n = graph.all().size();

  // chain_[id] describes how id reaches a primitive ("f -> g -> time()");
  // empty = not tainted.
  std::vector<std::string> chain(n);
  std::deque<std::size_t> work;
  for (std::size_t id = 0; id < n; ++id) {
    const auto& fn = graph.fn(id);
    if (fn.direct_wallclock) {
      chain[id] = fn.qualified_name + " -> " + fn.wallclock_what;
      work.push_back(id);
    }
  }

  // Reverse propagation to callers, fixpoint over the (possibly cyclic)
  // graph: a caller adopts the first chain that reaches it and is never
  // revisited, so mutual recursion terminates.
  std::map<std::string, std::vector<std::size_t>> callers_of;  // callee name
  for (std::size_t id = 0; id < n; ++id) {
    for (const auto& cs : graph.fn(id).calls) callers_of[cs.callee].push_back(id);
  }
  while (!work.empty()) {
    const std::size_t id = work.front();
    work.pop_front();
    const auto it = callers_of.find(graph.fn(id).simple_name);
    if (it == callers_of.end()) continue;
    for (const std::size_t caller : it->second) {
      if (!chain[caller].empty()) continue;
      chain[caller] = graph.fn(caller).qualified_name + " -> " + chain[id];
      work.push_back(caller);
    }
  }

  // Report every call site to a tainted function. The tainted callee's own
  // primitive call is the `wallclock` rule's business; the *edges* into the
  // taint are what only this pass can see.
  std::vector<Diagnostic> out;
  for (std::size_t id = 0; id < n; ++id) {
    const auto& fn = graph.fn(id);
    const std::string& file = graph.file_of(id);
    for (const auto& cs : fn.calls) {
      const auto targets = graph.resolve(cs.callee);
      if (targets.empty()) continue;
      if (cs.callee == fn.simple_name) continue;  // recursion, not an edge in
      // Qualified std:: calls are the library's, not ours.
      if (cs.qualifier == "std") continue;
      for (const std::size_t target : targets) {
        if (chain[target].empty()) continue;
        out.push_back(
            {file, cs.line, "determinism-taint",
             "call to '" + graph.fn(target).qualified_name +
                 "' reaches host time/randomness: " + chain[target] +
                 " — the deterministic core must draw all time from cost "
                 "models and all randomness from the seeded sim::Rng "
                 "(allowed only in src/exec/)"});
        break;  // one diagnostic per call site even if overloads all taint
      }
    }
  }
  return out;
}

}  // namespace pcm::lint::callgraph
