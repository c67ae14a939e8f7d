#include "flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cfg.hpp"
#include "dataflow.hpp"
#include "lexer.hpp"
#include "lint.hpp"
#include "sema.hpp"

namespace pcm::lint {
namespace {

using flow::Interval;

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& diags,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

bool has(const std::vector<Diagnostic>& diags, const std::string& file,
         int line, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.file == file && d.line == line && d.rule == rule;
  });
}

sema::TranslationUnit tu_of(const std::string& path, const std::string& src) {
  return sema::parse(path, lexer::lex(strip_comments_and_strings(src)));
}

const sema::FunctionDef& fn_named(const sema::TranslationUnit& tu,
                                  const std::string& simple) {
  for (const auto& f : tu.functions) {
    if (f.simple_name == simple) return f;
  }
  static const sema::FunctionDef none{};
  EXPECT_TRUE(false) << "no function named " << simple;
  return none;
}

// --- interval lattice -------------------------------------------------------

TEST(IntervalLattice, JoinIsHullAndTopDominates) {
  const auto a = Interval::range(1, 10);
  const auto b = Interval::range(5, 100);
  const auto j = flow::join(a, b);
  EXPECT_TRUE(j.known);
  EXPECT_EQ(j.lo, 1);
  EXPECT_EQ(j.hi, 100);
  EXPECT_FALSE(flow::join(a, Interval::top()).known);
  EXPECT_FALSE(flow::join(Interval::top(), b).known);
}

TEST(IntervalLattice, WideningDropsGrowthToTop) {
  const auto prev = Interval::range(0, 10);
  EXPECT_EQ(flow::widen(prev, Interval::range(0, 10)), prev);  // stable
  EXPECT_FALSE(flow::widen(prev, Interval::range(0, 11)).known);
  EXPECT_FALSE(flow::widen(prev, Interval::range(-1, 10)).known);
}

TEST(IntervalLattice, ArithmeticClampsInsteadOfWrapping) {
  const auto big = Interval::range(1, 1LL << 40);
  const auto prod = flow::imul(big, big);  // 2^80 magnitude: must go to top
  EXPECT_FALSE(prod.known);
  const auto shifted =
      flow::ishl(Interval::range(1, 1LL << 20), Interval::exact(12));
  EXPECT_TRUE(shifted.known);
  EXPECT_EQ(shifted.hi, 1LL << 32);
}

// --- CFG construction -------------------------------------------------------

TEST(Cfg, LoopsHaveBackEdges) {
  const auto tu = tu_of("src/net/x.cpp",
                        "void spin(int n) {\n"
                        "  int i = 0;\n"
                        "  while (i < n) {\n"
                        "    ++i;\n"
                        "  }\n"
                        "}\n");
  const flow::Cfg cfg = flow::build_cfg(tu, fn_named(tu, "spin"));
  EXPECT_TRUE(cfg.structured);
  EXPECT_FALSE(cfg.back_edges.empty());
}

TEST(Cfg, SwitchCollapsesToConservativeFallback) {
  const auto tu = tu_of("src/net/x.cpp",
                        "int pick(int k) {\n"
                        "  switch (k) {\n"
                        "    default: return 0;\n"
                        "  }\n"
                        "}\n");
  const flow::Cfg cfg = flow::build_cfg(tu, fn_named(tu, "pick"));
  EXPECT_FALSE(cfg.structured);
}

// --- dataflow solver --------------------------------------------------------

TEST(Dataflow, BranchJoinIsTheHull) {
  const auto tu = tu_of("src/net/x.cpp",
                        "void f(int procs) {\n"
                        "  long x = 1;\n"
                        "  if (procs > 512) {\n"
                        "    x = procs;\n"
                        "  }\n"
                        "  long y = x;\n"
                        "}\n");
  const auto& fn = fn_named(tu, "f");
  const flow::Cfg cfg = flow::build_cfg(tu, fn);
  const flow::FlowSummaries sums({tu});
  const auto sol = flow::solve<flow::IntervalEnv>(
      cfg, flow::IntervalEnv{},
      [&](std::size_t b, const flow::IntervalEnv& in) {
        return flow::interval_transfer(tu, cfg, b, in, &sums, nullptr);
      },
      flow::join_env, flow::widen_env);
  ASSERT_TRUE(sol.reachable[cfg.exit]);
  const auto it = sol.in[cfg.exit].find("x");
  ASSERT_TRUE(it != sol.in[cfg.exit].end());
  EXPECT_EQ(it->second.lo, 1);
  EXPECT_EQ(it->second.hi, flow::kProcsCeiling);
}

TEST(Dataflow, LoopAccumulatorWidensToTopAndConverges) {
  const auto tu = tu_of("src/net/x.cpp",
                        "void f(int procs) {\n"
                        "  long acc = 1;\n"
                        "  for (int i = 0; i < procs; ++i) {\n"
                        "    acc = acc + procs;\n"
                        "  }\n"
                        "  long out = acc;\n"
                        "}\n");
  const auto& fn = fn_named(tu, "f");
  const flow::Cfg cfg = flow::build_cfg(tu, fn);
  const flow::FlowSummaries sums({tu});
  const auto sol = flow::solve<flow::IntervalEnv>(
      cfg, flow::IntervalEnv{},
      [&](std::size_t b, const flow::IntervalEnv& in) {
        return flow::interval_transfer(tu, cfg, b, in, &sums, nullptr);
      },
      flow::join_env, flow::widen_env);
  ASSERT_TRUE(sol.reachable[cfg.exit]);
  // The per-iteration growth cannot stabilise: widening must have dropped
  // acc to top (absent) instead of iterating to the cap.
  EXPECT_EQ(sol.in[cfg.exit].count("acc"), 0u);
  EXPECT_LT(sol.iterations, static_cast<int>(cfg.blocks.size()) * 16 + 64);
}

TEST(FlowSummaries, ReturnsPropagateThroughCallChains) {
  const auto src = tu_of("src/net/a.cpp",
                         "long packet_budget() {\n"
                         "  return num_procs() * 4096;\n"
                         "}\n");
  const auto chained = tu_of("src/net/b.cpp",
                             "long chained_budget() {\n"
                             "  return packet_budget() + 1;\n"
                             "}\n");
  const flow::FlowSummaries sums({src, chained});
  const auto direct = sums.returns("packet_budget");
  ASSERT_TRUE(direct.known);
  EXPECT_EQ(direct.lo, 4096);
  EXPECT_EQ(direct.hi, 4096LL << 20);
  // The second fixpoint round resolves b's call through a's summary.
  const auto hop = sums.returns("chained_budget");
  ASSERT_TRUE(hop.known);
  EXPECT_EQ(hop.lo, 4097);
}

// --- the rule end-to-end ----------------------------------------------------

TEST(FlowRules, CostOverflowCarriesTheWidenFix) {
  const auto diags = lint_file("src/net/x.cpp",
                               "long f(int procs) {\n"
                               "  int total = procs * procs;\n"
                               "  return total;\n"
                               "}\n");
  const auto hits = of_rule(diags, "cost-overflow");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("widen the destination"), std::string::npos);
}

TEST(FlowRules, InterproceduralRangeCrossesTranslationUnits) {
  const std::vector<FileContent> files = {
      {"src/net/range_source.cpp",
       "long packet_budget() {\n"
       "  return num_procs() * 4096;\n"
       "}\n"},
      {"src/net/range_sink.cpp",
       "int consume() {\n"
       "  const long b = packet_budget();\n"
       "  int grabbed = b * 2;\n"
       "  return grabbed;\n"
       "}\n"}};
  const auto diags = lint_files(files);
  EXPECT_TRUE(has(diags, "src/net/range_sink.cpp", 3, "cost-overflow"));
  // Linting the sink alone, the call is top and the rule must stay silent.
  const auto alone = lint_file("src/net/range_sink.cpp", files[1].contents);
  EXPECT_TRUE(of_rule(alone, "cost-overflow").empty());
}

// --- lexer gap coverage -----------------------------------------------------

TEST(Lexer, DigitSeparatorsStayOneNumber) {
  const auto toks =
      lexer::lex(strip_comments_and_strings("long a = 1'000'000;\n"
                                            "long b = 0xFF'FF;\n"
                                            "char c = 'x';\n"));
  std::vector<std::string> numbers;
  for (const auto& t : toks) {
    if (t.kind == lexer::Tok::Number) numbers.push_back(t.text);
  }
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "1'000'000");
  EXPECT_EQ(numbers[1], "0xFF'FF");
}

TEST(Lexer, HexFloatsAreSingleNumbers) {
  const auto toks =
      lexer::lex(strip_comments_and_strings("double s = 0x1.8p3;\n"
                                            "double t = 0x.4p-2;\n"));
  std::vector<std::string> numbers;
  for (const auto& t : toks) {
    if (t.kind == lexer::Tok::Number) numbers.push_back(t.text);
  }
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "0x1.8p3");
  EXPECT_EQ(numbers[1], "0x.4p-2");
}

// --- the seeded fixture tree (cost-overflow) --------------------------------

TEST(FlowFixtureTree, V3RulesFireAndSuppress) {
  const auto diags = lint_tree(PCM_LINT_TESTDATA, {"src", "bench"});

  // cost-overflow: the two products; the suppressed mix, the wide
  // destination and the small factor stay silent.
  EXPECT_TRUE(has(diags, "src/net/bad_cost_overflow.cpp", 9, "cost-overflow"));
  EXPECT_TRUE(has(diags, "src/net/bad_cost_overflow.cpp", 10, "cost-overflow"));
  EXPECT_EQ(of_rule(diags, "cost-overflow").size(), 2u);

  // The lexer-coverage fixture is entirely silent.
  for (const auto& d : diags) {
    EXPECT_EQ(d.file.find("lexer_digit_sep"), std::string::npos)
        << d.file << ":" << d.line << " " << d.rule;
  }
}

}  // namespace
}  // namespace pcm::lint
