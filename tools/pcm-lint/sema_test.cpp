// Unit tests for the pcm-lint front end: lexer, per-TU sema parse,
// cross-TU call graph and the sema rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "lexer.hpp"
#include "lint.hpp"
#include "sema.hpp"

namespace {

using pcm::lint::Diagnostic;
using pcm::lint::lint_file;
using pcm::lint::lint_files;
using pcm::lint::lint_tree;
using pcm::lint::strip_comments_and_strings;
namespace lexer = pcm::lint::lexer;
namespace sema = pcm::lint::sema;
namespace callgraph = pcm::lint::callgraph;

sema::TranslationUnit parse_src(const std::string& rel_path,
                                const std::string& src) {
  return sema::parse(rel_path, lexer::lex(strip_comments_and_strings(src)));
}

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

const sema::FunctionDef* find_fn(const sema::TranslationUnit& tu,
                                 const std::string& simple) {
  for (const auto& f : tu.functions) {
    if (f.simple_name == simple) return &f;
  }
  return nullptr;
}

// --- lexer -------------------------------------------------------------------

TEST(Lexer, TokensCarryLinesAndMultiCharPunct) {
  const auto toks = lexer::lex("a->b;\n x <<= 2;\n");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].text, "->");
  EXPECT_EQ(toks[4].text, "x");
  EXPECT_EQ(toks[4].line, 2);
  EXPECT_EQ(toks[5].text, "<<=");
  EXPECT_EQ(toks.back().kind, lexer::Tok::End);
}

TEST(Lexer, SkipsPreprocessorLinesIncludingContinuations) {
  const auto toks = lexer::lex(
      "#define BAD {{{\n"
      "#define WORSE \\\n"
      "  also_skipped\n"
      "int kept;\n");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 4);  // splices must not desync line numbers
  EXPECT_EQ(toks[1].text, "kept");
}

TEST(Lexer, SpliceInsideCodeIsWhitespace) {
  const auto toks = lexer::lex("int a\\\n= 2;\n");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_EQ(toks[2].text, "=");
  EXPECT_EQ(toks[3].text, "2");
  EXPECT_EQ(toks[3].line, 2);
}

// --- stripper line continuations --------------------------------------------

TEST(Strip, BackslashContinuesLineComment) {
  const std::string src =
      "// comment continues \\\n"
      "rand(); still comment\n"
      "int code;\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int code;"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
}

// --- sema parse --------------------------------------------------------------

TEST(SemaParse, QualifiedOutOfLineAndInlineMembers) {
  const auto tu = parse_src("src/net/x.cpp",
                            "void MeshRouter::route(const CommPattern& p) {\n"
                            "  drain(now_);\n"
                            "}\n"
                            "struct Toy {\n"
                            "  int pes() const { return pes_; }\n"
                            "};\n"
                            "int free_fn() { return 1; }\n");
  const auto* route = find_fn(tu, "route");
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->qualified_name, "MeshRouter::route");
  ASSERT_NE(find_fn(tu, "pes"), nullptr);
  EXPECT_EQ(find_fn(tu, "pes")->qualified_name, "Toy::pes");
  ASSERT_NE(find_fn(tu, "free_fn"), nullptr);
  EXPECT_EQ(find_fn(tu, "free_fn")->qualified_name, "free_fn");
  ASSERT_FALSE(route->calls.empty());
  EXPECT_EQ(route->calls[0].callee, "drain");
  EXPECT_EQ(route->calls[0].line, 2);
}

TEST(SemaParse, CtorInitListAndTrailingReturn) {
  const auto tu = parse_src("src/net/x.cpp",
                            "Router::Router(int p) : procs_(p), spec_(p) {\n"
                            "  setup();\n"
                            "}\n"
                            "auto view() -> std::span<const int> {\n"
                            "  return {};\n"
                            "}\n");
  const auto* ctor = find_fn(tu, "Router");
  ASSERT_NE(ctor, nullptr);
  EXPECT_EQ(ctor->qualified_name, "Router::Router");
  ASSERT_NE(find_fn(tu, "view"), nullptr);
}

TEST(SemaParse, LambdaBodyAttributedToEnclosingFunction) {
  const auto tu = parse_src("src/net/x.cpp",
                            "void outer() {\n"
                            "  auto f = [&](int v) { helper(v); };\n"
                            "  f(1);\n"
                            "}\n");
  ASSERT_EQ(tu.functions.size(), 1u);
  const auto* outer = find_fn(tu, "outer");
  ASSERT_NE(outer, nullptr);
  const bool sees_helper =
      std::any_of(outer->calls.begin(), outer->calls.end(),
                  [](const sema::CallSite& c) { return c.callee == "helper"; });
  EXPECT_TRUE(sees_helper);
}

TEST(SemaParse, WallclockSeedsDetected) {
  const auto tu = parse_src("src/net/x.cpp",
                            "long a() { return time(nullptr); }\n"
                            "double b() { return obj.time(); }\n"
                            "auto c() { return steady_clock::now(); }\n");
  ASSERT_NE(find_fn(tu, "a"), nullptr);
  EXPECT_TRUE(find_fn(tu, "a")->direct_wallclock);
  EXPECT_EQ(find_fn(tu, "a")->wallclock_what, "time()");
  ASSERT_NE(find_fn(tu, "b"), nullptr);
  EXPECT_FALSE(find_fn(tu, "b")->direct_wallclock);  // member accessor
  ASSERT_NE(find_fn(tu, "c"), nullptr);
  EXPECT_TRUE(find_fn(tu, "c")->direct_wallclock);
}

// --- call graph --------------------------------------------------------------

TEST(CallGraph, MutualRecursionTerminatesAndPropagates) {
  const std::string src =
      "long ping(int n) { return n == 0 ? tick() : pong(n - 1); }\n"
      "long pong(int n) { return ping(n); }\n"
      "long tick() { return time(nullptr); }\n";
  std::vector<sema::TranslationUnit> tus;
  tus.push_back(parse_src("src/net/cycle.cpp", src));
  const auto diags = callgraph::determinism_taint(tus);
  // ping's tick() edge and both cross-edges of the cycle are call sites
  // into tainted functions; the self-recursive resolve must not loop.
  EXPECT_TRUE(has(diags, "src/net/cycle.cpp", 1, "determinism-taint"));
  EXPECT_TRUE(has(diags, "src/net/cycle.cpp", 2, "determinism-taint"));
  for (const auto& d : diags) {
    EXPECT_NE(d.message.find("time()"), std::string::npos) << d.message;
  }
}

TEST(CallGraph, OverloadsMergeConservatively) {
  std::vector<sema::TranslationUnit> tus;
  tus.push_back(parse_src("src/net/a.cpp",
                          "double jitter(int p) { return p * 0.5; }\n"));
  tus.push_back(parse_src("src/machines/b.cpp",
                          "double jitter(double p) { return rand() * p; }\n"));
  tus.push_back(parse_src("src/models/c.cpp",
                          "double cost() { return jitter(3); }\n"));
  const auto diags = callgraph::determinism_taint(tus);
  // One overload is tainted, so the call site is flagged (one diagnostic,
  // not one per overload).
  ASSERT_EQ(of_rule(diags, "determinism-taint").size(), 1u);
  EXPECT_TRUE(has(diags, "src/models/c.cpp", 1, "determinism-taint"));
}

TEST(CallGraph, ExemptTreesNeitherSeedNorPropagate) {
  std::vector<sema::TranslationUnit> tus;
  tus.push_back(parse_src("src/exec/host.cpp",
                          "long stamp() { return time(nullptr); }\n"));
  tus.push_back(parse_src("src/net/user.cpp",
                          "long run() { return stamp(); }\n"));
  const auto diags = callgraph::determinism_taint(tus);
  EXPECT_TRUE(diags.empty());
}

TEST(CallGraph, StdQualifiedCallsAreNotEdges) {
  std::vector<sema::TranslationUnit> tus;
  tus.push_back(parse_src("src/net/a.cpp",
                          "long min(long a, long b) { return time(nullptr); }\n"
                          "long use(long a) { return std::min(a, 2L); }\n"));
  const auto diags = callgraph::determinism_taint(tus);
  EXPECT_TRUE(diags.empty());
}

// --- flow rules (via the single-file driver) --------------------------------

TEST(SpanInvalidation, FlagsHoldAcrossMutationOnce) {
  const std::string src =
      "long f(CommPattern& p) {\n"
      "  auto msgs = p.messages();\n"
      "  p.add(0, 1, 8);\n"
      "  long a = msgs.size();\n"
      "  long b = msgs.size();\n"
      "  return a + b;\n"
      "}\n";
  const auto diags = lint_file("src/net/x.cpp", src);
  ASSERT_EQ(of_rule(diags, "span-invalidation").size(), 1u);  // once per var
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 4, "span-invalidation"));
}

TEST(SpanInvalidation, ReacquireAndOtherObjectAreClean) {
  const std::string src =
      "long f(CommPattern& p, CommPattern& q) {\n"
      "  auto msgs = p.messages();\n"
      "  q.add(0, 1, 8);\n"
      "  long a = msgs.size();\n"
      "  p.add(0, 1, 8);\n"
      "  msgs = p.messages();\n"
      "  return a + msgs.size();\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(lint_file("src/net/x.cpp", src), "span-invalidation").empty());
}

TEST(ArenaEscape, LocalSpansAreClean) {
  const std::string src =
      "void Router::route(const CommPattern& p) {\n"
      "  arena_.reset();\n"
      "  auto flight = arena_.alloc<InFlight>(p.size());\n"
      "  flight[0] = {};\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", src), "arena-escape").empty());
}

// --- cross-TU taint through lint_files ---------------------------------------

TEST(LintFiles, TaintCrossesTranslationUnits) {
  const auto diags = lint_files({
      {"src/net/source.cpp",
       "long entropy() { return time(nullptr); }  // pcm-lint:allow(wallclock)\n"},
      {"src/machines/user.cpp",
       "double bias() { return entropy() * 0.5; }\n"
       "double accepted() { return entropy(); }  // pcm-lint:allow(determinism-taint)\n"},
  });
  EXPECT_TRUE(has(diags, "src/machines/user.cpp", 1, "determinism-taint"));
  // The suppressed edge and the suppressed seed both stay silent.
  EXPECT_EQ(of_rule(diags, "determinism-taint").size(), 1u);
  EXPECT_TRUE(of_rule(diags, "wallclock").empty());
}

// --- the seeded fixture tree (flow rules) ------------------------------------

TEST(SemaFixtureTree, FlowRuleFixturesFireAndSuppress) {
  const auto diags = lint_tree(PCM_LINT_TESTDATA, {"src", "bench"});

  // span-invalidation: three firing holds (add, clear, canonicalise); the
  // suppressed and the two clean functions stay silent.
  EXPECT_TRUE(has(diags, "src/net/bad_span_hold.cpp", 13, "span-invalidation"));
  EXPECT_TRUE(has(diags, "src/net/bad_span_hold.cpp", 20, "span-invalidation"));
  EXPECT_TRUE(has(diags, "src/net/bad_span_hold.cpp", 27, "span-invalidation"));
  EXPECT_EQ(of_rule(diags, "span-invalidation").size(), 3u);

  // arena-escape: member, this->, static, *out, out->field.
  EXPECT_TRUE(has(diags, "src/net/bad_arena_escape.cpp", 16, "arena-escape"));
  EXPECT_TRUE(has(diags, "src/net/bad_arena_escape.cpp", 21, "arena-escape"));
  EXPECT_TRUE(has(diags, "src/net/bad_arena_escape.cpp", 26, "arena-escape"));
  EXPECT_TRUE(has(diags, "src/net/bad_arena_escape.cpp", 32, "arena-escape"));
  EXPECT_TRUE(has(diags, "src/net/bad_arena_escape.cpp", 37, "arena-escape"));
  EXPECT_EQ(of_rule(diags, "arena-escape").size(), 5u);

  // determinism-taint: one- and two-hop chains across TUs; the seeded path
  // and the suppressed edge stay silent.
  EXPECT_TRUE(
      has(diags, "src/machines/bad_taint_transitive.cpp", 12, "determinism-taint"));
  EXPECT_TRUE(
      has(diags, "src/machines/bad_taint_transitive.cpp", 17, "determinism-taint"));
  EXPECT_EQ(of_rule(diags, "determinism-taint").size(), 2u);
  for (const auto& d : of_rule(diags, "determinism-taint")) {
    EXPECT_NE(d.message.find("host_entropy -> time()"), std::string::npos)
        << d.message;
  }

  // line continuations: the spliced comment hides its rand(); the spliced
  // #include still hits include-layer on the directive line; the real
  // rand() lands on its exact physical line.
  EXPECT_FALSE(has(diags, "src/net/line_continuation.cpp", 2, "wallclock"));
  EXPECT_TRUE(has(diags, "src/net/line_continuation.cpp", 5, "include-layer"));
  EXPECT_TRUE(has(diags, "src/net/line_continuation.cpp", 11, "wallclock"));
}

}  // namespace
