#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace pcm::lint {
namespace {

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

// --- stripping -------------------------------------------------------------

TEST(Strip, RemovesCommentsAndStringsKeepingLines) {
  const std::string src =
      "int a; // time(nullptr)\n"
      "/* rand() spans\n"
      "   two lines */ int b;\n"
      "const char* s = \"std::rand()\";\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(Strip, HandlesRawStringsAndEscapes) {
  const std::string src =
      "auto r = R\"(rand() inside raw)\";\n"
      "char c = '\\\"'; int rand_free;\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(out.find("rand()"), std::string::npos);
  EXPECT_NE(out.find("rand_free"), std::string::npos);
}

TEST(Strip, HandlesPrefixedRawStrings) {
  const std::string src =
      "auto a = LR\"(rand() wide)\";\n"
      "auto b = uR\"(time(nullptr))\";\n"
      "auto c = UR\"(clock())\";\n"
      "auto d = u8R\"x(srand(1))x\";\n"
      "int rand_free;\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(out.find("rand()"), std::string::npos);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_EQ(out.find("clock"), std::string::npos);
  EXPECT_EQ(out.find("srand"), std::string::npos);
  EXPECT_NE(out.find("rand_free"), std::string::npos);
}

TEST(Strip, PrefixedOrdinaryLiteralsStillStripped) {
  const std::string src =
      "auto a = L\"rand()\"; auto b = u8\"time(0)\"; char c = L'x';\n"
      "int keep_me;\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("keep_me"), std::string::npos);
}

TEST(Strip, RawPrefixInsideIdentifierIsNotARawString) {
  // FOO_uR"..." — the u is the tail of an identifier, so this is the
  // identifier FOO_uR followed by an ordinary string.
  const std::string src = "auto x = FOO_uR\"not raw\";\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_NE(out.find("FOO_uR"), std::string::npos);
  EXPECT_EQ(out.find("not raw"), std::string::npos);
}

TEST(Strip, MalformedRawDelimiterFallsBack) {
  // A ')' cannot appear in a raw delimiter; scanning must not swallow the
  // rest of the file looking for one.
  const std::string src =
      "auto x = R\")\";\n"
      "int still_code;\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_NE(out.find("still_code"), std::string::npos);
}

// --- wallclock -------------------------------------------------------------

TEST(Wallclock, FlagsLibcAndChrono) {
  const std::string src =
      "int a = rand();\n"
      "long t = std::time(nullptr);\n"
      "std::random_device dev;\n"
      "auto n = std::chrono::steady_clock::now();\n";
  const auto diags = lint_file("src/net/x.cpp", src);
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 1, "wallclock"));
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 2, "wallclock"));
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 3, "wallclock"));
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 4, "wallclock"));
}

TEST(Wallclock, IgnoresIdentifierTailsAndMembers) {
  const std::string src =
      "double d = ops_time(3);\n"
      "double e = step.time();\n"
      "double f = obj->clock();\n";
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", src), "wallclock").empty());
}

TEST(Wallclock, ExemptsExecAndTools) {
  const std::string src = "auto n = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_file("src/exec/progress.cpp", src).empty());
  EXPECT_TRUE(lint_file("tools/pcm-lint/lint.cpp", src).empty());
  EXPECT_FALSE(lint_file("bench/fig01.cpp", src).empty());
}

// --- unordered-iteration ---------------------------------------------------

TEST(UnorderedIteration, FlagsRangeForAndBegin) {
  const std::string src =
      "std::unordered_map<int, int> memo_;\n"
      "void f() { for (const auto& kv : memo_) { (void)kv; } }\n"
      "auto g() { return memo_.begin(); }\n";
  const auto diags = lint_file("src/machines/x.cpp", src);
  EXPECT_TRUE(has(diags, "src/machines/x.cpp", 2, "unordered-iteration"));
  EXPECT_TRUE(has(diags, "src/machines/x.cpp", 3, "unordered-iteration"));
}

TEST(UnorderedIteration, AllowsLookups) {
  const std::string src =
      "std::unordered_map<int, int> memo_;\n"
      "bool f() { return memo_.find(3) != memo_.end(); }\n";
  // find() is fine; the paired end() comparison is the idiomatic lookup, but
  // end() alone is indistinguishable from iteration at token level, so the
  // rule flags it — the lookup should use count()/contains() instead.
  const std::string clean =
      "std::unordered_map<int, int> memo_;\n"
      "bool f() { return memo_.count(3) > 0; }\n";
  EXPECT_TRUE(lint_file("src/net/x.cpp", clean).empty());
  EXPECT_FALSE(lint_file("src/net/x.cpp", src).empty());
}

TEST(UnorderedIteration, OnlyOrderSensitiveDirs) {
  const std::string src =
      "std::unordered_set<int> s;\n"
      "void f() { for (int v : s) { (void)v; } }\n";
  EXPECT_FALSE(lint_file("src/algos/x.cpp", src).empty());
  EXPECT_TRUE(lint_file("src/report/x.cpp", src).empty());
}

// --- float-time ------------------------------------------------------------

TEST(FloatTime, FlagsFloatInTimingCore) {
  const std::string src = "float t = 0;\n";
  EXPECT_TRUE(has(lint_file("src/sim/x.cpp", src), "src/sim/x.cpp", 1,
                  "float-time"));
  EXPECT_TRUE(has(lint_file("src/net/x.cpp", src), "src/net/x.cpp", 1,
                  "float-time"));
  // Algorithms legitimately move float payload data (e.g. cannon<float>).
  EXPECT_TRUE(lint_file("src/algos/x.cpp", src).empty());
}

TEST(FloatTime, IgnoresCommentsAndWords) {
  const std::string src =
      "// a float lives here\n"
      "int floaty = 1; int afloat = 2;\n";
  EXPECT_TRUE(lint_file("src/sim/x.cpp", src).empty());
}

// --- assert-in-header ------------------------------------------------------

TEST(AssertInHeader, FlagsHeadersOnly) {
  const std::string src = "inline void f(int v) { assert(v >= 0); }\n";
  EXPECT_TRUE(has(lint_file("src/runtime/x.hpp", src), "src/runtime/x.hpp", 1,
                  "assert-in-header"));
  EXPECT_TRUE(lint_file("src/runtime/x.cpp", src).empty());
}

TEST(AssertInHeader, IgnoresStaticAssertAndPcmCheck) {
  const std::string src =
      "static_assert(sizeof(int) >= 4);\n"
      "inline void f(int v) { PCM_CHECK(v >= 0); }\n";
  EXPECT_TRUE(lint_file("src/runtime/x.hpp", src).empty());
}

// --- metric-in-header ------------------------------------------------------

TEST(MetricInHeader, FlagsHeadersOutsideObs) {
  const std::string src =
      "inline const auto kId = obs::register_metric(\"x\", k);\n";
  EXPECT_TRUE(has(lint_file("src/runtime/x.hpp", src), "src/runtime/x.hpp", 1,
                  "metric-in-header"));
  // .cpp registration is the sanctioned form.
  EXPECT_TRUE(of_rule(lint_file("src/runtime/x.cpp", src), "metric-in-header")
                  .empty());
  // src/obs/ owns the registry; its own headers declare the API.
  EXPECT_TRUE(of_rule(lint_file("src/obs/metrics.hpp", src), "metric-in-header")
                  .empty());
}

TEST(MetricInHeader, IgnoresIdentifierTailsCommentsAndStrings) {
  const std::string src =
      "// call register_metric() from a .cpp\n"
      "const char* doc = \"register_metric(name, kind)\";\n"
      "int do_register_metrics(int v);\n"
      "int register_metrics_all();\n";
  EXPECT_TRUE(of_rule(lint_file("src/runtime/x.hpp", src), "metric-in-header")
                  .empty());
}

// --- bare-catch ------------------------------------------------------------

TEST(BareCatch, FlagsSwallowingHandler) {
  const std::string src =
      "void f() {\n"
      "  try { g(); } catch (...) {\n"
      "    count_ += 1;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(has(lint_file("src/runtime/x.cpp", src), "src/runtime/x.cpp", 2,
                  "bare-catch"));
}

TEST(BareCatch, AllowsRethrowAndCapture) {
  const std::string rethrow =
      "void f() { try { g(); } catch (...) { cleanup(); throw; } }\n";
  const std::string capture =
      "void f() { try { g(); } catch (...) {\n"
      "  err_ = std::current_exception(); } }\n";
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", rethrow), "bare-catch").empty());
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", capture), "bare-catch").empty());
}

TEST(BareCatch, NestedBracesStayInsideTheHandler) {
  // The throw lives in a *nested* block of the handler — still a rethrow.
  const std::string ok =
      "void f() { try { g(); } catch (...) { if (a) { throw; } } }\n";
  // The throw is *outside* the handler; the handler itself swallows.
  const std::string bad =
      "void f() { try { g(); } catch (...) { } }\n"
      "void h() { throw 1; }\n";
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", ok), "bare-catch").empty());
  EXPECT_TRUE(has(lint_file("src/net/x.cpp", bad), "src/net/x.cpp", 1,
                  "bare-catch"));
}

TEST(BareCatch, TypedCatchesAndOtherTreesAreOutOfScope) {
  const std::string typed =
      "void f() { try { g(); } catch (const std::exception& e) { log(e); } }\n";
  const std::string swallow = "void f() { try { g(); } catch (...) { } }\n";
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", typed), "bare-catch").empty());
  // exec is exempt; bench/tests/tools sit outside the rule's tree.
  EXPECT_TRUE(of_rule(lint_file("src/exec/x.cpp", swallow), "bare-catch").empty());
  EXPECT_TRUE(of_rule(lint_file("bench/fig01.cpp", swallow), "bare-catch").empty());
  EXPECT_TRUE(of_rule(lint_file("tools/x.cpp", swallow), "bare-catch").empty());
}

// --- include-layer ---------------------------------------------------------

TEST(IncludeLayer, FlagsBackwardEdges) {
  const std::string src =
      "#include \"machines/machine.hpp\"\n"
      "#include \"exec/sweep.hpp\"\n";
  const auto diags = lint_file("src/net/x.cpp", src);
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 1, "include-layer"));
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 2, "include-layer"));
}

TEST(IncludeLayer, AllowsDownwardAndSameLayer) {
  const std::string src =
      "#include \"sim/rng.hpp\"\n"
      "#include \"net/pattern.hpp\"\n"
      "#include \"audit/audit.hpp\"\n"  // audit and net share a layer
      "#include <vector>\n";
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", src), "include-layer").empty());
  // net -> audit's mirror image is fine too.
  EXPECT_TRUE(of_rule(lint_file("src/audit/x.hpp",
                                "#include \"net/pattern.hpp\"\n"),
                      "include-layer")
                  .empty());
}

TEST(IncludeLayer, FaultSitsBesideNet) {
  // machines consumes the fault plane (downward edge)...
  EXPECT_TRUE(of_rule(lint_file("src/machines/x.cpp",
                                "#include \"fault/injector.hpp\"\n"),
                      "include-layer")
                  .empty());
  // ...and fault may see net (same layer) but never the machines above it.
  EXPECT_TRUE(of_rule(lint_file("src/fault/x.cpp",
                                "#include \"net/pattern.hpp\"\n"),
                      "include-layer")
                  .empty());
  EXPECT_TRUE(has(lint_file("src/fault/x.cpp",
                            "#include \"machines/machine.hpp\"\n"),
                  "src/fault/x.cpp", 1, "include-layer"));
}

TEST(IncludeLayer, ObsSitsBesideNet) {
  // net reports into the observability plane (same layer)...
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp",
                                "#include \"obs/metrics.hpp\"\n"),
                      "include-layer")
                  .empty());
  // ...obs may format through report (downward) but never see machines.
  EXPECT_TRUE(of_rule(lint_file("src/obs/x.cpp",
                                "#include \"report/csv.hpp\"\n"),
                      "include-layer")
                  .empty());
  EXPECT_TRUE(has(lint_file("src/obs/x.cpp",
                            "#include \"machines/machine.hpp\"\n"),
                  "src/obs/x.cpp", 1, "include-layer"));
}

TEST(IncludeLayer, LearnSitsAboveExec) {
  // The empirical learner consumes the exec engine and the predictors
  // beneath it (downward edges)...
  EXPECT_TRUE(of_rule(lint_file("src/learn/x.cpp",
                                "#include \"exec/sweep.hpp\"\n"
                                "#include \"predict/matmul_predict.hpp\"\n"),
                      "include-layer")
                  .empty());
  // ...but nothing below the engine may reach up into it.
  EXPECT_TRUE(has(lint_file("src/exec/x.cpp",
                            "#include \"learn/fit.hpp\"\n"),
                  "src/exec/x.cpp", 1, "include-layer"));
  EXPECT_TRUE(has(lint_file("src/predict/x.cpp",
                            "#include \"learn/drift.hpp\"\n"),
                  "src/predict/x.cpp", 1, "include-layer"));
}

TEST(IncludeLayer, ArenaScratchLayerStaysAtBottom) {
  // The arena/SoA scratch layer (src/sim) is the floor of the DAG: routers
  // carve per-superstep scratch out of sim::Arena, so sim itself must never
  // look upward at the subsystems that consume it.
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp",
                                "#include \"sim/arena.hpp\"\n"),
                      "include-layer")
                  .empty());
  EXPECT_TRUE(of_rule(lint_file("src/sim/arena_extra.hpp",
                                "#include \"sim/clockset.hpp\"\n"),
                      "include-layer")
                  .empty());
  EXPECT_TRUE(has(lint_file("src/sim/x.cpp",
                            "#include \"net/pattern.hpp\"\n"),
                  "src/sim/x.cpp", 1, "include-layer"));
  EXPECT_TRUE(has(lint_file("src/sim/x.cpp",
                            "#include \"machines/machine.hpp\"\n"),
                  "src/sim/x.cpp", 1, "include-layer"));
}

TEST(IncludeLayer, TopLayersMayReachDown) {
  const std::string src =
      "#include \"core/registry.hpp\"\n"
      "#include \"machines/machine.hpp\"\n"
      "#include \"algos/matmul.hpp\"\n";
  EXPECT_TRUE(of_rule(lint_file("src/exec/x.cpp", src), "include-layer").empty());
}

TEST(IncludeLayer, OnlyConstrainsSrc) {
  // Benches, tests and tools sit outside the layered tree and may include
  // anything; so do includes of directories the map does not know.
  const std::string src = "#include \"machines/machine.hpp\"\n";
  EXPECT_TRUE(of_rule(lint_file("bench/fig01.cpp", src), "include-layer").empty());
  EXPECT_TRUE(of_rule(lint_file("tests/x.cpp", src), "include-layer").empty());
  EXPECT_TRUE(
      of_rule(lint_file("src/net/x.cpp", "#include \"newdir/thing.hpp\"\n"),
              "include-layer")
          .empty());
}

// --- suppressions ----------------------------------------------------------

TEST(Suppressions, LineAndFileLevel) {
  const std::string line_sup =
      "int a = rand();  // pcm-lint:allow(wallclock)\n"
      "int b = rand();\n";
  auto diags = lint_file("src/net/x.cpp", line_sup);
  EXPECT_FALSE(has(diags, "src/net/x.cpp", 1, "wallclock"));
  EXPECT_TRUE(has(diags, "src/net/x.cpp", 2, "wallclock"));

  const std::string file_sup =
      "// pcm-lint:allow-file(wallclock)\n"
      "int a = rand();\n"
      "int b = rand();\n";
  EXPECT_TRUE(of_rule(lint_file("src/net/x.cpp", file_sup), "wallclock").empty());
}

// --- the seeded fixture tree -----------------------------------------------

TEST(FixtureTree, EveryViolationClassCaught) {
  const auto diags = lint_tree(PCM_LINT_TESTDATA, {"src", "bench"});

  EXPECT_TRUE(has(diags, "src/net/bad_unordered.cpp", 10, "unordered-iteration"));
  EXPECT_TRUE(has(diags, "src/net/bad_unordered.cpp", 13, "unordered-iteration"));
  EXPECT_EQ(of_rule(diags, "unordered-iteration").size(), 2u);  // line 15 suppressed

  EXPECT_TRUE(has(diags, "src/sim/bad_float.cpp", 7, "float-time"));
  EXPECT_EQ(of_rule(diags, "float-time").size(), 1u);

  EXPECT_TRUE(has(diags, "src/runtime/bad_assert.hpp", 11, "assert-in-header"));
  EXPECT_EQ(of_rule(diags, "assert-in-header").size(), 1u);

  EXPECT_TRUE(has(diags, "src/runtime/bad_metric.hpp", 9, "metric-in-header"));
  EXPECT_EQ(of_rule(diags, "metric-in-header").size(), 1u);  // line 12 suppressed

  EXPECT_TRUE(has(diags, "bench/bad_wallclock.cpp", 12, "wallclock"));
  EXPECT_TRUE(has(diags, "bench/bad_wallclock.cpp", 13, "wallclock"));
  EXPECT_TRUE(has(diags, "bench/bad_wallclock.cpp", 14, "wallclock"));
  EXPECT_TRUE(has(diags, "bench/bad_wallclock.cpp", 16, "wallclock"));

  EXPECT_TRUE(has(diags, "src/runtime/bad_catch.cpp", 8, "bare-catch"));
  EXPECT_EQ(of_rule(diags, "bare-catch").size(), 1u);  // others rethrow/record/suppress

  EXPECT_TRUE(has(diags, "src/net/bad_layering.cpp", 8, "include-layer"));
  EXPECT_TRUE(has(diags, "src/net/bad_layering.cpp", 9, "include-layer"));
  EXPECT_TRUE(has(diags, "src/sim/bad_arena_upward.cpp", 7, "include-layer"));
  EXPECT_TRUE(has(diags, "src/sim/bad_arena_upward.cpp", 8, "include-layer"));
  EXPECT_TRUE(has(diags, "src/predict/bad_learn_upward.cpp", 7, "include-layer"));
  // 6 total: one line in each of the three dedicated fixtures is suppressed,
  // and the line-continuation fixture hides one backward edge behind a
  // spliced #include (sema_test.cpp asserts its exact line).
  EXPECT_EQ(of_rule(diags, "include-layer").size(), 6u);

  // Raw strings in every prefix form are data, not code.
  for (const auto& d : diags) {
    EXPECT_TRUE(d.file.find("raw_strings") == std::string::npos)
        << d.file << ":" << d.line << " " << d.rule;
  }

  // src/exec/ and src/learn/ fixtures must stay clean.
  for (const auto& d : diags) {
    EXPECT_TRUE(d.file.find("src/exec/") == std::string::npos) << d.file;
    EXPECT_TRUE(d.file.find("src/learn/") == std::string::npos) << d.file;
  }

  // Output is deterministically ordered by (file, line).
  const bool sorted = std::is_sorted(
      diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
        return a.file != b.file ? a.file < b.file : a.line < b.line;
      });
  EXPECT_TRUE(sorted);
}

}  // namespace
}  // namespace pcm::lint
