// EXTENSION: the model-drift scoreboard. Every probe in the learn::drift
// registry, one table per paper machine: the closed form's dominant term
// (what the paper's formulas claim), the dominant term learn::fit recovers
// from sampling that closed form (the analytic gate run by CI against the
// MODELS_*.json baselines), and — for probes with a simulator grid — the
// dominant fitted to actual simulated sweeps plus the shape verdict. The
// paper's own observation (Fig 5 and the text around it) that model and
// machine agree in *shape* but can differ by a constant factor is exactly
// what the LocalSlope verdicts formalize.

#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "learn/drift.hpp"
#include "report/table.hpp"

namespace {

using namespace pcm;

std::string dominant_str(const learn::ScalingModel& m) {
  if (!m.ok) return "<no fit>";
  return learn::to_string(m.dominant());
}

std::string shape_str(const learn::Term& t) {
  std::string s = "n^" + report::Table::num(t.a, 1);
  if (t.b == 1) s += "*log n";
  if (t.b > 1) s += "*log^" + std::to_string(t.b) + " n";
  return s;
}

void scoreboard(const std::string& machine, const bench::Env& env) {
  report::banner(std::cout, machine + " — fitted vs closed-form scaling", "");
  report::Table t({"probe", "expected", "analytic fit", "measured fit",
                   "verdict", "max rel err"});
  for (const learn::DriftProbe& p : learn::drift_probes_for(machine)) {
    const learn::ScalingModel analytic = learn::analytic_model(p);
    std::string measured = "(analytic only)";
    std::string verdict = "AGREE";
    std::string err = "-";
    if (p.has_measured()) {
      const learn::Verdict v =
          learn::measured_verdict(p, env.jobs, env.quick);
      measured = dominant_str(v.fitted);
      verdict = v.agree() ? "AGREE"
                          : (v.agreement == learn::Agreement::Conflict
                                 ? "CONFLICT"
                                 : "INCONCLUSIVE");
      err = report::Table::num(v.max_rel_err, 3);
    }
    t.add_row({p.id, shape_str(p.expected), dominant_str(analytic), measured,
               verdict, err});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv, "jobs");
  report::banner(std::cout, "EXT: empirical scaling models vs closed forms",
                 "learn::fit recovers every kernel's dominant exponent from "
                 "the paper's formulas; simulated sweeps agree in shape "
                 "(constants differ, as in the paper's Fig 5)");
  for (const char* m : {"maspar", "gcel", "cm5"}) {
    scoreboard(m, env);
  }
  return 0;
}
