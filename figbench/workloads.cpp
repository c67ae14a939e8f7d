// pcm-lint:allow-file(determinism-taint)
// Passes time their set-up and kernel on the host clock (timing.hpp);
// the timings go to the report only, never into a digest or an output.

#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iostream>
#include <utility>

#include "algos/bitonic.hpp"
#include "algos/matmul.hpp"
#include "algos/reference.hpp"
#include "calibrate/calibrate.hpp"
#include "exec/sweep.hpp"
#include "models/params.hpp"
#include "predict/bitonic_predict.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "timing.hpp"

namespace figbench {

namespace algos = pcm::algos;
namespace calibrate = pcm::calibrate;
namespace core = pcm::core;
namespace exec = pcm::exec;
namespace models = pcm::models;
namespace predict = pcm::predict;

void Checks::expect(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "CHECK FAILED: " << what << '\n';
}

namespace {

using machines::MachineSpec;
using machines::Platform;

/// An input or machine seed derived from the workload seed; `purpose` keeps
/// the streams independent.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  return sim::Rng(seed).split(purpose).next_u64();
}

/// FNV-1a 64 over the bytes of simulated quantities.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_bits(bits);
  }
  template <typename T>
  void add(const std::vector<T>& vs) {
    add_bits(vs.size());
    for (const T v : vs) add(static_cast<double>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void add_bits(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Every fitted value of a calibration, in a fixed order (digest and
/// replay comparison).
std::vector<double> fitted_values(const models::MachineModelParams& p) {
  return {p.bsp.g,           p.bsp.L,           p.bpram.sigma,
          p.bpram.ell,       p.ebsp.t_unb.a,    p.ebsp.t_unb.b,
          p.ebsp.t_unb.c,    p.ebsp.g_mscat,    p.ebsp.t_unb_local.a,
          p.ebsp.t_unb_local.b, p.ebsp.t_unb_local.c,
          static_cast<double>(p.ebsp.locality)};
}

obs::MetricsSnapshot counters_of(const machines::Machine& m) {
  return m.metrics().on() ? m.metrics().snapshot() : obs::MetricsSnapshot{};
}

/// Run a workload's set-up once under the Setup span and return its host
/// time. Once per pass, right after the previous kernel, the set-up finds
/// the caches as it does in a user's process. Repeating a microsecond
/// set-up back to back would time a cache-hot loop instead, which swung by
/// up to 1.8x between runs on a shared 4-vCPU VM. setup_s is the median
/// over a run's passes.
template <typename F>
std::int64_t time_setup(SpanLog* log, F&& setup) {
  const std::int64_t t0 = host_ns();
  {
    const SpanScope s(log, SpanName::Setup);
    setup();
  }
  return host_ns() - t0;
}

// --- fig05: MP-BSP bitonic sort on the 1024-PE MasPar ----------------------

class Fig05 final : public Workload {
 public:
  static constexpr int kKeysPerPe = 256;
  static constexpr double kPaperFactor = 2.0;  // Fig 5: model ~2x measured

  explicit Fig05(std::uint64_t seed)
      : calibration_spec_{Platform::MasPar, 0, derive(seed, 1)},
        sort_spec_{Platform::MasPar, 0, derive(seed, 2)},
        keys_seed_(derive(seed, 3)) {
    expected_ = make_keys(machines::default_procs(Platform::MasPar));
    std::sort(expected_.begin(), expected_.end());
  }

  PassResult pass(SpanLog* log, Checks& checks) override {
    PassResult out;
    models::MachineModelParams params;
    std::unique_ptr<machines::Machine> m;
    std::vector<std::uint32_t> keys;
    out.setup_ns = time_setup(log, [&] {
      const auto cal = build_machine(calibration_spec_, log);
      {
        const SpanScope c(log, SpanName::CalibrateMasPar);
        params = calibrate::calibrate(*cal, calibration_options());
      }
      m = build_machine(sort_spec_, log);
      keys = make_keys(m->procs());
    });
    algos::BitonicResult r;
    const std::int64_t t0 = host_ns();
    {
      const SpanScope s(log, SpanName::Kernel);
      const SpanScope b(log, SpanName::RunBitonic);
      r = algos::run_bitonic(*m, keys, algos::BitonicVariant::MpBsp);
    }
    out.kernel_ns = host_ns() - t0;

    checks.expect(r.keys == expected_,
                  "fig05: sorted output equals std::sort of the input keys");
    Digest d;
    d.add(fitted_values(params));
    d.add(r.time);
    d.add(r.time_per_key);
    d.add(r.keys);
    out.digest = d.value();
    const double predicted =
        predict::bitonic_mp_bsp(params.bsp, m->compute(), kKeysPerPe) /
        kKeysPerPe;
    out.paper_err_pct =
        100.0 * std::fabs(predicted / r.time_per_key - kPaperFactor) /
        kPaperFactor;
    out.counters = counters_of(*m);
    return out;
  }

 private:
  /// The fig05 bench's campaign (BSP g/L and MP-BPRAM sigma/ell only) at
  /// 200 trials per point instead of the bench's 20. The predicted/measured
  /// factor inherits the fit's seed-to-seed noise: across ten seeds
  /// paper_err_pct spreads ~18% at 20 trials, 10% at 100 and 3.4% at 200.
  static calibrate::CalibrationOptions calibration_options() {
    calibrate::CalibrationOptions o;
    o.trials = 200;
    o.fit_t_unb = false;
    o.fit_mscat = false;
    return o;
  }

  [[nodiscard]] std::vector<std::uint32_t> make_keys(int procs) const {
    sim::Rng rng(keys_seed_);
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(kKeysPerPe) *
                                    static_cast<std::size_t>(procs));
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
    return keys;
  }

  MachineSpec calibration_spec_;
  MachineSpec sort_spec_;
  std::uint64_t keys_seed_;
  std::vector<std::uint32_t> expected_;
};

// --- fig16: N=512 matmul on the 64-node CM-5, three variants ---------------

class Fig16 final : public Workload {
 public:
  static constexpr int kN = 512;
  static constexpr double kMaxRelErr = 1e-9;
  static constexpr double kPaperStaggeredMflops = 256.0;  // Fig 16, N=512
  static constexpr double kPaperBpramMflops = 366.0;

  explicit Fig16(std::uint64_t seed)
      : spec_{Platform::CM5, 0, derive(seed, 1)},
        a_seed_(derive(seed, 2)),
        b_seed_(derive(seed, 3)) {
    reference_ = algos::ref::matmul(make_matrix(a_seed_), make_matrix(b_seed_), kN);
    for (const double v : reference_) ref_max_ = std::max(ref_max_, std::fabs(v));
  }

  PassResult pass(SpanLog* log, Checks& checks) override {
    static constexpr std::array<std::pair<algos::MatmulVariant, SpanName>, 3>
        kVariants = {{{algos::MatmulVariant::BspUnstaggered,
                       SpanName::MatmulBspUnstaggered},
                      {algos::MatmulVariant::BspStaggered,
                       SpanName::MatmulBspStaggered},
                      {algos::MatmulVariant::Bpram, SpanName::MatmulMpBpram}}};
    PassResult out;
    std::unique_ptr<machines::Machine> m;
    std::vector<double> a, b;
    out.setup_ns = time_setup(log, [&] {
      m = build_machine(spec_, log);
      a = make_matrix(a_seed_);
      b = make_matrix(b_seed_);
    });
    std::array<algos::MatmulResult<double>, kVariants.size()> r;
    const std::int64_t t0 = host_ns();
    {
      const SpanScope s(log, SpanName::Kernel);
      for (std::size_t i = 0; i < kVariants.size(); ++i) {
        const SpanScope v(log, kVariants[i].second);
        r[i] = algos::run_matmul<double>(*m, a, b, kN, kVariants[i].first);
      }
    }
    out.kernel_ns = host_ns() - t0;

    Digest d;
    for (std::size_t i = 0; i < kVariants.size(); ++i) {
      checks.expect(max_rel_err(r[i].c) <= kMaxRelErr,
                    "fig16: " + std::string(algos::to_string(kVariants[i].first)) +
                        " product within 1e-9 of algos::ref::matmul");
      d.add(r[i].time);
      d.add(r[i].mflops);
      d.add(r[i].c);
    }
    out.digest = d.value();
    out.paper_err_pct =
        50.0 * (std::fabs(r[1].mflops / kPaperStaggeredMflops - 1.0) +
                std::fabs(r[2].mflops / kPaperBpramMflops - 1.0));
    out.counters = counters_of(*m);
    return out;
  }

 private:
  [[nodiscard]] static std::vector<double> make_matrix(std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<double> m(static_cast<std::size_t>(kN) * kN);
    for (auto& v : m) v = rng.next_double() * 2.0 - 1.0;
    return m;
  }

  [[nodiscard]] double max_rel_err(const std::vector<double>& c) const {
    if (c.size() != reference_.size()) return INFINITY;
    double worst = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      worst = std::max(worst, std::fabs(c[i] - reference_[i]));
    }
    return worst / ref_max_;
  }

  MachineSpec spec_;
  std::uint64_t a_seed_;
  std::uint64_t b_seed_;
  std::vector<double> reference_;
  double ref_max_ = 0.0;
};

// --- table1: the calibration campaign on all three machines, via exec ------

class Table1 final : public Workload {
 public:
  static constexpr int kSeedsPerMachine = 6;
  static constexpr std::array<Platform, 3> kPlatforms = {
      Platform::MasPar, Platform::GCel, Platform::CM5};

  Table1(std::uint64_t seed, const std::string& scratch)
      : journal_dir_(scratch + "/journal") {
    for (std::size_t i = 0; i < kPlatforms.size(); ++i) {
      sweep_seed_[i] = derive(seed, 10 + i);
    }
  }

  PassResult pass(SpanLog* log, Checks& checks) override {
    PassResult out;
    std::array<exec::SweepSpec, kPlatforms.size()> specs;
    std::array<Cells, kPlatforms.size()> cells;
    std::array<int, kPlatforms.size()> procs{};
    out.setup_ns = time_setup(log, [&] {
      for (std::size_t i = 0; i < kPlatforms.size(); ++i) {
        // Table 1's row machine, as bench/table1_parameters builds it before
        // calibrating. Here it only fixes the processor count checked
        // against Table 1: exec builds each cell's machine itself, inside
        // the timed phase.
        procs[i] = build_machine(machine_spec(i), log)->procs();
        specs[i] = sweep_spec(i, cells[i], log);
      }
    });
    std::array<exec::SweepResult, kPlatforms.size()> first, resumed;
    const std::int64_t t0 = host_ns();
    {
      const SpanScope s(log, SpanName::Kernel);
      for (std::size_t i = 0; i < kPlatforms.size(); ++i) {
        {
          const SpanScope r(log, SpanName::RunSweep);
          first[i] = exec::run_sweep(specs[i]);
        }
        specs[i].resume = true;
        const SpanScope r(log, SpanName::Resume);
        resumed[i] = exec::run_sweep(specs[i]);
      }
    }
    out.kernel_ns = host_ns() - t0;

    Digest d;
    std::vector<double> errors;
    double cells_total = 0.0, cells_failed = 0.0;
    for (std::size_t i = 0; i < kPlatforms.size(); ++i) {
      const std::string name(machines::to_string(kPlatforms[i]));
      checks.expect(procs[i] == paper(i).bsp.P,
                    "table1: " + name + " has Table 1's processor count");
      for (std::size_t c = 0; c < kSeedsPerMachine; ++c) {
        const bool failed =
            std::any_of(first[i].failures.begin(), first[i].failures.end(),
                        [c](const exec::CellFailure& f) { return f.cell == c; });
        checks.expect(!failed && cells[i].done[c],
                      "table1: " + name + " cell " + std::to_string(c) + " ok");
        const auto fit = fitted_values(cells[i].fits[c]);
        d.add(fit);
        const auto ref = fitted_values(paper(i));
        for (std::size_t k = 0; k < 4; ++k) {  // g, L, sigma, ell
          errors.push_back(100.0 * std::fabs(fit[k] / ref[k] - 1.0));
        }
      }
      checks.expect(resumed[i].cells_resumed == kSeedsPerMachine &&
                        same_series(first[i].series, resumed[i].series),
                    "table1: " + name +
                        " resume pass returns the first pass's series");
      for (const auto& p : first[i].series.points) d.add(p.measured.mean);
      out.counters.merge(first[i].metrics.totals);
      cells_total += static_cast<double>(first[i].cells_total);
      cells_failed += static_cast<double>(first[i].failures.size());
    }
    out.digest = d.value();
    // The median, not the mean: the MasPar ell is the intercept of a fit
    // whose slope term is ~700x larger at the longest block, so its error
    // swings between ~20% and ~150% from seed to seed and would swamp a
    // mean; the median of the 72 errors moves by a fraction of a percent.
    out.paper_err_pct = sim::summarize(errors).median;
    out.figures["exec.cells"] = cells_total;
    out.figures["exec.cells_failed"] = cells_failed;
    if (log != nullptr) replay(specs, cells, *log, checks, out);
    return out;
  }

 private:
  /// What the measure callbacks of one platform's sweep leave behind.
  struct Cells {
    std::array<models::MachineModelParams, kSeedsPerMachine> fits;
    std::array<std::uint64_t, kSeedsPerMachine> seeds{};
    std::array<bool, kSeedsPerMachine> done{};
  };

  [[nodiscard]] MachineSpec machine_spec(std::size_t i) const {
    return MachineSpec{kPlatforms[i], 0, sweep_seed_[i]};
  }

  [[nodiscard]] static models::MachineModelParams paper(std::size_t i) {
    switch (kPlatforms[i]) {
      case Platform::MasPar: return models::table1::maspar();
      case Platform::GCel: return models::table1::gcel();
      default: return models::table1::cm5();
    }
  }

  /// One sweep per platform; each cell is one seed of the full
  /// calibrate::calibrate campaign (default options: 20 trials per point).
  exec::SweepSpec sweep_spec(std::size_t i, Cells& cells, SpanLog* log) const {
    exec::SweepSpec spec;
    spec.experiment = "figbench-table1-" + std::string(machines::to_string(kPlatforms[i]));
    spec.x_label = "seed index";
    spec.y_label = "g (us)";
    spec.machine = machine_spec(i);
    for (int k = 0; k < kSeedsPerMachine; ++k) spec.xs.push_back(k);
    spec.trials = 1;
    spec.jobs = 1;
    spec.seed = sweep_seed_[i];
    spec.checkpoint_dir = journal_dir_;
    spec.measure = [&cells, log](exec::TrialContext& ctx) {
      const SpanScope s(log, SpanName::Measure);
      const auto c = static_cast<std::size_t>(ctx.x);
      cells.fits[c] = calibrate::calibrate(ctx.machine);
      cells.seeds[c] = ctx.cell_seed;
      cells.done[c] = true;
      return cells.fits[c].bsp.g;
    };
    return spec;
  }

  static bool same_series(const core::ValidationSeries& a,
                          const core::ValidationSeries& b) {
    if (a.points.size() != b.points.size()) return false;
    for (std::size_t k = 0; k < a.points.size(); ++k) {
      const auto& p = a.points[k];
      const auto& q = b.points[k];
      if (p.x != q.x || p.measured.n != q.measured.n ||
          p.measured.mean != q.measured.mean ||
          p.measured.median != q.measured.median ||
          p.measured.min != q.measured.min || p.measured.max != q.measured.max) {
        return false;
      }
    }
    return true;
  }

  /// exec builds its own machines, so the traced pass replays every cell
  /// outside exec on a TracedMachine with the seed exec derived for it, and
  /// requires the same fit and the same counters.
  void replay(const std::array<exec::SweepSpec, kPlatforms.size()>& specs,
              const std::array<Cells, kPlatforms.size()>& cells, SpanLog& log,
              Checks& checks, PassResult& out) const {
    obs::MetricsSnapshot replayed;
    const SpanScope s(&log, SpanName::Replay);
    for (std::size_t i = 0; i < kPlatforms.size(); ++i) {
      const sim::Rng root = exec::detail::seed_root(specs[i]);
      for (std::size_t c = 0; c < kSeedsPerMachine; ++c) {
        const std::uint64_t cell_seed = root.split(c).next_u64();
        checks.expect(cell_seed == cells[i].seeds[c],
                      "table1 replay: cell seed equals the one exec derived");
        const auto m = build_machine({kPlatforms[i], 0, cell_seed}, &log);
        models::MachineModelParams fit;
        {
          const SpanScope cs(&log, calibrate_span(kPlatforms[i]));
          fit = calibrate::calibrate(*m);
        }
        checks.expect(fitted_values(fit) == fitted_values(cells[i].fits[c]),
                      "table1 replay: traced fit equals exec's fit");
        replayed.merge(m->metrics().snapshot());
      }
    }
    checks.expect(replayed == out.counters,
                  "table1 replay: traced counters equal exec's counters");
    out.counters = std::move(replayed);
  }

  std::string journal_dir_;
  std::array<std::uint64_t, kPlatforms.size()> sweep_seed_{};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig05-bitonic-maspar", "fig16-matmul-cm5", "table1-calib-sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch) {
  if (name == workload_names()[0]) return std::make_unique<Fig05>(seed);
  if (name == workload_names()[1]) return std::make_unique<Fig16>(seed);
  if (name == workload_names()[2]) return std::make_unique<Table1>(seed, scratch);
  return nullptr;
}

}  // namespace figbench
