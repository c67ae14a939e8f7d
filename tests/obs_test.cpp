#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "exec/sweep.hpp"
#include "machines/machine.hpp"
#include "net/pattern.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "race/race.hpp"
#include "test_util.hpp"

// The observability plane's regression suite. The golden-trace tests drive a
// fixed two-superstep workload through each machine and pin the exact span
// sequence, superstep boundaries and packet/byte counters; the sweep tests
// pin the exec-level contract (metrics byte-identical at any --jobs, and
// unperturbed by the audit/race planes); the recorder tests pin the tiling
// invariant the Chrome export leans on.

namespace pcm {
namespace {

test::FlagGuard obs_on() { return {&obs::set_enabled, &obs::enabled, true}; }

// ------------------------------------------------------------------ registry

TEST(ObsRegistry, RegistrationIsIdempotent) {
  const auto a = obs::register_metric("test.idem", obs::MetricKind::Counter);
  const auto b = obs::register_metric("test.idem", obs::MetricKind::Counter);
  EXPECT_EQ(a, b);
  EXPECT_EQ(obs::metric_name(a), "test.idem");
  EXPECT_EQ(obs::metric_kind(a), obs::MetricKind::Counter);
}

TEST(ObsRegistry, KindMismatchThrows) {
  (void)obs::register_metric("test.kindclash", obs::MetricKind::Counter);
  EXPECT_THROW(
      (void)obs::register_metric("test.kindclash", obs::MetricKind::Gauge),
      std::invalid_argument);
}

TEST(ObsRegistry, UnknownIdThrows) {
  EXPECT_THROW((void)obs::metric_name(obs::registry_size() + 100),
               std::out_of_range);
}

TEST(ObsRegistry, BuiltinIdsAreStableAndNamed) {
  const auto& b = obs::builtin();
  EXPECT_EQ(obs::metric_name(b.packets), "machine.packets");
  EXPECT_EQ(obs::metric_kind(b.barrier_skew_us), obs::MetricKind::Histogram);
  EXPECT_EQ(obs::metric_kind(b.fat_tree_port_queue_peak),
            obs::MetricKind::Gauge);
  // A second call hands back the same ids.
  EXPECT_EQ(obs::builtin().packets, b.packets);
}

// ------------------------------------------------------------------- metrics

TEST(ObsMetrics, OffMutatorsAreNoOps) {
  obs::Metrics m;
  EXPECT_FALSE(m.on());
  m.add(obs::builtin().packets, 7);
  m.observe(obs::builtin().barrier_skew_us, 3);
  EXPECT_EQ(m.value(obs::builtin().packets), 0u);
  EXPECT_TRUE(m.snapshot().empty());
}

TEST(ObsMetrics, CountersGaugesHistograms) {
  const auto c = obs::register_metric("test.ctr", obs::MetricKind::Counter);
  const auto g = obs::register_metric("test.gauge", obs::MetricKind::Gauge);
  const auto h = obs::register_metric("test.hist", obs::MetricKind::Histogram);
  obs::Metrics m;
  m.set_on(true);
  m.add(c, 2);
  m.add(c);
  m.peak(g, 5);
  m.peak(g, 3);  // lower: peak stays
  for (const std::uint64_t v : {0u, 1u, 2u, 3u}) m.observe(h, v);

  EXPECT_EQ(m.value(c), 3u);
  EXPECT_EQ(m.value(g), 5u);
  const auto hist = m.histogram(h);
  EXPECT_EQ(hist.count, 4u);
  EXPECT_EQ(hist.sum, 6u);
  EXPECT_EQ(hist.max, 3u);
  EXPECT_EQ(hist.buckets[0], 1u);  // v == 0
  EXPECT_EQ(hist.buckets[1], 1u);  // v == 1
  EXPECT_EQ(hist.buckets[2], 2u);  // v in [2, 4)

  m.clear();
  EXPECT_TRUE(m.on());
  EXPECT_EQ(m.value(c), 0u);
  EXPECT_TRUE(m.snapshot().empty());
}

TEST(ObsMetrics, SnapshotIsSortedAndFindable) {
  const auto z = obs::register_metric("test.zzz", obs::MetricKind::Counter);
  const auto a = obs::register_metric("test.aaa", obs::MetricKind::Counter);
  obs::Metrics m;
  m.set_on(true);
  m.add(z, 1);
  m.add(a, 2);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "test.aaa");
  EXPECT_EQ(snap.entries[1].name, "test.zzz");
  ASSERT_NE(snap.find("test.aaa"), nullptr);
  EXPECT_EQ(snap.find("test.aaa")->value, 2u);
  EXPECT_EQ(snap.find("test.nope"), nullptr);
}

TEST(ObsMetrics, MergeAddsCountersMaxesGaugesFoldsHistograms) {
  const auto c = obs::register_metric("test.m.ctr", obs::MetricKind::Counter);
  const auto g = obs::register_metric("test.m.gauge", obs::MetricKind::Gauge);
  const auto h = obs::register_metric("test.m.hist", obs::MetricKind::Histogram);
  obs::Metrics ma, mb;
  ma.set_on(true);
  mb.set_on(true);
  ma.add(c, 5);
  ma.peak(g, 3);
  ma.observe(h, 1);
  mb.add(c, 2);
  mb.peak(g, 7);
  mb.observe(h, 4);

  auto merged = ma.snapshot();
  merged.merge(mb.snapshot());
  EXPECT_EQ(merged.find("test.m.ctr")->value, 7u);
  EXPECT_EQ(merged.find("test.m.gauge")->value, 7u);
  const auto& hist = merged.find("test.m.hist")->hist;
  EXPECT_EQ(hist.count, 2u);
  EXPECT_EQ(hist.sum, 5u);
  EXPECT_EQ(hist.max, 4u);
  // Merge is commutative here.
  auto other = mb.snapshot();
  other.merge(ma.snapshot());
  EXPECT_EQ(merged, other);
  // And the disjoint-name case keeps both entries.
  obs::Metrics only;
  only.set_on(true);
  only.add(obs::register_metric("test.m.only", obs::MetricKind::Counter), 1);
  merged.merge(only.snapshot());
  EXPECT_NE(merged.find("test.m.only"), nullptr);
  EXPECT_EQ(merged.find("test.m.ctr")->value, 7u);
}

TEST(ObsMetrics, SnapshotEncodeDecodeRoundTripsExactly) {
  const auto c = obs::register_metric("test.enc.ctr", obs::MetricKind::Counter);
  const auto g = obs::register_metric("test.enc.gauge", obs::MetricKind::Gauge);
  const auto h =
      obs::register_metric("test.enc.hist", obs::MetricKind::Histogram);
  obs::Metrics m;
  m.set_on(true);
  m.add(c, 12345678901234ull);
  m.peak(g, 42);
  m.observe(h, 0);  // bucket 0: the v == 0 edge case
  m.observe(h, 3);
  m.observe(h, 1ull << 40);
  const auto snap = m.snapshot();
  const std::string token = obs::encode_metrics_snapshot(snap);
  // One space-free token (it rides a whitespace-delimited journal column).
  EXPECT_EQ(token.find(' '), std::string::npos);
  EXPECT_EQ(obs::decode_metrics_snapshot(token), snap);
  // Empty round-trips to empty.
  EXPECT_EQ(obs::encode_metrics_snapshot({}), "");
  EXPECT_TRUE(obs::decode_metrics_snapshot("").empty());
}

TEST(ObsMetrics, DecodeRejectsMalformedTokensAsEmpty) {
  const char* bad[] = {"noequals",     "x=q:1",  "x=c:",      "x=c:1junk",
                       "x=h:1:2",      "x=h:1:2:3:99.1,",     "=c:1",
                       "a=c:1;;b=c:2", "x=h:1:2:3:65.1"};
  for (const char* text : bad) {
    EXPECT_TRUE(obs::decode_metrics_snapshot(text).empty()) << text;
  }
}

// ------------------------------------------------------------- span recorder

TEST(ObsSpans, RecorderTilesWithGapFill) {
  obs::SpanRecorder rec;
  rec.set_on(true);
  rec.begin_trial(3);
  rec.on_exchange(5.0, 9.0, 0, 16, 64);  // compute [0,5) gap-filled
  rec.on_barrier(9.0, 10.0, 0);          // adjacent: no gap span
  rec.on_exchange(12.0, 20.0, 1, 8, 32); // compute [10,12) gap-filled

  const auto spans = rec.tiled(25.0, 1);  // trailing compute [20,25)
  ASSERT_EQ(spans.size(), 6u);
  const obs::SpanKind kinds[] = {
      obs::SpanKind::Compute, obs::SpanKind::Communicate, obs::SpanKind::Barrier,
      obs::SpanKind::Compute, obs::SpanKind::Communicate, obs::SpanKind::Compute};
  double sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].kind, kinds[i]) << i;
    EXPECT_EQ(spans[i].trial, 3) << i;
    sum += spans[i].duration;
    if (i > 0) {
      EXPECT_DOUBLE_EQ(spans[i].start,
                       spans[i - 1].start + spans[i - 1].duration);
    }
  }
  EXPECT_DOUBLE_EQ(sum, 25.0);
  EXPECT_EQ(spans[1].messages, 16u);
  EXPECT_EQ(spans[1].bytes, 64u);
  EXPECT_EQ(spans[3].superstep, 1);  // the gap belongs to the next superstep
}

TEST(ObsSpans, TiledAddsNothingWhenFlush) {
  obs::SpanRecorder rec;
  rec.set_on(true);
  rec.begin_trial(0);
  rec.on_barrier(0.0, 4.0, 0);
  EXPECT_EQ(rec.tiled(4.0, 0).size(), 1u);
}

TEST(ObsSpans, OffRecordsNothing) {
  obs::SpanRecorder rec;
  rec.begin_trial(0);
  rec.on_exchange(0.0, 5.0, 0, 1, 4);
  EXPECT_TRUE(rec.spans().empty());
}

TEST(ObsSpans, KindNames) {
  EXPECT_EQ(obs::to_string(obs::SpanKind::Compute), "compute");
  EXPECT_EQ(obs::to_string(obs::SpanKind::Communicate), "communicate");
  EXPECT_EQ(obs::to_string(obs::SpanKind::Barrier), "barrier");
}

// -------------------------------------------------------------- golden trace

/// The fixed two-superstep workload the golden tests replay on every
/// machine: 5 µs of work on processor 0, a full bit-flip exchange, a
/// barrier; then 3 µs everywhere, the same exchange, a barrier.
void run_golden_workload(machines::Machine& m, int bytes) {
  const auto pat = net::patterns::bit_flip(m.procs(), 0, 1, bytes);
  m.charge(0, 5.0);
  m.exchange(pat);
  m.barrier();
  m.charge_all(3.0);
  m.exchange(pat);
  m.barrier();
}

void expect_golden(machines::Machine& m, int bytes) {
  m.set_observing(true);
  run_golden_workload(m, bytes);

  const std::uint64_t msgs = static_cast<std::uint64_t>(m.procs());
  const auto& b = obs::builtin();
  EXPECT_EQ(m.metrics().value(b.exchanges), 2u) << m.name();
  EXPECT_EQ(m.metrics().value(b.packets), 2 * msgs) << m.name();
  EXPECT_EQ(m.metrics().value(b.bytes), 2 * msgs * static_cast<std::uint64_t>(bytes))
      << m.name();
  EXPECT_EQ(m.metrics().value(b.barriers), 2u) << m.name();
  EXPECT_EQ(m.metrics().histogram(b.barrier_skew_us).count, 2u) << m.name();

  // Exact span sequence: [compute, exchange, barrier] twice, the first
  // triple labelled superstep 0 and the second superstep 1.
  const auto spans = m.spans().tiled(m.now(), m.superstep());
  ASSERT_EQ(spans.size(), 6u) << m.name();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto want = i % 3 == 0   ? obs::SpanKind::Compute
                      : i % 3 == 1 ? obs::SpanKind::Communicate
                                   : obs::SpanKind::Barrier;
    EXPECT_EQ(spans[i].kind, want) << m.name() << " span " << i;
    EXPECT_EQ(spans[i].superstep, static_cast<long>(i / 3))
        << m.name() << " span " << i;
    sum += spans[i].duration;
  }
  // The tiling invariant: span durations sum to the total simulated time.
  EXPECT_DOUBLE_EQ(sum, m.now()) << m.name();
  EXPECT_DOUBLE_EQ(spans[0].duration, 5.0) << m.name();
  EXPECT_EQ(spans[1].messages, msgs) << m.name();
  EXPECT_EQ(spans[1].bytes, msgs * static_cast<std::uint64_t>(bytes)) << m.name();
}

TEST(ObsGolden, MasPar) {
  auto m = test::small_maspar(41);
  expect_golden(*m, 4);
  // The delta network reports its wave totals (one wave minimum per step).
  EXPECT_GE(m->metrics().value(obs::builtin().delta_waves), 2u);
  EXPECT_EQ(m->metrics().histogram(obs::builtin().delta_waves_per_exchange).count,
            2u);
}

TEST(ObsGolden, GCel) {
  auto m = test::small_gcel(41);
  expect_golden(*m, 4);
}

TEST(ObsGolden, CM5) {
  auto m = test::small_cm5(41);
  expect_golden(*m, 8);
  // Every ejection port took at least one message.
  EXPECT_GE(m->metrics().value(obs::builtin().fat_tree_port_queue_peak), 1u);
}

TEST(ObsGolden, ReplayIsByteIdentical) {
  auto a = test::small_gcel(17);
  auto b = test::small_gcel(17);
  a->set_observing(true);
  b->set_observing(true);
  run_golden_workload(*a, 4);
  run_golden_workload(*b, 4);
  EXPECT_EQ(obs::to_string(a->metrics().snapshot()),
            obs::to_string(b->metrics().snapshot()));
  EXPECT_EQ(a->spans().spans(), b->spans().spans());
}

// ------------------------------------------------- trial-transition hygiene

TEST(ObsReset, TrialTransitionStartsFromCleanTraceAndSpans) {
  auto m = test::small_cm5();
  m->set_observing(true);
  run_golden_workload(*m, 8);
  ASSERT_FALSE(m->spans().spans().empty());
  const long trial_before = m->spans().trial();

  m->reset();
  // The previous trial's spans must not leak into the new trial, and the
  // new timeline restarts at zero.
  EXPECT_TRUE(m->spans().spans().empty());
  EXPECT_EQ(m->spans().trial(), trial_before + 1);
  // Metrics are cumulative across trials by design — they aggregate a whole
  // cell — but the clocks restart.
  EXPECT_DOUBLE_EQ(m->now(), 0.0);
  run_golden_workload(*m, 8);
  EXPECT_DOUBLE_EQ(m->spans().spans().front().start, 0.0);
  EXPECT_DOUBLE_EQ(m->spans().spans().front().duration, 5.0);
}

// ----------------------------------------------------------------- exporters

std::vector<obs::Span> sample_spans() {
  obs::SpanRecorder rec;
  rec.set_on(true);
  rec.begin_trial(0);
  rec.on_exchange(2.5, 7.25, 0, 3, 24);
  rec.on_barrier(7.25, 9.0, 0);
  return rec.tiled(11.0, 1);
}

TEST(ObsExport, ChromeTraceIsDeterministicValidJson) {
  const auto spans = sample_spans();
  std::ostringstream a, b;
  obs::write_chrome_trace(a, "Test Machine", spans);
  obs::write_chrome_trace(b, "Test Machine", spans);
  const std::string out = a.str();
  EXPECT_EQ(out, b.str());
  EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("Test Machine"), std::string::npos);
  EXPECT_NE(out.find("\"superstep\""), std::string::npos);
  // Braces and brackets balance — the cheap well-formedness check.
  long brace = 0, bracket = 0;
  for (const char c : out) {
    brace += c == '{' ? 1 : c == '}' ? -1 : 0;
    bracket += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(brace, 0L);
  }
  EXPECT_EQ(brace, 0L);
  EXPECT_EQ(bracket, 0L);
}

TEST(ObsExport, SpansCsvRoundTrips) {
  const auto spans = sample_spans();
  const auto csv = obs::spans_csv(spans);
  std::ostringstream os;
  csv.write_stream(os);
  const auto rows = report::Csv::parse(os.str());
  ASSERT_EQ(rows.size(), spans.size() + 1);  // header + one row per span
  EXPECT_EQ(rows[0][2], "phase");
  EXPECT_EQ(rows[2][2], "communicate");  // [compute, communicate, barrier, ...]
  EXPECT_EQ(rows[2][5], "3");
  EXPECT_EQ(rows[2][6], "24");
}

TEST(ObsExport, MetricsToStringIsStable) {
  const auto id = obs::register_metric("test.str", obs::MetricKind::Counter);
  obs::Metrics m;
  m.set_on(true);
  m.add(id, 42);
  const auto s = obs::to_string(m.snapshot());
  EXPECT_NE(s.find("test.str"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(s, obs::to_string(m.snapshot()));
}

// ------------------------------------------------------------ exec contract

exec::SweepSpec obs_sweep_spec(int jobs) {
  exec::SweepSpec spec;
  spec.experiment = "obs-test-sweep";
  spec.x_label = "h";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 16,
                  .seed = 515};
  spec.xs = {1, 2, 4};
  spec.trials = 2;
  spec.jobs = jobs;
  spec.measure = [](exec::TrialContext& ctx) {
    const auto pat = net::patterns::bit_flip(ctx.machine.procs(), 0,
                                             static_cast<int>(ctx.x), 8);
    ctx.machine.exchange(pat);
    ctx.machine.barrier();
    return ctx.machine.now();
  };
  return spec;
}

TEST(ObsSweep, MetricsByteIdenticalAcrossJobs) {
  const auto guard = obs_on();
  const auto serial = exec::run_sweep(obs_sweep_spec(1));
  const auto parallel = exec::run_sweep(obs_sweep_spec(4));
  ASSERT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.metrics.cells, 6u);
  EXPECT_EQ(serial.metrics.cells, parallel.metrics.cells);
  EXPECT_EQ(obs::to_string(serial.metrics.totals),
            obs::to_string(parallel.metrics.totals));
  EXPECT_EQ(serial.metrics, parallel.metrics);
  // Six cells of x in {1,2,4}, two trials each: 2*(1+2+4)*16 packets.
  EXPECT_EQ(serial.metrics.totals.find("machine.packets")->value,
            2u * 7u * 16u);
  EXPECT_EQ(serial.metrics.totals.find("machine.exchanges")->value, 6u);
}

TEST(ObsSweep, ObservingDoesNotPerturbMeasurements) {
  // The same sweep with the plane off: identical measured times, no metrics.
  auto off = exec::run_sweep(obs_sweep_spec(2));
  ASSERT_TRUE(off.metrics.empty());
  const auto guard = obs_on();
  const auto on = exec::run_sweep(obs_sweep_spec(2));
  ASSERT_EQ(off.series.points.size(), on.series.points.size());
  for (std::size_t i = 0; i < off.series.points.size(); ++i) {
    EXPECT_EQ(off.series.points[i].measured.mean,
              on.series.points[i].measured.mean);
  }
}

TEST(ObsSweep, AuditAndRacePlanesDoNotPerturbMetrics) {
  const auto guard = obs_on();
  const auto plain = exec::run_sweep(obs_sweep_spec(2));

  const test::FlagGuard audit_guard{&audit::set_enabled, &audit::enabled,
                                    true};
  const test::FlagGuard race_guard{&race::set_enabled, &race::enabled, true};
  const auto checked = exec::run_sweep(obs_sweep_spec(2));
  EXPECT_EQ(obs::to_string(plain.metrics.totals),
            obs::to_string(checked.metrics.totals));
  for (std::size_t i = 0; i < plain.series.points.size(); ++i) {
    EXPECT_EQ(plain.series.points[i].measured.mean,
              checked.series.points[i].measured.mean);
  }
}

TEST(ObsSweep, TraceOutWritesChromeJsonForLargestCell) {
  const test::ScopedTempPath trace("obs-test-trace");
  const std::string& path = trace.path();
  auto spec = obs_sweep_spec(2);
  spec.trace_out = path;  // forces observability for the traced cell only
  const auto r = exec::run_sweep(spec);
  EXPECT_TRUE(r.ok());
  // --trace-out alone captures one cell; the global plane stayed off, so
  // only that cell contributed a snapshot.
  EXPECT_EQ(r.metrics.cells, 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string out = buf.str();
  EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("Parsytec GCel"), std::string::npos);
}

}  // namespace
}  // namespace pcm
