#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/registry.hpp"
#include "core/series.hpp"
#include "core/validation.hpp"
#include "report/ascii_plot.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "test_util.hpp"

namespace pcm::core {
namespace {

ValidationSeries sample_series() {
  ValidationSeries s;
  s.experiment = "test-exp";
  s.x_label = "N";
  s.y_label = "time (ms)";
  for (double x : {1.0, 2.0, 3.0}) {
    MeasuredPoint p;
    p.x = x;
    p.measured.mean = 100.0 * x;
    p.measured.min = 90.0 * x;
    p.measured.max = 110.0 * x;
    p.measured.n = 3;
    s.points.push_back(p);
  }
  s.predictions.push_back({"BSP", {120.0, 220.0, 330.0}});
  s.predictions.push_back({"E-BSP", {101.0, 202.0, 303.0}});
  return s;
}

TEST(Series, AccessorsWork) {
  const auto s = sample_series();
  EXPECT_EQ(s.xs(), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(s.measured_means(), (std::vector<double>{100, 200, 300}));
  ASSERT_NE(s.prediction("BSP"), nullptr);
  EXPECT_EQ(s.prediction("BSP")->ys[0], 120.0);
  EXPECT_EQ(s.prediction("nope"), nullptr);
}

TEST(Validation, EvaluateComputesErrors) {
  const auto s = sample_series();
  const auto e = evaluate(s, "BSP");
  EXPECT_NEAR(e.mean_abs_rel, (0.2 + 0.1 + 0.1) / 3.0, 1e-12);
  EXPECT_NEAR(e.max_abs_rel, 0.2, 1e-12);
  EXPECT_EQ(e.worst_x, 1.0);
  EXPECT_NEAR(e.signed_at_worst, 0.2, 1e-12);

  const auto e2 = evaluate(s, "E-BSP");
  EXPECT_NEAR(e2.mean_abs_rel, 0.01, 1e-12);
}

TEST(Validation, EvaluateAllCoversEveryModel) {
  const auto all = evaluate_all(sample_series());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].model, "BSP");
  EXPECT_EQ(all[1].model, "E-BSP");
}

TEST(Validation, PrintSeriesContainsEverything) {
  std::ostringstream os;
  print_series(os, sample_series());
  const std::string out = os.str();
  EXPECT_NE(out.find("BSP"), std::string::npos);
  EXPECT_NE(out.find("E-BSP"), std::string::npos);
  EXPECT_NE(out.find("100.0"), std::string::npos);
  EXPECT_NE(out.find("mean |rel err|"), std::string::npos);
}

TEST(Validation, PlotSeriesRendersGrid) {
  std::ostringstream os;
  plot_series(os, sample_series());
  const std::string out = os.str();
  EXPECT_NE(out.find("measured"), std::string::npos);
  EXPECT_NE(out.find("BSP (predicted)"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(Registry, CoversEveryTableAndFigure) {
  const auto all = experiments();
  EXPECT_GE(all.size(), 22u);  // table1 + 20 figures + micro (+ extensions)
  std::set<std::string> ids;
  for (const auto& e : all) ids.insert(e.id);
  EXPECT_EQ(ids.size(), all.size());
  EXPECT_TRUE(ids.count("table1"));
  for (int f = 1; f <= 20; ++f) {
    char id[8];
    std::snprintf(id, sizeof(id), "fig%02d", f);
    EXPECT_TRUE(ids.count(id)) << id;
  }
}

TEST(Registry, EntriesAreComplete) {
  for (const auto& e : experiments()) {
    EXPECT_FALSE(e.title.empty()) << e.id;
    EXPECT_FALSE(e.bench.empty()) << e.id;
    EXPECT_FALSE(e.headline.empty()) << e.id;
  }
}

TEST(Registry, FindWorks) {
  ASSERT_NE(find_experiment("fig12"), nullptr);
  EXPECT_EQ(find_experiment("fig12")->platform, "maspar");
  EXPECT_EQ(find_experiment("zzz"), nullptr);
}

TEST(Report, TableFormatting) {
  report::Table t({"a", "bbb"});
  t.add_row({"1", "2"});
  t.add_row({"10"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| bbb |"), std::string::npos);
  EXPECT_NE(out.find("| 10 |"), std::string::npos);
  EXPECT_EQ(report::Table::num(3.14159, 2), "3.14");
}

TEST(Report, CsvWritesToDir) {
  const test::ScopedTempPath dir("core-test-csv");
  std::filesystem::create_directory(dir.path());
  report::Csv csv({"x", "y"});
  csv.add_row(std::vector<double>{1.0, 2.0});
  EXPECT_FALSE(csv.write("", "nope"));
  EXPECT_TRUE(csv.write(dir.path(), "pcm_csv_test"));
  std::ifstream in(dir.path() + "/pcm_csv_test.csv");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST(Report, AsciiPlotHandlesEmptyAndFlatSeries) {
  std::ostringstream os;
  report::ascii_plot(os, {});
  EXPECT_TRUE(os.str().empty());
  report::PlotSeries flat{"flat", '*', {1, 2, 3}, {5, 5, 5}};
  report::ascii_plot(os, {flat});
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace pcm::core
