#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "core/arena.h"
#include "obs/flight_recorder.h"
#include "temp_dir.h"

namespace apds {
namespace {

ZooConfig tiny_config(const std::string& cache_dir) {
  ZooConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.hidden_dim = 16;
  cfg.hidden_layers = 2;
  cfg.n_train = 150;
  cfg.n_val = 40;
  cfg.n_test = 30;
  cfg.train.epochs = 2;
  return cfg;
}

ExperimentOptions fast_options() {
  ExperimentOptions opt;
  opt.mcdrop_ks = {3, 5};
  opt.measure_host = false;
  return opt;
}

class ExperimentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    zoo_ = std::make_unique<ModelZoo>(tiny_config(dir_.str()));
  }
  const TempDir dir_{"apds_exp_test"};
  std::unique_ptr<ModelZoo> zoo_;
};

TEST_F(ExperimentTest, RegressionTableHasExpectedRows) {
  const auto rows = run_model_perf(*zoo_, TaskId::kGasSen, fast_options());
  // 2 activations x (ApDeepSense + 2 MCDrop + RDeepSense) = 8 rows.
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0].config, "DNN-ReLU-ApDeepSense");
  EXPECT_EQ(rows[1].config, "DNN-ReLU-MCDrop-3");
  EXPECT_EQ(rows[3].config, "DNN-ReLU-RDeepSense");
  EXPECT_EQ(rows[4].config, "DNN-Tanh-ApDeepSense");
  for (const auto& r : rows) {
    EXPECT_TRUE(std::isfinite(r.primary)) << r.config;
    EXPECT_TRUE(std::isfinite(r.nll)) << r.config;
    EXPECT_GT(r.primary, 0.0) << r.config;  // MAE in ppm
  }
}

TEST_F(ExperimentTest, ClassificationTableReportsAccuracy) {
  const auto rows = run_model_perf(*zoo_, TaskId::kHhar, fast_options());
  ASSERT_EQ(rows.size(), 8u);
  for (const auto& r : rows) {
    EXPECT_GE(r.primary, 0.0) << r.config;    // percent
    EXPECT_LE(r.primary, 100.0) << r.config;
    EXPECT_TRUE(std::isfinite(r.nll)) << r.config;
  }
}

TEST_F(ExperimentTest, SystemTableCoversAllConfigs) {
  const auto rows = run_system_perf(*zoo_, TaskId::kGasSen, fast_options());
  ASSERT_EQ(rows.size(), 6u);  // 2 acts x (ApDeepSense + 2 MCDrop)
  for (const auto& r : rows) {
    EXPECT_GT(r.flops, 0.0);
    EXPECT_GT(r.edison_ms, 0.0);
    EXPECT_GT(r.edison_mj, 0.0);
    EXPECT_EQ(r.host_ms, 0.0);  // measure_host = false
  }
}

TEST_F(ExperimentTest, ApdIsCheaperThanBigKMcdrop) {
  // On the tiny 16-wide test network the analytic activation moments are a
  // large fraction of total cost, so ApDeepSense only has to beat MCDrop at
  // realistic k (the 512-wide paper shape is asserted in test_cost_model).
  ExperimentOptions opt = fast_options();
  opt.mcdrop_ks = {10, 50};
  const auto rows = run_system_perf(*zoo_, TaskId::kGasSen, opt);
  double apd_relu = 0.0;
  for (const auto& r : rows)
    if (r.config == "DNN-ReLU-ApDeepSense") apd_relu = r.edison_mj;
  ASSERT_GT(apd_relu, 0.0);
  for (const auto& r : rows) {
    if (r.config.find("ReLU-MCDrop") != std::string::npos) {
      EXPECT_GT(r.edison_mj, apd_relu) << r.config;
    }
  }
}

TEST_F(ExperimentTest, HostMeasurementsPopulateWhenRequested) {
  ExperimentOptions opt = fast_options();
  opt.mcdrop_ks = {3};
  opt.measure_host = true;
  const auto rows = run_system_perf(*zoo_, TaskId::kNyCommute, opt);
  for (const auto& r : rows) EXPECT_GT(r.host_ms, 0.0) << r.config;
}

TEST_F(ExperimentTest, HostServingRunsOnTheEstimatorSession) {
  // The serving loop propagates through the ApdEstimator's own session, so
  // each activation builds exactly one InferenceSession. Every session
  // takes one owner id, so the ids consumed across the call count them.
  ExperimentOptions opt = fast_options();
  opt.mcdrop_ks = {3};
  opt.measure_host = true;
  (void)run_system_perf(*zoo_, TaskId::kNyCommute, opt);  // warm the zoo

  obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  flight.clear();
  const std::uint64_t first = new_arena_owner_id();
  const auto rows = run_system_perf(*zoo_, TaskId::kNyCommute, opt);
  const std::uint64_t last = new_arena_owner_id();
  EXPECT_EQ(last - first - 1, 2u);  // one session per activation
  EXPECT_EQ(rows.size(), 4u);  // 2 acts x (ApDeepSense + MCDrop-3)

  // 20 served requests per activation, each attributed to one of the
  // sessions built inside the call.
  const std::vector<obs::RequestRecord> records = flight.snapshot();
  EXPECT_EQ(records.size(), 40u);
  std::set<std::uint64_t> sessions;
  for (const obs::RequestRecord& r : records) {
    EXPECT_GT(r.session, first);
    EXPECT_LT(r.session, last);
    sessions.insert(r.session);
  }
  EXPECT_EQ(sessions.size(), 2u);
}

TEST_F(ExperimentTest, TradeoffJoinsEnergyAndNll) {
  const auto series = run_tradeoff(*zoo_, TaskId::kGasSen, fast_options());
  ASSERT_EQ(series.size(), 2u);
  for (const auto& s : series) {
    // ApDeepSense + 2 MCDrop points (RDeepSense excluded by design).
    ASSERT_EQ(s.points.size(), 3u);
    for (const auto& p : s.points) {
      EXPECT_GT(p.energy_mj, 0.0);
      EXPECT_TRUE(std::isfinite(p.nll));
      EXPECT_EQ(p.config.find("RDeepSense"), std::string::npos);
    }
  }
}

TEST_F(ExperimentTest, SavingsMatchCostModelShape) {
  const Savings s = apdeepsense_savings(*zoo_, TaskId::kGasSen,
                                        Activation::kRelu,
                                        ExperimentOptions{});
  // Tiny 16-wide test networks understate the savings; the paper-size
  // >=90% figure is covered by test_cost_model on 512-wide networks.
  EXPECT_GT(s.time_fraction, 0.6);
  EXPECT_LT(s.time_fraction, 1.0);
  EXPECT_EQ(s.time_fraction, s.energy_fraction);
  const Savings t = apdeepsense_savings(*zoo_, TaskId::kGasSen,
                                        Activation::kTanh,
                                        ExperimentOptions{});
  EXPECT_LT(t.time_fraction, s.time_fraction);
}

TEST_F(ExperimentTest, PrintersProduceNonEmptyTables) {
  const auto rows = run_model_perf(*zoo_, TaskId::kGasSen, fast_options());
  std::ostringstream os;
  print_model_perf(os, TaskId::kGasSen, rows, TaskKind::kRegression);
  EXPECT_NE(os.str().find("MAE"), std::string::npos);
  EXPECT_NE(os.str().find("DNN-ReLU-ApDeepSense"), std::string::npos);

  const auto sys = run_system_perf(*zoo_, TaskId::kGasSen, fast_options());
  std::ostringstream os2;
  print_system_perf(os2, TaskId::kGasSen, sys);
  EXPECT_NE(os2.str().find("Edison"), std::string::npos);

  const auto tr = run_tradeoff(*zoo_, TaskId::kGasSen, fast_options());
  std::ostringstream os3;
  print_tradeoff(os3, TaskId::kGasSen, tr);
  EXPECT_NE(os3.str().find("NLL"), std::string::npos);
}

}  // namespace
}  // namespace apds
