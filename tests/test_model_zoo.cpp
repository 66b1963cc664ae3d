#include "eval/model_zoo.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "temp_dir.h"
#include "tensor/ops.h"

namespace apds {
namespace {

// Tiny configuration so zoo tests stay fast: 2 hidden layers of 16 units,
// small datasets, 2 epochs.
ZooConfig tiny_config(const std::string& cache_dir) {
  ZooConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.hidden_dim = 16;
  cfg.hidden_layers = 2;
  cfg.n_train = 150;
  cfg.n_val = 40;
  cfg.n_test = 40;
  cfg.train.epochs = 2;
  cfg.train.batch_size = 32;
  return cfg;
}

class ModelZooTest : public ::testing::Test {
 protected:
  const TempDir dir_{"apds_zoo_test"};
};

TEST_F(ModelZooTest, DataShapesAreConsistent) {
  ModelZoo zoo(tiny_config(dir_.str()));
  for (TaskId task : all_tasks()) {
    const TaskData& td = zoo.data(task);
    EXPECT_EQ(td.x_train.rows(), td.y_train.rows());
    EXPECT_EQ(td.x_val.rows(), td.y_val.rows());
    EXPECT_EQ(td.x_test.rows(), td.y_test.rows());
    EXPECT_GT(td.x_train.rows(), 0u);
    EXPECT_GT(td.x_test.rows(), 0u);
    EXPECT_EQ(td.kind, task_kind(task));
    if (td.kind == TaskKind::kRegression) {
      EXPECT_TRUE(td.y_test_natural.same_shape(td.y_test));
      EXPECT_TRUE(td.y_scaler.fitted());
    } else {
      EXPECT_EQ(td.test_labels.size(), td.x_test.rows());
    }
  }
}

TEST_F(ModelZooTest, TaskDimensionsMatchPaper) {
  ModelZoo zoo(tiny_config(dir_.str()));
  EXPECT_EQ(zoo.data(TaskId::kBpest).x_test.cols(), 250u);
  EXPECT_EQ(zoo.data(TaskId::kBpest).output_dim, 250u);
  EXPECT_EQ(zoo.data(TaskId::kNyCommute).x_test.cols(), 5u);
  EXPECT_EQ(zoo.data(TaskId::kNyCommute).output_dim, 1u);
  EXPECT_EQ(zoo.data(TaskId::kGasSen).x_test.cols(), 16u);
  EXPECT_EQ(zoo.data(TaskId::kGasSen).output_dim, 2u);
  EXPECT_EQ(zoo.data(TaskId::kHhar).output_dim, 6u);
}

TEST_F(ModelZooTest, TrainsAndCachesModels) {
  ModelZoo zoo(tiny_config(dir_.str()));
  const Mlp& m = zoo.dropout_model(TaskId::kGasSen, Activation::kRelu);
  EXPECT_EQ(m.input_dim(), 16u);
  EXPECT_EQ(m.output_dim(), 2u);
  EXPECT_EQ(m.num_layers(), 3u);  // 2 hidden + output
  EXPECT_TRUE(std::filesystem::exists(
      dir_.file("gassen_relu_dropout.apds")));
}

TEST_F(ModelZooTest, SecondZooLoadsIdenticalModelFromCache) {
  Matrix before;
  {
    ModelZoo zoo(tiny_config(dir_.str()));
    const Mlp& m = zoo.dropout_model(TaskId::kGasSen, Activation::kTanh);
    before = m.forward_deterministic(zoo.data(TaskId::kGasSen).x_test);
  }
  ModelZoo zoo2(tiny_config(dir_.str()));
  const Mlp& m2 = zoo2.dropout_model(TaskId::kGasSen, Activation::kTanh);
  const Matrix after =
      m2.forward_deterministic(zoo2.data(TaskId::kGasSen).x_test);
  EXPECT_LT(max_abs_diff(before, after), 1e-15);
}

TEST_F(ModelZooTest, RdeepsenseRegressionHasDoubledHead) {
  ModelZoo zoo(tiny_config(dir_.str()));
  const Mlp& m = zoo.rdeepsense_model(TaskId::kGasSen, Activation::kRelu);
  EXPECT_EQ(m.output_dim(), 4u);  // 2 outputs x (mu, s)
}

TEST_F(ModelZooTest, RdeepsenseClassificationKeepsLogitHead) {
  ModelZoo zoo(tiny_config(dir_.str()));
  const Mlp& m = zoo.rdeepsense_model(TaskId::kHhar, Activation::kRelu);
  EXPECT_EQ(m.output_dim(), 6u);
}

TEST_F(ModelZooTest, DatasetsAreDeterministicPerSeed) {
  ModelZoo a(tiny_config(dir_.file("a")));
  ModelZoo b(tiny_config(dir_.file("b")));
  EXPECT_EQ(a.data(TaskId::kNyCommute).x_test,
            b.data(TaskId::kNyCommute).x_test);
}

TEST_F(ModelZooTest, HiddenLayersUseDropout) {
  ModelZoo zoo(tiny_config(dir_.str()));
  const Mlp& m = zoo.dropout_model(TaskId::kNyCommute, Activation::kRelu);
  EXPECT_EQ(m.layer(0).keep_prob, 1.0);
  for (std::size_t l = 1; l < m.num_layers(); ++l)
    EXPECT_NEAR(m.layer(l).keep_prob, 0.9, 1e-12);
}

}  // namespace
}  // namespace apds
