#include "nn/model_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/rng.h"
#include "temp_dir.h"
#include "tensor/ops.h"

namespace apds {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return dir_.file(name); }

  const TempDir dir_{"apds_model_io_test"};
};

Mlp make_model(Rng& rng) {
  MlpSpec spec;
  spec.dims = {4, 6, 3};
  spec.hidden_act = Activation::kTanh;
  spec.hidden_keep_prob = 0.85;
  return Mlp::make(spec, rng);
}

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
  Rng rng(1);
  const Mlp original = make_model(rng);
  save_model(original, path("m.apds"));
  const Mlp loaded = load_model(path("m.apds"));

  ASSERT_EQ(loaded.num_layers(), original.num_layers());
  for (std::size_t l = 0; l < original.num_layers(); ++l) {
    EXPECT_EQ(loaded.layer(l).act, original.layer(l).act);
    EXPECT_EQ(loaded.layer(l).keep_prob, original.layer(l).keep_prob);
    EXPECT_EQ(loaded.layer(l).weight, original.layer(l).weight);
    EXPECT_EQ(loaded.layer(l).bias, original.layer(l).bias);
  }

  // Behavioral equality.
  Matrix x(3, 4);
  for (double& v : x.flat()) v = rng.normal();
  EXPECT_LT(max_abs_diff(loaded.forward_deterministic(x),
                         original.forward_deterministic(x)),
            1e-15);
}

TEST_F(ModelIoTest, MissingFileThrows) {
  EXPECT_THROW(load_model(path("missing.apds")), IoError);
}

TEST_F(ModelIoTest, WrongMagicRejected) {
  std::ofstream os(path("junk.apds"), std::ios::binary);
  os << "NOTAMODELFILE_____________";
  os.close();
  EXPECT_THROW(load_model(path("junk.apds")), IoError);
  EXPECT_FALSE(is_model_file(path("junk.apds")));
}

TEST_F(ModelIoTest, TruncatedFileThrows) {
  Rng rng(2);
  save_model(make_model(rng), path("full.apds"));
  // Copy all but the last 100 bytes.
  std::ifstream in(path("full.apds"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  data.resize(data.size() - 100);
  std::ofstream out(path("trunc.apds"), std::ios::binary);
  out << data;
  out.close();
  EXPECT_THROW(load_model(path("trunc.apds")), IoError);
}

TEST_F(ModelIoTest, IsModelFileRecognizesGoodFiles) {
  Rng rng(3);
  save_model(make_model(rng), path("good.apds"));
  EXPECT_TRUE(is_model_file(path("good.apds")));
  EXPECT_FALSE(is_model_file(path("nope.apds")));
}

TEST_F(ModelIoTest, OverwriteReplacesOldModel) {
  Rng rng(4);
  const Mlp first = make_model(rng);
  Mlp second = make_model(rng);
  second.mutable_layer(0).weight(0, 0) = 123.0;
  save_model(first, path("m.apds"));
  save_model(second, path("m.apds"));
  const Mlp loaded = load_model(path("m.apds"));
  EXPECT_EQ(loaded.layer(0).weight(0, 0), 123.0);
}

// Saves `m` (save_model writes whatever it is given, so this is the file a
// corrupted write would leave) and expects load_model to reject it with an
// IoError whose message contains `expect`.
void expect_load_rejects(const Mlp& m, const std::string& file,
                         const std::string& expect) {
  save_model(m, file);
  try {
    (void)load_model(file);
    ADD_FAILURE() << "load_model accepted " << file;
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << e.what();
  }
}

TEST_F(ModelIoTest, KeepProbOutsideUnitIntervalRejected) {
  Rng rng(5);
  Mlp m = make_model(rng);
  m.mutable_layer(1).keep_prob = 2.0;
  expect_load_rejects(m, path("kp2.apds"), "layer 1 keep_prob");
  m.mutable_layer(1).keep_prob = 0.0;
  expect_load_rejects(m, path("kp0.apds"), "layer 1 keep_prob");
  m.mutable_layer(1).keep_prob = std::nan("");
  expect_load_rejects(m, path("kpnan.apds"), "layer 1 keep_prob");
  m.mutable_layer(1).keep_prob = 1.0;  // the boundary is allowed
  save_model(m, path("kp1.apds"));
  EXPECT_EQ(load_model(path("kp1.apds")).layer(1).keep_prob, 1.0);
}

TEST_F(ModelIoTest, NonFiniteParametersRejected) {
  Rng rng(6);
  Mlp m = make_model(rng);
  m.mutable_layer(1).weight(2, 1) = std::nan("");
  expect_load_rejects(m, path("nan_w.apds"), "layer 1 has a non-finite weight");

  Mlp b = make_model(rng);
  b.mutable_layer(0).bias(0, 3) = std::numeric_limits<double>::infinity();
  expect_load_rejects(b, path("inf_b.apds"), "layer 0 has a non-finite bias");
}

}  // namespace
}  // namespace apds
