#include "conv/conv_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "temp_dir.h"
#include "tensor/ops.h"

namespace apds {
namespace {

class ConvIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& n) const { return dir_.file(n); }
  const TempDir dir_{"apds_conv_io_test"};
};

ConvNet make_net(Rng& rng) {
  std::vector<Conv1dLayer> convs;
  convs.push_back(make_conv1d(3, 2, 4, 1, Activation::kRelu, 0.9, rng));
  convs.push_back(make_conv1d(2, 4, 3, 2, Activation::kTanh, 0.8, rng));
  // len 10 -> 8 -> 4 steps x 3 = 12 features.
  MlpSpec head;
  head.dims = {12, 6, 2};
  head.hidden_keep_prob = 0.85;
  return ConvNet(10, 2, std::move(convs), Mlp::make(head, rng));
}

TEST_F(ConvIoTest, RoundTripPreservesBehavior) {
  Rng rng(1);
  const ConvNet original = make_net(rng);
  save_conv_net(original, path("net.apdscnv"));
  const ConvNet loaded = load_conv_net(path("net.apdscnv"));

  EXPECT_EQ(loaded.input_len(), 10u);
  EXPECT_EQ(loaded.input_channels(), 2u);
  EXPECT_EQ(loaded.num_conv_layers(), 2u);
  EXPECT_EQ(loaded.conv(1).act, Activation::kTanh);
  EXPECT_EQ(loaded.conv(1).stride, 2u);
  EXPECT_EQ(loaded.conv(0).weight, original.conv(0).weight);

  Matrix x(3, 20);
  for (double& v : x.flat()) v = rng.normal();
  EXPECT_LT(max_abs_diff(loaded.forward_deterministic(x),
                         original.forward_deterministic(x)),
            1e-15);
}

TEST_F(ConvIoTest, MagicDistinguishesFormats) {
  Rng rng(2);
  save_conv_net(make_net(rng), path("net.apdscnv"));
  EXPECT_TRUE(is_conv_net_file(path("net.apdscnv")));
  std::ofstream os(path("junk.bin"), std::ios::binary);
  os << "APDS0001 but actually not a conv net";
  os.close();
  EXPECT_FALSE(is_conv_net_file(path("junk.bin")));
  EXPECT_THROW(load_conv_net(path("junk.bin")), IoError);
}

TEST_F(ConvIoTest, MissingAndTruncatedFilesThrow) {
  EXPECT_THROW(load_conv_net(path("missing")), IoError);
  Rng rng(3);
  save_conv_net(make_net(rng), path("full.apdscnv"));
  std::ifstream in(path("full.apdscnv"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  data.resize(data.size() / 2);
  std::ofstream out(path("half.apdscnv"), std::ios::binary);
  out << data;
  out.close();
  EXPECT_THROW(load_conv_net(path("half.apdscnv")), IoError);
}

// Saves `net` (save_conv_net writes whatever it is given, as a corrupted
// write would leave it) and expects load_conv_net to reject the file with
// an IoError whose message contains `expect`.
void expect_load_rejects(const ConvNet& net, const std::string& file,
                         const std::string& expect) {
  save_conv_net(net, file);
  try {
    (void)load_conv_net(file);
    ADD_FAILURE() << "load_conv_net accepted " << file;
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << e.what();
  }
}

/// make_net's layers with one edit applied before the net is assembled.
template <typename Edit>
ConvNet edited_net(std::uint64_t seed, Edit&& edit) {
  Rng rng(seed);
  const ConvNet net = make_net(rng);
  std::vector<Conv1dLayer> convs{net.conv(0), net.conv(1)};
  Mlp head = net.head();
  edit(convs, head);
  return ConvNet(net.input_len(), net.input_channels(), std::move(convs),
                 std::move(head));
}

TEST_F(ConvIoTest, HeadKeepProbOutsideUnitIntervalRejected) {
  for (const double keep : {2.0, 0.0, std::nan("")}) {
    SCOPED_TRACE(keep);
    const ConvNet net = edited_net(4, [&](auto&, Mlp& head) {
      head.mutable_layer(1).keep_prob = keep;
    });
    expect_load_rejects(net, path("kp.apdscnv"), "head layer 1 keep_prob");
  }
  const ConvNet boundary = edited_net(4, [](auto&, Mlp& head) {
    head.mutable_layer(1).keep_prob = 1.0;
  });
  save_conv_net(boundary, path("kp1.apdscnv"));
  EXPECT_EQ(load_conv_net(path("kp1.apdscnv")).head().layer(1).keep_prob,
            1.0);
}

TEST_F(ConvIoTest, ChannelKeepProbOutsideUnitIntervalRejected) {
  // ConvNet's constructor already refuses such a layer, so the corrupt
  // value is patched into a saved file: make_net's conv layer 1 keeps 0.8,
  // and those eight bytes occur once in the file.
  Rng rng(9);
  save_conv_net(make_net(rng), path("good.apdscnv"));
  std::ifstream in(path("good.apdscnv"), std::ios::binary);
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const double original = 0.8;
  const std::string needle(reinterpret_cast<const char*>(&original),
                           sizeof(original));
  const std::size_t at = good.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(good.find(needle, at + 1), std::string::npos);
  for (const double keep : {2.0, 0.0, -0.5, std::nan("")}) {
    SCOPED_TRACE(keep);
    std::string bad = good;
    bad.replace(at, sizeof(keep), reinterpret_cast<const char*>(&keep),
                sizeof(keep));
    std::ofstream out(path("ckp.apdscnv"), std::ios::binary);
    out << bad;
    out.close();
    try {
      (void)load_conv_net(path("ckp.apdscnv"));
      ADD_FAILURE() << "load_conv_net accepted channel_keep_prob " << keep;
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("conv layer 1 channel_keep_prob"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ConvIoTest, NonFiniteParametersRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_load_rejects(
      edited_net(5, [](std::vector<Conv1dLayer>& convs, Mlp&) {
        convs[1].weight(2, 1) = std::nan("");
      }),
      path("nan_cw.apdscnv"), "conv layer 1 has a non-finite weight");
  expect_load_rejects(
      edited_net(6, [&](std::vector<Conv1dLayer>& convs, Mlp&) {
        convs[0].bias(0, 2) = -inf;
      }),
      path("inf_cb.apdscnv"), "conv layer 0 has a non-finite bias");
  expect_load_rejects(edited_net(7, [&](auto&, Mlp& head) {
                        head.mutable_layer(0).weight(3, 1) = inf;
                      }),
                      path("inf_hw.apdscnv"),
                      "head layer 0 has a non-finite weight");
  expect_load_rejects(edited_net(8, [](auto&, Mlp& head) {
                        head.mutable_layer(1).bias(0, 0) = std::nan("");
                      }),
                      path("nan_hb.apdscnv"),
                      "head layer 1 has a non-finite bias");
}

}  // namespace
}  // namespace apds
