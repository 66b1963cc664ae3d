#include "core/piecewise_linear.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "stats/special.h"

namespace apds {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(PiecewiseLinear, IdentityIsExact) {
  const auto f = PiecewiseLinear::identity();
  EXPECT_EQ(f.num_pieces(), 1u);
  for (double x : {-10.0, 0.0, 3.5}) EXPECT_EQ(f.eval(x), x);
}

TEST(PiecewiseLinear, ReluIsExact) {
  const auto f = PiecewiseLinear::relu();
  EXPECT_EQ(f.num_pieces(), 2u);
  EXPECT_EQ(f.eval(-5.0), 0.0);
  EXPECT_EQ(f.eval(0.0), 0.0);
  EXPECT_EQ(f.eval(5.0), 5.0);
}

TEST(PiecewiseLinear, ValidationCatchesBadTilings) {
  // Gap between pieces.
  EXPECT_THROW(PiecewiseLinear({{-kInf, 0.0, 1.0, 0.0},
                                {1.0, kInf, 1.0, 0.0}}),
               InvalidArgument);
  // Does not start at -inf.
  EXPECT_THROW(PiecewiseLinear({{0.0, kInf, 1.0, 0.0}}), InvalidArgument);
  // Does not end at +inf.
  EXPECT_THROW(PiecewiseLinear({{-kInf, 0.0, 1.0, 0.0}}), InvalidArgument);
  // Empty piece.
  EXPECT_THROW(PiecewiseLinear({{-kInf, -kInf, 1.0, 0.0},
                                {-kInf, kInf, 1.0, 0.0}}),
               InvalidArgument);
  EXPECT_THROW(PiecewiseLinear({}), InvalidArgument);
}

TEST(PiecewiseLinear, SevenPieceTanhIsAccurate) {
  const auto f = PiecewiseLinear::tanh_default();
  EXPECT_EQ(f.num_pieces(), 7u);
  // The fit is Gaussian-weighted: tightest where pre-activations live.
  EXPECT_LT(f.max_error_against([](double x) { return std::tanh(x); }, -1.0,
                                1.0),
            0.03);
  EXPECT_LT(f.max_error_against([](double x) { return std::tanh(x); }, -6.0,
                                6.0),
            0.08);
}

TEST(PiecewiseLinear, TanhFitHasSmallJumps) {
  // Weighted LS pieces are not interpolating, so small discontinuities at
  // breakpoints are expected — but they must stay within the fit error.
  const auto f = PiecewiseLinear::fit_tanh(7);
  for (std::size_t i = 0; i + 1 < f.num_pieces(); ++i) {
    const double b = f.piece(i).hi;
    EXPECT_LT(std::fabs(f.piece(i).eval(b) - f.piece(i + 1).eval(b)), 0.06)
        << "jump at breakpoint " << b;
  }
}

TEST(PiecewiseLinear, TanhFitHasNearZeroMeanErrorNearOrigin) {
  // The property that keeps deep networks' means from drifting: the signed
  // error, averaged over a typical pre-activation distribution, is ~0.
  const auto f = PiecewiseLinear::fit_tanh(7);
  double signed_err = 0.0;
  double abs_err = 0.0;
  const int n = 2000;
  for (int i = 0; i <= n; ++i) {
    const double x = -1.5 + 3.0 * i / n;
    const double w = std::exp(-2.0 * x * x);
    signed_err += w * (f.eval(x) - std::tanh(x));
    abs_err += w * std::fabs(f.eval(x) - std::tanh(x));
  }
  EXPECT_LT(std::fabs(signed_err), 0.15 * abs_err + 1e-12);
}

TEST(PiecewiseLinear, TanhFitErrorDecreasesWithPieces) {
  auto err = [](std::size_t p) {
    return PiecewiseLinear::fit_tanh(p).max_error_against(
        [](double x) { return std::tanh(x); }, -2.0, 2.0);
  };
  EXPECT_GT(err(3), err(5));
  EXPECT_GT(err(5), err(9));
  EXPECT_GT(err(9), err(17));
  EXPECT_LT(err(17), 0.03);
}

TEST(PiecewiseLinear, TanhTailsAreConstantNearAsymptote) {
  const auto f = PiecewiseLinear::fit_tanh(7, 3.0);
  EXPECT_EQ(f.piece(0).k, 0.0);
  EXPECT_EQ(f.piece(f.num_pieces() - 1).k, 0.0);
  // Tail constants sit between f(range) and the asymptote.
  EXPECT_GT(f.eval(100.0), std::tanh(3.0));
  EXPECT_LT(f.eval(100.0), 1.0);
  EXPECT_LT(f.eval(-100.0), std::tanh(-3.0));
  EXPECT_GT(f.eval(-100.0), -1.0);
}

TEST(PiecewiseLinear, SigmoidFitIsAccurate) {
  const auto f = PiecewiseLinear::fit_sigmoid(7);
  const double err =
      f.max_error_against([](double x) { return sigmoid(x); }, -10.0, 10.0);
  EXPECT_LT(err, 0.05);
}

TEST(PiecewiseLinear, ForActivationDispatch) {
  EXPECT_EQ(PiecewiseLinear::for_activation(Activation::kIdentity)
                .num_pieces(),
            1u);
  EXPECT_EQ(PiecewiseLinear::for_activation(Activation::kRelu).num_pieces(),
            2u);
  EXPECT_EQ(PiecewiseLinear::for_activation(Activation::kTanh).num_pieces(),
            7u);
  EXPECT_EQ(
      PiecewiseLinear::for_activation(Activation::kTanh, 11).num_pieces(),
      11u);
  EXPECT_EQ(
      PiecewiseLinear::for_activation(Activation::kSigmoid, 9).num_pieces(),
      9u);
}

TEST(PiecewiseLinear, FitRequiresAtLeastThreePieces) {
  EXPECT_THROW(PiecewiseLinear::fit_tanh(2), InvalidArgument);
}

// ---- golden fits ----------------------------------------------------------
//
// Every piece of four fits, bit for bit, as hexfloats. The fitter is a
// deterministic search (split-the-worst-piece, then 24 equal-error sweeps),
// so a change to its speed must leave these unchanged; a change to what it
// computes must update them knowingly.

constexpr LinearPiece kGoldenTanh7[] = {
    {-kInf, -0x1.8p+1, 0x0p+0, -0x1.febbe888d0235p-1},
    {-0x1.8p+1, -0x1.058c048e15524p+0, 0x1.c8633f90d4ba7p-4, -0x1.6b6a334676319p-1},
    {-0x1.058c048e15524p+0, -0x1.ed5fedef4cb38p-2, 0x1.3b771c5f6dda5p-1, -0x1.50c58b844bf41p-3},
    {-0x1.ed5fedef4cb38p-2, 0x1.ed5fee255ac02p-2, 0x1.ea3532477b536p-1, -0x1.33f86a80bf23cp-35},
    {0x1.ed5fee255ac02p-2, 0x1.058c0499da3ep+0, 0x1.3b771c4cbf2d9p-1, 0x1.50c58bbb11f6fp-3},
    {0x1.058c0499da3ep+0, 0x1.8p+1, 0x1.c8633f6f68a93p-4, 0x1.6b6a335011821p-1},
    {0x1.8p+1, kInf, 0x0p+0, 0x1.febbe888d0235p-1},
};

constexpr LinearPiece kGoldenTanh13[] = {
    {-kInf, -0x1.8p+1, 0x0p+0, -0x1.febbe888d0235p-1},
    {-0x1.8p+1, -0x1.6e68e8f6dd07cp+0, 0x1.e998b94146d3fp-5, -0x1.aa77e698d1cbdp-1},
    {-0x1.6e68e8f6dd07cp+0, -0x1.e37efa02506f6p-1, 0x1.4d84252e90e7fp-2, -0x1.c06728427c43dp-2},
    {-0x1.e37efa02506f6p-1, -0x1.564649cc21222p-1, 0x1.1ed8cd3949187p-1, -0x1.b52afdd2004cap-3},
    {-0x1.564649cc21222p-1, -0x1.ced6c979f0fabp-2, 0x1.7cd8b96f0fb1cp-1, -0x1.705a6c6208145p-4},
    {-0x1.ced6c979f0fabp-2, -0x1.e76b0ed250f4ep-3, 0x1.c77c563eac0ddp-1, -0x1.870808668e883p-6},
    {-0x1.e76b0ed250f4ep-3, 0x1.425d7c76543dap-3, 0x1.fb2f47fcdcad6p-1, 0x1.576609893afd5p-13},
    {0x1.425d7c76543dap-3, 0x1.923c37c24ab29p-2, 0x1.da91310945943p-1, 0x1.900478b3c35a6p-7},
    {0x1.923c37c24ab29p-2, 0x1.3af02b7d8555fp-1, 0x1.91ffc294d95d8p-1, 0x1.1696318790683p-4},
    {0x1.3af02b7d8555fp-1, 0x1.c8c7f7eb9c96fp-1, 0x1.32f1bfd6e5a2cp-1, 0x1.76f1fd4b6ad5dp-3},
    {0x1.c8c7f7eb9c96fp-1, 0x1.6031a4ef531dp+0, 0x1.6c3708dc5a32bp-2, 0x1.9d641a857c9b3p-2},
    {0x1.6031a4ef531dp+0, 0x1.8p+1, 0x1.08a6f78486ebap-4, 0x1.a4580bf762feep-1},
    {0x1.8p+1, kInf, 0x0p+0, 0x1.febbe888d0235p-1},
};

constexpr LinearPiece kGoldenSigmoid7[] = {
    {-kInf, -0x1.8p+2, 0x0p+0, 0x1.4417772fdcaecp-10},
    {-0x1.8p+2, -0x1.0dc0b4ad81d0ep+1, 0x1.7a682ad55d4afp-6, 0x1.f74ea731f248dp-4},
    {-0x1.0dc0b4ad81d0ep+1, -0x1.d1d1ddeed0d74p-1, 0x1.3c6acbe4ceb87p-3, 0x1.ae967c181bafcp-2},
    {-0x1.d1d1ddeed0d74p-1, 0x1.d1d1a316a20a6p-1, 0x1.ef0168ab329fap-3, 0x1.000000149ac32p-1},
    {0x1.d1d1a316a20a6p-1, 0x1.0dc09a9cef3bep+1, 0x1.3c6aeba5bd135p-3, 0x1.28b4b70448e1ep-1},
    {0x1.0dc09a9cef3bep+1, 0x1.8p+2, 0x1.7a6859cec7e6p-6, 0x1.c116242ccc66cp-1},
    {0x1.8p+2, kInf, 0x0p+0, 0x1.ff5df4446811cp-1},
};

// fit_saturating_weighted(tanh, 7 pieces, range 4, mu 0.3, sigma 1.2).
constexpr LinearPiece kGoldenWeightedTanh7[] = {
    {-kInf, -0x1p+2, 0x0p+0, -0x1.ffd40b84505a1p-1},
    {-0x1p+2, -0x1.2ad0df3c5eadep+0, 0x1.0c56ec00b941p-4, -0x1.9a575378572ccp-1},
    {-0x1.2ad0df3c5eadep+0, -0x1.99d3557e534eep-2, 0x1.2bec1df07517bp-1, -0x1.6bd1f29ae4f29p-3},
    {-0x1.99d3557e534eep-2, 0x1.3888bf61a44f2p-1, 0x1.e21e735b9c42fp-1, -0x1.2defee3155dbp-9},
    {0x1.3888bf61a44f2p-1, 0x1.56e2bf3a25eb2p+0, 0x1.cc13f29ccb554p-2, 0x1.3163bd5f189d9p-2},
    {0x1.56e2bf3a25eb2p+0, 0x1p+2, 0x1.ae1d03838ab9cp-5, 0x1.ae0b1909db7a4p-1},
    {0x1p+2, kInf, 0x0p+0, 0x1.ffd40b84505a1p-1},
};

void expect_pieces_eq(const PiecewiseLinear& f,
                      std::span<const LinearPiece> golden) {
  ASSERT_EQ(f.num_pieces(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(f.piece(i).lo, golden[i].lo) << "piece " << i;
    EXPECT_EQ(f.piece(i).hi, golden[i].hi) << "piece " << i;
    EXPECT_EQ(f.piece(i).k, golden[i].k) << "piece " << i;
    EXPECT_EQ(f.piece(i).c, golden[i].c) << "piece " << i;
  }
}

TEST(PiecewiseLinearGolden, Tanh7) {
  expect_pieces_eq(PiecewiseLinear::fit_tanh(7), kGoldenTanh7);
}

TEST(PiecewiseLinearGolden, Tanh13) {
  expect_pieces_eq(PiecewiseLinear::fit_tanh(13), kGoldenTanh13);
}

TEST(PiecewiseLinearGolden, Sigmoid7) {
  expect_pieces_eq(PiecewiseLinear::fit_sigmoid(7), kGoldenSigmoid7);
}

TEST(PiecewiseLinearGolden, WeightedTanh7) {
  expect_pieces_eq(
      PiecewiseLinear::fit_saturating_weighted(
          [](double x) { return std::tanh(x); }, 7, 4.0, 0.3, 1.2),
      kGoldenWeightedTanh7);
}

TEST(PiecewiseLinear, ForActivationsMatchesForActivationPerEntry) {
  // Mixed activations, with repeats that are not adjacent: the shared fits
  // must land on the right entries.
  const std::vector<Activation> acts = {
      Activation::kTanh, Activation::kSigmoid, Activation::kRelu,
      Activation::kTanh, Activation::kIdentity, Activation::kSigmoid};
  const std::vector<PiecewiseLinear> fs =
      PiecewiseLinear::for_activations(acts, 9);
  ASSERT_EQ(fs.size(), acts.size());
  for (std::size_t i = 0; i < acts.size(); ++i) {
    SCOPED_TRACE(i);
    expect_pieces_eq(fs[i],
                     PiecewiseLinear::for_activation(acts[i], 9).pieces());
  }
  EXPECT_TRUE(PiecewiseLinear::for_activations({}, 7).empty());
}

// Parameterized sweep: per-piece-count accuracy bounds on the weighted fit
// (central region, where the weighting concentrates the budget).
struct FitBound {
  std::size_t pieces;
  double central_bound;  ///< on [-2, 2]
};

class TanhFitSweep : public ::testing::TestWithParam<FitBound> {};

TEST_P(TanhFitSweep, ErrorWithinBound) {
  const auto [pieces, bound] = GetParam();
  const auto f = PiecewiseLinear::fit_tanh(pieces, 3.0);
  const double err = f.max_error_against(
      [](double x) { return std::tanh(x); }, -2.0, 2.0);
  EXPECT_LT(err, bound) << pieces << " pieces";
}

INSTANTIATE_TEST_SUITE_P(PieceCounts, TanhFitSweep,
                         ::testing::Values(FitBound{3, 0.35}, FitBound{5, 0.1},
                                           FitBound{7, 0.07},
                                           FitBound{9, 0.06},
                                           FitBound{15, 0.04},
                                           FitBound{25, 0.02},
                                           FitBound{51, 0.006}));

}  // namespace
}  // namespace apds
