// Unit tests for the RL math substrate: matrix kernels, MLP forward/backward
// (including finite-difference gradient checks), Adam, the distribution
// heads, normalizers, and GAE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <span>
#include <vector>

#include "rl/adam.hpp"
#include "rl/distributions.hpp"
#include "rl/kernels.hpp"
#include "rl/matrix.hpp"
#include "rl/mlp.hpp"
#include "rl/normalizer.hpp"
#include "rl/rollout.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv::rl;
using netadv::util::Rng;

// ---------------------------------------------------------------- matrix

TEST(MatrixKernels, GemmMatchesHandComputation) {
  // W = [[1, 2], [3, 4]], one sample x = [5, 6], b = [0.5, -0.5]
  const std::vector<double> w{1, 2, 3, 4};
  const std::vector<double> x{5, 6};
  const std::vector<double> b{0.5, -0.5};
  std::vector<double> y(2);
  kernels::gemm(w, 2, 2, x, 1, b, y);
  EXPECT_DOUBLE_EQ(y[0], 17.5);
  EXPECT_DOUBLE_EQ(y[1], 38.5);
}

TEST(MatrixKernels, GemmTransposedMatchesHandComputation) {
  const std::vector<double> w{1, 2, 3, 4};  // 2x2
  // Two samples' g at stride 3 (the third slot is a gap) and their y at
  // stride 2.
  const std::vector<double> g{1, -1, 99, 2, 0.5};
  std::vector<double> y(4);
  kernels::gemm_transposed(w, 2, 2, g, 3, 2, y, 2);
  EXPECT_DOUBLE_EQ(y[0], -2.0);  // 1*1 + 3*(-1)
  EXPECT_DOUBLE_EQ(y[1], -2.0);  // 2*1 + 4*(-1)
  EXPECT_DOUBLE_EQ(y[2], 3.5);   // 1*2 + 3*0.5
  EXPECT_DOUBLE_EQ(y[3], 6.0);   // 2*2 + 4*0.5
}

TEST(MatrixKernels, RankKUpdateAccumulates) {
  std::vector<double> w{0, 0, 0, 0};
  // Two rank-1 steps with the same g and x, at strides 2.
  const std::vector<double> g{1, 2, 1, 2};
  const std::vector<double> x{3, 4, 3, 4};
  kernels::rank_k_update(w, 2, 2, g, 2, x, 2, 2);
  EXPECT_DOUBLE_EQ(w[0], 6.0);
  EXPECT_DOUBLE_EQ(w[1], 8.0);
  EXPECT_DOUBLE_EQ(w[2], 12.0);
  EXPECT_DOUBLE_EQ(w[3], 16.0);
  kernels::rank_k_update(w, 2, 2, g, 2, x, 2, 1);
  EXPECT_DOUBLE_EQ(w[0], 9.0);
  EXPECT_DOUBLE_EQ(w[3], 24.0);
}

TEST(MatrixKernels, DotAndNorm) {
  const std::vector<double> a{3, 4};
  const std::vector<double> b{1, 2};
  EXPECT_DOUBLE_EQ(kernels::dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(std::sqrt(kernels::dot(a, a)), 5.0);
}

// ---------------------------------------------------------------- mlp

/// `net`'s output for `x` alone: a one-row forward_rows.
Vec forward_one(const Mlp& net, const Vec& x) {
  Mlp::Arena row;
  row.reset(net, 1);
  row.set_input(0, x);
  net.forward_rows(row, 0, 1);
  const auto out = row.output(0);
  return {out.begin(), out.end()};
}

TEST(Mlp, OutputShapeAndDeterminism) {
  Rng rng{3};
  Mlp net{{4, 8, 3}, 1.0, rng};
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 3u);
  EXPECT_EQ(net.param_count(), 4u * 8 + 8 + 8 * 3 + 3);
  const Vec x{0.1, -0.2, 0.3, 0.4};
  const Vec y1 = forward_one(net, x);
  const Vec y2 = forward_one(net, x);
  ASSERT_EQ(y1.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Mlp, RejectsBadConstruction) {
  Rng rng{1};
  EXPECT_THROW((Mlp{{4}, 1.0, rng}), std::invalid_argument);
  EXPECT_THROW((Mlp{{4, 0, 2}, 1.0, rng}), std::invalid_argument);
}

/// Sample k's delta record in a flat buffer of records, with `grad_output`
/// (dLoss/dOutput) written into its tail as backward_rows() expects.
std::span<double> seeded_record(const Mlp& net, Vec& deltas, std::size_t k,
                                const Vec& grad_output) {
  const std::span<double> record =
      std::span<double>{deltas}.subspan(k * net.delta_size(), net.delta_size());
  std::copy(grad_output.begin(), grad_output.end(),
            record.end() - static_cast<std::ptrdiff_t>(grad_output.size()));
  return record;
}

/// One sample's full backward through the public trio, run on a sub-block
/// of a 4-row arena: the sample sits at row 1 of block [1, 3), whose row 2
/// is a decoy with dLoss/dOutput = 0; rows 0 and 3 lie outside the block.
/// Checks that backward_rows leaves the records outside the block alone,
/// then clears them and adds every gradient row. Returns the sample's delta
/// record (layer 0's rows first).
Vec backprop(Mlp& net, const Vec& x, const Vec& grad_output) {
  const std::size_t d = net.delta_size();
  Mlp::Arena arena;
  arena.reset(net, 4);
  for (std::size_t k = 0; k < 4; ++k) {
    Vec input = x;
    for (double& v : input) v += 0.25 * static_cast<double>(k) - 0.25;
    arena.set_input(k, k == 1 ? x : input);
  }
  net.forward_rows(arena, 0, 4);
  Vec deltas(4 * d, 7.5);
  seeded_record(net, deltas, 1, grad_output);
  seeded_record(net, deltas, 2, Vec(net.output_size(), 0.0));
  net.backward_rows(arena, 1, 3, deltas);
  for (const std::size_t outside : {std::size_t{0}, std::size_t{3}}) {
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_EQ(deltas[outside * d + j], 7.5) << "row " << outside;
      deltas[outside * d + j] = 0.0;
    }
  }
  for (std::size_t j = 0; j < d; ++j) EXPECT_EQ(deltas[2 * d + j], 0.0);
  net.accumulate_rows(0, d, deltas, arena, net.grads());
  return {deltas.begin() + static_cast<std::ptrdiff_t>(d),
          deltas.begin() + static_cast<std::ptrdiff_t>(2 * d)};
}

TEST(Mlp, RejectsWrongInputSize) {
  Rng rng{1};
  Mlp net{{2, 3}, 1.0, rng};
  Mlp::Arena arena;
  arena.reset(net, 1);
  EXPECT_THROW(arena.set_input(0, Vec{1.0}), std::invalid_argument);
  EXPECT_THROW(arena.set_input(1, Vec{1.0, 2.0}), std::invalid_argument);
  arena.set_input(0, Vec{1.0, 2.0});
  EXPECT_THROW(net.forward_rows(arena, 0, 2), std::invalid_argument);
  net.forward_rows(arena, 0, 1);
  Vec short_deltas(net.delta_size() - 1);
  EXPECT_THROW(net.backward_rows(arena, 0, 1, short_deltas),
               std::invalid_argument);
  Vec deltas(net.delta_size());
  EXPECT_THROW(net.accumulate_rows(0, net.delta_size() + 1, deltas, arena,
                                   net.grads()),
               std::invalid_argument);
  // An arena laid out for another network's shape is refused outright.
  Mlp wider{{2, 4}, 1.0, rng};
  EXPECT_THROW(wider.forward_rows(arena, 0, 1), std::invalid_argument);
  Vec wider_deltas(wider.delta_size());
  EXPECT_THROW(wider.backward_rows(arena, 0, 1, wider_deltas),
               std::invalid_argument);
}

TEST(Mlp, BackwardBeforeForwardThrows) {
  Rng rng{1};
  Mlp net{{2, 3}, 1.0, rng};
  const Mlp::Arena empty;
  Vec deltas(net.delta_size());
  EXPECT_THROW(net.backward_rows(empty, 0, 1, deltas), std::logic_error);
  Mlp::Arena one_row;
  one_row.reset(net, 1);
  EXPECT_THROW(net.backward_rows(one_row, 1, 2, deltas), std::logic_error);
  EXPECT_THROW(net.backward_rows(one_row, 0, 2, deltas), std::logic_error);
  EXPECT_THROW(net.backward_rows(one_row, 1, 0, deltas), std::logic_error);
}

// Finite-difference check of dLoss/dParams where Loss = sum(output * coef).
TEST(Mlp, ParamGradientsMatchFiniteDifferenceTanh) {
  Rng rng{17};
  Mlp net{{3, 5, 4, 2}, 1.0, rng};
  const Vec x{0.3, -0.7, 0.9};
  const Vec coef{1.3, -0.4};

  net.zero_grad();
  backprop(net, x, coef);
  std::vector<double> analytic{net.grads().begin(), net.grads().end()};

  const double eps = 1e-6;
  auto params = net.params();
  for (std::size_t i = 0; i < params.size(); i += 7) {  // sample every 7th
    const double saved = params[i];
    params[i] = saved + eps;
    const Vec yp = forward_one(net, x);
    params[i] = saved - eps;
    const Vec ym = forward_one(net, x);
    params[i] = saved;
    const double numeric =
        ((yp[0] - ym[0]) * coef[0] + (yp[1] - ym[1]) * coef[1]) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5) << "param index " << i;
  }
}

TEST(Mlp, InputGradientMatchesFiniteDifference) {
  // dLoss/dInput = W0^T (layer 0's delta): checks the first layer's delta,
  // the end of the backward chain.
  Rng rng{19};
  Mlp net{{3, 6, 2}, 1.0, rng};
  Vec x{0.5, -0.1, 0.2};
  const Vec coef{0.7, 1.1};
  net.zero_grad();
  const Vec deltas = backprop(net, x, coef);
  Vec input_grad(3);
  kernels::gemm_transposed(net.params().subspan(0, 6 * 3), 6, 3,
                           std::span<const double>{deltas}.subspan(0, 6), 6, 1,
                           input_grad, 3);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x[i];
    x[i] = saved + eps;
    const Vec yp = forward_one(net, x);
    x[i] = saved - eps;
    const Vec ym = forward_one(net, x);
    x[i] = saved;
    const double numeric =
        ((yp[0] - ym[0]) * coef[0] + (yp[1] - ym[1]) * coef[1]) / (2 * eps);
    EXPECT_NEAR(input_grad[i], numeric, 1e-5);
  }
}

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng{23};
  Mlp net{{2, 3, 1}, 1.0, rng};
  const Vec x{0.4, 0.6};
  net.zero_grad();
  backprop(net, x, {1.0});
  const std::vector<double> once{net.grads().begin(), net.grads().end()};
  backprop(net, x, {1.0});
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(net.grads()[i], 2.0 * once[i], 1e-12);
  }
  net.zero_grad();
  for (double g : net.grads()) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Mlp, RowBlocksOverManySamplesMatchOneSampleAtATime) {
  // backward_rows over uneven sample blocks (one reaching a 4-sample tile)
  // and accumulate_rows split into row blocks that straddle layer
  // boundaries and run in reverse block order must equal per-sample
  // full-row passes bit for bit: each delta is the same fma chain whatever
  // the block, and each gradient element gets its adds in sample order.
  Rng rng{29};
  Mlp net{{3, 5, 4, 2}, 1.0, rng};
  const std::size_t m = 7;
  std::vector<Vec> xs(m, Vec(3));
  std::vector<Vec> coefs(m, Vec(2));
  for (std::size_t k = 0; k < m; ++k) {
    for (double& v : xs[k]) v = rng.uniform(-1.0, 1.0);
    for (double& v : coefs[k]) v = rng.uniform(-1.0, 1.0);
  }

  net.zero_grad();
  for (std::size_t k = 0; k < m; ++k) backprop(net, xs[k], coefs[k]);
  const std::vector<double> per_sample{net.grads().begin(), net.grads().end()};

  const std::size_t d = net.delta_size();
  Mlp::Arena arena;
  arena.reset(net, m);
  for (std::size_t k = 0; k < m; ++k) arena.set_input(k, xs[k]);
  net.forward_rows(arena, 0, m);
  Vec deltas(m * d);
  for (std::size_t k = 0; k < m; ++k) seeded_record(net, deltas, k, coefs[k]);
  net.backward_rows(arena, 5, m, deltas);
  net.backward_rows(arena, 0, 5, deltas);
  net.zero_grad();
  for (std::size_t end = d; end > 0;) {
    const std::size_t begin = end >= 3 ? end - 3 : 0;
    net.accumulate_rows(begin, end, deltas, arena, net.grads());
    end = begin;
  }
  for (std::size_t i = 0; i < per_sample.size(); ++i) {
    ASSERT_EQ(net.grads()[i], per_sample[i]) << "param " << i;
  }
}

TEST(MlpArena, BlockForwardsMatchPerSampleForwardOnEveryBackend) {
  // forward_rows over uneven row blocks of one arena (one reaching a
  // 4-sample gemm tile) must reproduce each input's one-row forward bit for
  // bit — for widths that are not multiples of the 4-lane kernel width, a
  // 1-wide output, and every kernel backend this host can run, each checked
  // against the scalar backend's one-row forwards.
  const kernels::Backend& original = kernels::active_backend();
  const std::vector<std::vector<std::size_t>> shapes{
      {5, 7, 3}, {6, 13, 1}, {3, 4, 9, 2}};
  for (const auto& shape : shapes) {
    Rng rng{61};
    Mlp net{shape, 1.0, rng};
    const std::size_t rows = 11;
    std::vector<Vec> xs(rows, Vec(net.input_size()));
    for (Vec& x : xs) {
      for (double& v : x) v = rng.uniform(-2.0, 2.0);
    }
    kernels::set_backend(*kernels::available_backends()[0]);
    std::vector<Vec> reference;
    for (const Vec& x : xs) reference.push_back(forward_one(net, x));
    for (const kernels::Backend* backend : kernels::available_backends()) {
      kernels::set_backend(*backend);
      Mlp::Arena arena;
      arena.reset(net, rows);
      for (std::size_t k = 0; k < rows; ++k) arena.set_input(k, xs[k]);
      for (const auto& [lo, hi] :
           {std::pair<std::size_t, std::size_t>{5, 11}, {0, 4}, {4, 5}}) {
        net.forward_rows(arena, lo, hi);
      }
      for (std::size_t k = 0; k < rows; ++k) {
        const Vec single = forward_one(net, xs[k]);
        const auto row = arena.output(k);
        ASSERT_EQ(row.size(), reference[k].size());
        for (std::size_t j = 0; j < row.size(); ++j) {
          ASSERT_EQ(row[j], reference[k][j]) << backend->name << " row " << k;
          ASSERT_EQ(single[j], reference[k][j])
              << backend->name << " one-row " << k;
        }
      }
    }
  }
  kernels::set_backend(original);
}

TEST(Mlp, FinalGainScalesLastLayerInit) {
  Rng rng1{5};
  Mlp small{{4, 4, 4}, 0.01, rng1};
  // Last-layer weights live at the tail of the parameter array.
  const auto params = small.params();
  double max_last = 0.0;
  for (std::size_t i = params.size() - (4 * 4 + 4); i < params.size() - 4; ++i) {
    max_last = std::max(max_last, std::abs(params[i]));
  }
  EXPECT_LT(max_last, 0.02);
}

// ---------------------------------------------------------------- adam

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(p) = (p - 3)^2 from p = 0.
  std::vector<double> p{0.0};
  Adam opt{1, {.learning_rate = 0.05}};
  for (int i = 0; i < 2000; ++i) {
    const std::vector<double> g{2.0 * (p[0] - 3.0)};
    opt.step(p, g);
  }
  EXPECT_NEAR(p[0], 3.0, 1e-3);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  std::vector<double> p{0.0};
  Adam opt{1, {.learning_rate = 0.1}};
  opt.step(p, std::vector<double>{5.0});
  // Bias-corrected Adam's first step is ~lr * sign(grad).
  EXPECT_NEAR(p[0], -0.1, 1e-6);
}

TEST(Adam, SizeMismatchThrows) {
  Adam opt{2};
  std::vector<double> p{0.0};
  EXPECT_THROW(opt.step(p, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Adam, ResetClearsMoments) {
  std::vector<double> p{0.0};
  Adam opt{1, {.learning_rate = 0.1}};
  opt.step(p, std::vector<double>{1.0});
  opt.reset();
  EXPECT_EQ(opt.step_count(), 0u);
  std::vector<double> q{0.0};
  opt.step(q, std::vector<double>{5.0});
  EXPECT_NEAR(q[0], -0.1, 1e-6);
}

TEST(ClipGradNorm, ScalesOnlyWhenAboveThreshold) {
  std::vector<double> g{3.0, 4.0};
  const double norm = clip_grad_norm(g, 10.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_DOUBLE_EQ(g[0], 3.0);
  clip_grad_norm(g, 0.5);
  EXPECT_NEAR(std::sqrt(kernels::dot(g, g)), 0.5, 1e-12);
}

// ---------------------------------------------------------------- distributions

TEST(Softmax, SumsToOneAndOrdersByLogit) {
  const std::vector<double> logits{1.0, 2.0, 3.0};
  std::vector<double> probs(3);
  softmax(logits, probs);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0, 1e-12);
  EXPECT_LT(probs[0], probs[1]);
  EXPECT_LT(probs[1], probs[2]);
}

TEST(Softmax, StableUnderLargeLogits) {
  const std::vector<double> logits{1000.0, 1001.0};
  std::vector<double> probs(2);
  softmax(logits, probs);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(Categorical, LogProbMatchesSoftmax) {
  const std::vector<double> logits{0.5, -1.0, 2.0};
  std::vector<double> probs(3);
  softmax(logits, probs);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(Categorical::log_prob(logits, a), std::log(probs[a]), 1e-12);
  }
}

TEST(Categorical, SampleFrequenciesMatchProbs) {
  const std::vector<double> logits{0.0, 1.0, -1.0};
  std::vector<double> probs(3);
  softmax(logits, probs);
  Rng rng{31};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[Categorical::sample(logits, rng)];
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(static_cast<double>(counts[a]) / n, probs[a], 0.01);
  }
}

TEST(Categorical, ModePicksArgmax) {
  const std::vector<double> logits{0.1, 5.0, 0.2};
  EXPECT_EQ(Categorical::mode(logits), 1u);
}

TEST(Categorical, EntropyUniformIsLogN) {
  const std::vector<double> logits{0.7, 0.7, 0.7, 0.7};
  std::vector<double> probs(4);
  double entropy = 0.0;
  Categorical::head_log_prob(logits, 0, probs, entropy);
  EXPECT_NEAR(entropy, std::log(4.0), 1e-12);
}

/// The fused head's gradient for loss = dloss_dlogp * log p - ent_coef * H.
Vec categorical_head_grad(std::span<const double> logits, std::size_t action,
                          double dloss_dlogp, double ent_coef) {
  Vec grad(logits.size());
  double entropy = 0.0;
  Categorical::head_log_prob(logits, action, grad, entropy);
  Categorical::head_grad(grad, action, entropy, dloss_dlogp, ent_coef, 1.0);
  return grad;
}

double categorical_entropy(std::span<const double> logits) {
  Vec probs(logits.size());
  double entropy = 0.0;
  Categorical::head_log_prob(logits, 0, probs, entropy);
  return entropy;
}

TEST(Categorical, LogProbGradMatchesFiniteDifference) {
  std::vector<double> logits{0.3, -0.5, 1.2};
  const std::size_t action = 2;
  const Vec grad = categorical_head_grad(logits, action, 1.0, 0.0);
  const double eps = 1e-6;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    const double saved = logits[j];
    logits[j] = saved + eps;
    const double lp = Categorical::log_prob(logits, action);
    logits[j] = saved - eps;
    const double lm = Categorical::log_prob(logits, action);
    logits[j] = saved;
    EXPECT_NEAR(grad[j], (lp - lm) / (2 * eps), 1e-6);
  }
}

TEST(Categorical, EntropyGradMatchesFiniteDifference) {
  std::vector<double> logits{0.3, -0.5, 1.2};
  // ent_coef = -1 with no log-prob term leaves exactly dH/dlogits.
  const Vec grad = categorical_head_grad(logits, 0, 0.0, -1.0);
  const double eps = 1e-6;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    const double saved = logits[j];
    logits[j] = saved + eps;
    const double hp = categorical_entropy(logits);
    logits[j] = saved - eps;
    const double hm = categorical_entropy(logits);
    logits[j] = saved;
    EXPECT_NEAR(grad[j], (hp - hm) / (2 * eps), 1e-6);
  }
}

TEST(DiagGaussian, LogProbOfStandardNormalAtMean) {
  const std::vector<double> mean{0.0};
  const std::vector<double> log_std{0.0};
  const std::vector<double> action{0.0};
  EXPECT_NEAR(DiagGaussian::log_prob(mean, log_std, action),
              -0.5 * std::log(2.0 * M_PI), 1e-12);
}

TEST(DiagGaussian, SampleMomentsMatch) {
  const std::vector<double> mean{2.0, -1.0};
  const std::vector<double> log_std{std::log(0.5), std::log(2.0)};
  Rng rng{37};
  netadv::util::RunningStat s0;
  netadv::util::RunningStat s1;
  for (int i = 0; i < 100000; ++i) {
    const Vec a = DiagGaussian::sample(mean, log_std, rng);
    s0.add(a[0]);
    s1.add(a[1]);
  }
  EXPECT_NEAR(s0.mean(), 2.0, 0.02);
  EXPECT_NEAR(s0.stddev(), 0.5, 0.02);
  EXPECT_NEAR(s1.mean(), -1.0, 0.05);
  EXPECT_NEAR(s1.stddev(), 2.0, 0.05);
}

/// The fused Gaussian head's mean and log_std gradients of log p.
std::pair<Vec, Vec> gaussian_head_grads(std::span<const double> mean,
                                        std::span<const double> log_std,
                                        std::span<const double> action) {
  GaussianHead head;
  head.set_log_std(log_std);
  Vec grad_mean(mean.size());
  Vec grad_log_std(mean.size());
  head.log_prob(mean, action, grad_mean, grad_log_std);
  head.head_grad(grad_mean, grad_log_std, 1.0, 0.0, 1.0);
  return {grad_mean, grad_log_std};
}

TEST(DiagGaussian, GradMeanMatchesFiniteDifference) {
  std::vector<double> mean{0.4, -0.3};
  const std::vector<double> log_std{0.2, -0.1};
  const std::vector<double> action{0.9, 0.1};
  const Vec grad = gaussian_head_grads(mean, log_std, action).first;
  const double eps = 1e-6;
  for (std::size_t j = 0; j < mean.size(); ++j) {
    const double saved = mean[j];
    mean[j] = saved + eps;
    const double lp = DiagGaussian::log_prob(mean, log_std, action);
    mean[j] = saved - eps;
    const double lm = DiagGaussian::log_prob(mean, log_std, action);
    mean[j] = saved;
    EXPECT_NEAR(grad[j], (lp - lm) / (2 * eps), 1e-6);
  }
}

TEST(DiagGaussian, GradLogStdMatchesFiniteDifference) {
  const std::vector<double> mean{0.4, -0.3};
  std::vector<double> log_std{0.2, -0.1};
  const std::vector<double> action{0.9, 0.1};
  const Vec grad = gaussian_head_grads(mean, log_std, action).second;
  const double eps = 1e-6;
  for (std::size_t j = 0; j < log_std.size(); ++j) {
    const double saved = log_std[j];
    log_std[j] = saved + eps;
    const double lp = DiagGaussian::log_prob(mean, log_std, action);
    log_std[j] = saved - eps;
    const double lm = DiagGaussian::log_prob(mean, log_std, action);
    log_std[j] = saved;
    EXPECT_NEAR(grad[j], (lp - lm) / (2 * eps), 1e-6);
  }
}

TEST(DiagGaussian, EntropyIncreasesWithLogStd) {
  EXPECT_LT(DiagGaussian::entropy(std::vector<double>{0.0}),
            DiagGaussian::entropy(std::vector<double>{1.0}));
}

// The unfused head formulas the PPO update used before the fused heads, kept
// verbatim as the reference the heads must match bit for bit.
Vec unfused_softmax(std::span<const double> logits) {
  Vec probs(logits.size());
  softmax(logits, probs);
  return probs;
}

double unfused_entropy(std::span<const double> logits) {
  double h = 0.0;
  for (double p : unfused_softmax(logits)) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

Vec unfused_log_prob_grad(std::span<const double> logits, std::size_t action) {
  Vec grad = unfused_softmax(logits);
  for (auto& g : grad) g = -g;
  grad[action] += 1.0;
  return grad;
}

Vec unfused_entropy_grad(std::span<const double> logits) {
  const Vec probs = unfused_softmax(logits);
  const double h = unfused_entropy(logits);
  Vec grad(logits.size(), 0.0);
  for (std::size_t j = 0; j < probs.size(); ++j) {
    const double log_p = probs[j] > 0.0 ? std::log(probs[j]) : 0.0;
    grad[j] = -probs[j] * (log_p + h);
  }
  return grad;
}

TEST(PpoLossHead, CategoricalMatchesUnfusedFormulasBitExactly) {
  Rng rng{67};
  std::vector<Vec> heads;
  for (int trial = 0; trial < 300; ++trial) {
    Vec logits(2 + rng.index(7));
    for (double& l : logits) l = rng.uniform(-6.0, 6.0);
    heads.push_back(std::move(logits));
  }
  // exp(-800 - 1) underflows: a probability of exactly 0 takes the p > 0
  // guards of the entropy and its gradient.
  heads.push_back({0.0, -800.0, 1.0, 0.5});
  for (const Vec& logits : heads) {
    const std::size_t action = rng.index(logits.size());
    const double dloss_dlogp = rng.uniform(-2.0, 2.0);
    const double ent_coef = rng.uniform(0.0, 0.05);
    const double scale = 1.0 / 64.0;
    Vec grad(logits.size());
    double entropy = 0.0;
    const double log_prob =
        Categorical::head_log_prob(logits, action, grad, entropy);
    ASSERT_EQ(log_prob, Categorical::log_prob(logits, action));
    ASSERT_EQ(entropy, unfused_entropy(logits));
    Categorical::head_grad(grad, action, entropy, dloss_dlogp, ent_coef, scale);
    const Vec logp_grad = unfused_log_prob_grad(logits, action);
    const Vec ent_grad = unfused_entropy_grad(logits);
    for (std::size_t i = 0; i < logits.size(); ++i) {
      ASSERT_EQ(grad[i],
                (dloss_dlogp * logp_grad[i] - ent_coef * ent_grad[i]) * scale)
          << "logit " << i;
    }
  }
  EXPECT_EQ(unfused_softmax(heads.back())[1], 0.0);
}

TEST(PpoLossHead, GaussianMatchesUnfusedFormulasBitExactly) {
  Rng rng{71};
  GaussianHead head;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t d = 1 + rng.index(4);
    Vec mean(d), log_std(d), action(d);
    for (std::size_t i = 0; i < d; ++i) {
      mean[i] = rng.uniform(-2.0, 2.0);
      log_std[i] = rng.uniform(-5.0, 1.0);
      action[i] = mean[i] + rng.uniform(-3.0, 3.0);
    }
    const double dloss_dlogp = rng.uniform(-2.0, 2.0);
    const double ent_coef = rng.uniform(0.0, 0.05);
    const double scale = 1.0 / 128.0;
    head.set_log_std(log_std);
    ASSERT_EQ(head.entropy(), DiagGaussian::entropy(log_std));
    Vec grad_mean(d), grad_log_std(d);
    ASSERT_EQ(head.log_prob(mean, action, grad_mean, grad_log_std),
              DiagGaussian::log_prob(mean, log_std, action));
    head.head_grad(grad_mean, grad_log_std, dloss_dlogp, ent_coef, scale);
    for (std::size_t i = 0; i < d; ++i) {
      const double var = std::exp(2.0 * log_std[i]);
      const double z = (action[i] - mean[i]) / std::exp(log_std[i]);
      ASSERT_EQ(grad_mean[i],
                dloss_dlogp * ((action[i] - mean[i]) / var) * scale);
      ASSERT_EQ(grad_log_std[i],
                (dloss_dlogp * (z * z - 1.0) - ent_coef * 1.0) * scale);
    }
  }
}

// ---------------------------------------------------------------- normalizers

TEST(RunningNormalizer, WhitensToZeroMeanUnitVar) {
  Rng rng{41};
  RunningNormalizer norm{2};
  for (int i = 0; i < 10000; ++i) {
    norm.update({rng.normal(5.0, 3.0), rng.normal(-2.0, 0.5)});
  }
  const Vec z = norm.normalize({5.0, -2.0});
  EXPECT_NEAR(z[0], 0.0, 0.1);
  EXPECT_NEAR(z[1], 0.0, 0.1);
  const Vec z2 = norm.normalize({8.0, -2.0});
  EXPECT_NEAR(z2[0], 1.0, 0.1);
}

TEST(RunningNormalizer, ClipsExtremes) {
  RunningNormalizer norm{1, 2.0};
  norm.update({0.0});
  norm.update({1.0});
  const Vec z = norm.normalize({1e9});
  EXPECT_DOUBLE_EQ(z[0], 2.0);
}

TEST(RunningNormalizer, RestoreRoundTrips) {
  Rng rng{43};
  RunningNormalizer a{2};
  for (int i = 0; i < 1000; ++i) a.update({rng.normal(), rng.normal(3.0, 2.0)});
  RunningNormalizer b{2};
  b.restore(a.mean(), a.variance(), a.count());
  const Vec x{1.7, 4.2};
  const Vec za = a.normalize(x);
  const Vec zb = b.normalize(x);
  EXPECT_NEAR(za[0], zb[0], 1e-9);
  EXPECT_NEAR(za[1], zb[1], 1e-9);
}

TEST(RunningNormalizer, RestoreMomentsIsExactRoundTrip) {
  Rng rng{53};
  RunningNormalizer a{2};
  for (int i = 0; i < 137; ++i) a.update({rng.normal(), rng.normal(3.0, 2.0)});
  RunningNormalizer b{2};
  b.restore_moments(a.mean(), a.m2(), a.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.m2(), b.m2());
  EXPECT_EQ(a.count(), b.count());
  const Vec x{1.7, 4.2};
  EXPECT_EQ(a.normalize(x), b.normalize(x));
}

TEST(RunningNormalizer, RestoreMomentsMatchesANormalizerUpdatedToThem) {
  // normalize() divides by a per-dimension std cached when the moments
  // change; restore_moments() must refresh it even over a stale cache.
  Rng rng{59};
  RunningNormalizer updated{3};
  for (int i = 0; i < 211; ++i) {
    updated.update({rng.normal(), rng.normal(3.0, 2.0), rng.uniform(0.0, 9.0)});
  }
  RunningNormalizer restored{3};
  for (int i = 0; i < 5; ++i) restored.update({-1.0 * i, 40.0, 2.0 * i});
  restored.restore_moments(updated.mean(), updated.m2(), updated.count());
  for (int i = 0; i < 20; ++i) {
    const Vec x{rng.normal(0.0, 3.0), rng.normal(3.0, 6.0), rng.uniform(-5.0, 15.0)};
    EXPECT_EQ(restored.normalize(x), updated.normalize(x));
  }

  // A young normalizer's moments restore to the placeholder variance 1.
  RunningNormalizer young{3};
  young.update({1.0, 2.0, 3.0});
  restored.restore_moments(young.mean(), young.m2(), young.count());
  EXPECT_EQ(restored.normalize({0.5, 0.5, 0.5}), young.normalize({0.5, 0.5, 0.5}));
}

TEST(RunningNormalizer, RestoreYoungNormalizerKeepsZeroSecondMoment) {
  // With count < 2 Welford has accumulated no squared deviations, so
  // restore() must leave m2 at 0. It used to plant variance * 1 = 1.0,
  // which contaminated variance() as soon as the next sample arrived.
  RunningNormalizer a{1};
  a.update({5.0});
  RunningNormalizer b{1};
  b.restore(a.mean(), a.variance(), a.count());
  EXPECT_EQ(b.m2(), Vec{0.0});
  EXPECT_EQ(a.m2(), b.m2());

  // The two must stay bit-identical through further updates.
  a.update({7.0});
  b.update({7.0});
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.normalize({6.0}), b.normalize({6.0}));

  // Same for a completely empty normalizer.
  RunningNormalizer c{1};
  RunningNormalizer d{1};
  d.restore(c.mean(), c.variance(), c.count());
  EXPECT_EQ(d.m2(), Vec{0.0});
  EXPECT_EQ(d.count(), 0u);
}

TEST(ReturnNormalizer, ScalesTowardUnitVariance) {
  Rng rng{47};
  ReturnNormalizer norm{0.99};
  double last = 0.0;
  for (int i = 0; i < 20000; ++i) {
    last = norm.normalize(rng.normal(0.0, 50.0), i % 100 == 99);
  }
  EXPECT_LT(std::abs(last), 10.0 + 1e-9);
}

// ---------------------------------------------------------------- rollout / GAE

TEST(RolloutBuffer, GaeMatchesHandComputedEpisode) {
  // Two-step episode, gamma=0.5, lambda=1 (then GAE = discounted MC - V).
  RolloutBuffer buffer{2};
  Transition t1;
  t1.value = 1.0;
  t1.reward = 1.0;
  t1.done = false;
  Transition t2;
  t2.value = 2.0;
  t2.reward = 3.0;
  t2.done = true;
  buffer.add(t1);
  buffer.add(t2);
  buffer.compute_advantages(/*last_value=*/99.0, 0.5, 1.0);
  // delta2 = 3 - 2 = 1 (terminal, bootstrap dropped); adv2 = 1.
  // delta1 = 1 + 0.5*2 - 1 = 1; adv1 = 1 + 0.5*1 = 1.5.
  // Advantages are then standardized: mean 1.25, centered {0.25, -0.25}.
  // Check ordering and return targets instead of raw values.
  EXPECT_GT(buffer[0].advantage, buffer[1].advantage);
  EXPECT_NEAR(buffer[0].return_, 1.5 + 1.0, 1e-9);
  EXPECT_NEAR(buffer[1].return_, 1.0 + 2.0, 1e-9);
}

TEST(RolloutBuffer, TerminalBlocksBootstrap) {
  RolloutBuffer buffer{1};
  Transition t;
  t.value = 0.0;
  t.reward = 1.0;
  t.done = true;
  buffer.add(t);
  buffer.compute_advantages(/*last_value=*/1000.0, 0.99, 0.95);
  // Return target must ignore last_value entirely.
  EXPECT_NEAR(buffer[0].return_, 1.0, 1e-9);
}

TEST(RolloutBuffer, AdvantagesAreStandardized) {
  Rng rng{53};
  RolloutBuffer buffer{64};
  for (int i = 0; i < 64; ++i) {
    Transition t;
    t.value = rng.normal();
    t.reward = rng.normal();
    t.done = (i % 16 == 15);
    buffer.add(t);
  }
  buffer.compute_advantages(0.3, 0.99, 0.95);
  double mean = 0.0;
  for (std::size_t i = 0; i < buffer.size(); ++i) mean += buffer[i].advantage;
  mean /= 64.0;
  double var = 0.0;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    var += (buffer[i].advantage - mean) * (buffer[i].advantage - mean);
  }
  var /= 64.0;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-6);
}

TEST(RolloutBuffer, OverflowAndEmptyThrow) {
  RolloutBuffer buffer{1};
  buffer.add(Transition{});
  EXPECT_THROW(buffer.add(Transition{}), std::logic_error);
  RolloutBuffer empty{4};
  EXPECT_THROW(empty.compute_advantages(0.0, 0.99, 0.95), std::logic_error);
}

TEST(RolloutBuffer, ShuffledIndicesIsPermutation) {
  RolloutBuffer buffer{16};
  for (int i = 0; i < 16; ++i) buffer.add(Transition{});
  Rng rng{59};
  auto idx = buffer.shuffled_indices(rng);
  std::sort(idx.begin(), idx.end());
  for (std::size_t i = 0; i < idx.size(); ++i) EXPECT_EQ(idx[i], i);
}

}  // namespace
