// Unit tests for the RL math substrate: matrix kernels, MLP forward/backward
// (including finite-difference gradient checks), Adam, the distribution
// heads, normalizers, and GAE.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "rl/adam.hpp"
#include "rl/distributions.hpp"
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

TEST(MatrixKernels, GemvMatchesHandComputation) {
  // W = [[1, 2], [3, 4]], x = [5, 6], b = [0.5, -0.5]
  const std::vector<double> w{1, 2, 3, 4};
  const std::vector<double> x{5, 6};
  const std::vector<double> b{0.5, -0.5};
  std::vector<double> y(2);
  gemv(w, 2, 2, x, b, y);
  EXPECT_DOUBLE_EQ(y[0], 17.5);
  EXPECT_DOUBLE_EQ(y[1], 38.5);
}

TEST(MatrixKernels, GemvTransposedMatchesHandComputation) {
  const std::vector<double> w{1, 2, 3, 4};  // 2x2
  const std::vector<double> g{1, -1};
  std::vector<double> y(2);
  gemv_transposed(w, 2, 2, g, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);  // 1*1 + 3*(-1)
  EXPECT_DOUBLE_EQ(y[1], -2.0);  // 2*1 + 4*(-1)
}

TEST(MatrixKernels, Rank1UpdateAccumulates) {
  std::vector<double> w{0, 0, 0, 0};
  const std::vector<double> g{1, 2};
  const std::vector<double> x{3, 4};
  rank1_update(w, 2, 2, g, x);
  rank1_update(w, 2, 2, g, x);
  EXPECT_DOUBLE_EQ(w[0], 6.0);
  EXPECT_DOUBLE_EQ(w[1], 8.0);
  EXPECT_DOUBLE_EQ(w[2], 12.0);
  EXPECT_DOUBLE_EQ(w[3], 16.0);
}

TEST(MatrixKernels, DotAndNorm) {
  const std::vector<double> a{3, 4};
  const std::vector<double> b{1, 2};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
}

TEST(MatrixClass, IndexingAndAt) {
  Matrix m{2, 3};
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_EQ(m.size(), 6u);
}

// ---------------------------------------------------------------- mlp

TEST(Mlp, OutputShapeAndDeterminism) {
  Rng rng{3};
  Mlp net{{4, 8, 3}, Activation::kTanh, 1.0, rng};
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 3u);
  EXPECT_EQ(net.param_count(), 4u * 8 + 8 + 8 * 3 + 3);
  const Vec x{0.1, -0.2, 0.3, 0.4};
  const Vec y1 = net.forward(x);
  const Vec y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Mlp, RejectsBadConstruction) {
  Rng rng{1};
  EXPECT_THROW((Mlp{{4}, Activation::kTanh, 1.0, rng}), std::invalid_argument);
  EXPECT_THROW((Mlp{{4, 0, 2}, Activation::kTanh, 1.0, rng}),
               std::invalid_argument);
}

/// One sample's full backward through the public pair: forward into a
/// workspace, the per-layer delta record, then every gradient row. Returns
/// the delta record (layer 0's rows first).
Vec backprop(Mlp& net, const Vec& x, const Vec& grad_output) {
  Mlp::Workspace ws;
  net.forward(x, ws);
  Vec deltas(net.delta_size());
  net.backward_deltas(grad_output, ws, deltas);
  const Mlp::Workspace* const samples[] = {&ws};
  net.accumulate_rows(0, net.delta_size(), deltas, samples, net.grads());
  return deltas;
}

TEST(Mlp, RejectsWrongInputSize) {
  Rng rng{1};
  Mlp net{{2, 3}, Activation::kTanh, 1.0, rng};
  EXPECT_THROW(net.forward({1.0}), std::invalid_argument);
  Mlp::Workspace ws;
  net.forward({1.0, 2.0}, ws);
  Vec deltas(net.delta_size());
  EXPECT_THROW(net.backward_deltas({1.0}, ws, deltas), std::invalid_argument);
  Vec short_deltas(net.delta_size() - 1);
  EXPECT_THROW(net.backward_deltas({1.0, 0.0, 0.0}, ws, short_deltas),
               std::invalid_argument);
  const Mlp::Workspace* const samples[] = {&ws};
  EXPECT_THROW(net.accumulate_rows(0, net.delta_size() + 1, deltas, samples,
                                   net.grads()),
               std::invalid_argument);
}

TEST(Mlp, BackwardBeforeForwardThrows) {
  Rng rng{1};
  Mlp net{{2, 3}, Activation::kTanh, 1.0, rng};
  const Mlp::Workspace empty;
  Vec deltas(net.delta_size());
  EXPECT_THROW(net.backward_deltas({1.0, 0.0, 0.0}, empty, deltas),
               std::logic_error);
}

// Finite-difference check of dLoss/dParams where Loss = sum(output * coef).
void check_param_gradients(Activation act) {
  Rng rng{17};
  Mlp net{{3, 5, 4, 2}, act, 1.0, rng};
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
    const Vec yp = net.forward(x);
    params[i] = saved - eps;
    const Vec ym = net.forward(x);
    params[i] = saved;
    const double numeric =
        ((yp[0] - ym[0]) * coef[0] + (yp[1] - ym[1]) * coef[1]) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5)
        << "param index " << i << " activation " << static_cast<int>(act);
  }
}

TEST(Mlp, ParamGradientsMatchFiniteDifferenceTanh) {
  check_param_gradients(Activation::kTanh);
}

TEST(Mlp, ParamGradientsMatchFiniteDifferenceRelu) {
  check_param_gradients(Activation::kRelu);
}

TEST(Mlp, InputGradientMatchesFiniteDifference) {
  // dLoss/dInput = W0^T (layer 0's delta): checks the first layer's delta,
  // the end of the backward chain.
  Rng rng{19};
  Mlp net{{3, 6, 2}, Activation::kTanh, 1.0, rng};
  Vec x{0.5, -0.1, 0.2};
  const Vec coef{0.7, 1.1};
  net.zero_grad();
  const Vec deltas = backprop(net, x, coef);
  Vec input_grad(3);
  gemv_transposed(net.params().subspan(0, 6 * 3), 6, 3,
                  std::span<const double>{deltas}.subspan(0, 6), input_grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x[i];
    x[i] = saved + eps;
    const Vec yp = net.forward(x);
    x[i] = saved - eps;
    const Vec ym = net.forward(x);
    x[i] = saved;
    const double numeric =
        ((yp[0] - ym[0]) * coef[0] + (yp[1] - ym[1]) * coef[1]) / (2 * eps);
    EXPECT_NEAR(input_grad[i], numeric, 1e-5);
  }
}

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng{23};
  Mlp net{{2, 3, 1}, Activation::kTanh, 1.0, rng};
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
  // accumulate_rows over a batch, split into row blocks that straddle layer
  // boundaries and run in reverse block order, must equal per-sample
  // full-row passes bit for bit: each element gets its adds in sample order.
  Rng rng{29};
  Mlp net{{3, 5, 4, 2}, Activation::kTanh, 1.0, rng};
  const std::vector<Vec> xs{
      {0.3, -0.7, 0.9}, {-0.2, 0.4, 0.1}, {1.0, 0.0, -0.5}};
  const std::vector<Vec> coefs{{1.3, -0.4}, {-0.6, 0.2}, {0.5, 0.9}};

  net.zero_grad();
  for (std::size_t k = 0; k < xs.size(); ++k) backprop(net, xs[k], coefs[k]);
  const std::vector<double> per_sample{net.grads().begin(), net.grads().end()};

  const std::size_t d = net.delta_size();
  std::vector<Mlp::Workspace> ws(xs.size());
  std::vector<const Mlp::Workspace*> ptrs;
  Vec deltas(xs.size() * d);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    net.forward(xs[k], ws[k]);
    net.backward_deltas(coefs[k], ws[k],
                        std::span<double>{deltas}.subspan(k * d, d));
    ptrs.push_back(&ws[k]);
  }
  net.zero_grad();
  for (std::size_t end = d; end > 0;) {
    const std::size_t begin = end >= 3 ? end - 3 : 0;
    net.accumulate_rows(begin, end, deltas, ptrs, net.grads());
    end = begin;
  }
  for (std::size_t i = 0; i < per_sample.size(); ++i) {
    ASSERT_EQ(net.grads()[i], per_sample[i]) << "param " << i;
  }
}

TEST(Mlp, FinalGainScalesLastLayerInit) {
  Rng rng1{5};
  Mlp small{{4, 4, 4}, Activation::kTanh, 0.01, rng1};
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
  EXPECT_NEAR(l2_norm(g), 0.5, 1e-12);
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
  EXPECT_NEAR(Categorical::entropy(logits), std::log(4.0), 1e-12);
}

TEST(Categorical, LogProbGradMatchesFiniteDifference) {
  std::vector<double> logits{0.3, -0.5, 1.2};
  const std::size_t action = 2;
  const Vec grad = Categorical::log_prob_grad(logits, action);
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
  const Vec grad = Categorical::entropy_grad(logits);
  const double eps = 1e-6;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    const double saved = logits[j];
    logits[j] = saved + eps;
    const double hp = Categorical::entropy(logits);
    logits[j] = saved - eps;
    const double hm = Categorical::entropy(logits);
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

TEST(DiagGaussian, GradMeanMatchesFiniteDifference) {
  std::vector<double> mean{0.4, -0.3};
  const std::vector<double> log_std{0.2, -0.1};
  const std::vector<double> action{0.9, 0.1};
  const Vec grad = DiagGaussian::log_prob_grad_mean(mean, log_std, action);
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
  const Vec grad = DiagGaussian::log_prob_grad_log_std(mean, log_std, action);
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
