// Bit-exactness gates for the dispatched SIMD kernel layer (rl/kernels.hpp).
// The contract under test: the scalar fallback and every SIMD backend (AVX2,
// AVX-512, NEON) compute the same canonical accumulation order — 4 fma
// lanes — so every kernel agrees bit for bit between backends, and
// therefore end-to-end PPO training produces byte-identical parameters
// whichever backend (and thread count) computed it. Identity
// suites for backends this host cannot run skip explicitly (GTEST_SKIP), so
// an unsupported host reports "skipped", never a silent pass. The
// ParallelKernels suite deliberately matches the Parallel* naming so the
// TSan CI lane picks it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rl/kernels.hpp"
#include "rl/ppo.hpp"
#include "rl/toy_envs.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;
using namespace netadv::rl;

const std::size_t kThreadCounts[] = {1, 2, 8};

// Sizes chosen to hit every SIMD tail length (n % 4 and n % 8) at small and
// multi-register widths, plus the layer widths the repo actually trains.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9,
                              15, 16, 17, 31, 32, 33, 64, 100};

Vec random_vec(util::Rng& rng, std::size_t n) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

// Shapes for the batched kernels: batches below, at and across the
// 4-sample tiles; column counts below and above gemm's 8-column tile
// threshold, with every tail length of the 8-wide chunks.
const std::size_t kBatches[] = {1, 3, 4, 5, 8, 9};
const std::size_t kRows[] = {1, 2, 3, 8, 16};
const std::size_t kTileCols[] = {1, 2, 4, 7, 8, 9, 25, 33, 64};

/// Sentinels after every padded operand.
constexpr std::size_t kPad = 9;

/// A quiet NaN with a payload: fills stride gaps and the space after every
/// operand, so a kernel that reads one poisons its result and a kernel that
/// writes one changes its bits.
double sentinel() { return std::bit_cast<double>(0x7ff80000deadbeefULL); }

/// Doubles spanned by `count` rows of `width` at stride `ld`.
std::size_t operand_size(std::size_t count, std::size_t width,
                         std::size_t ld) {
  return count == 0 ? 0 : (count - 1) * ld + width;
}

/// `count` random rows of `width` at stride `ld`, the gaps and kPad
/// trailing doubles holding sentinel().
Vec padded(util::Rng& rng, std::size_t count, std::size_t width,
           std::size_t ld) {
  Vec v(operand_size(count, width, ld) + kPad, sentinel());
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t j = 0; j < width; ++j) {
      v[k * ld + j] = rng.uniform(-2.0, 2.0);
    }
  }
  return v;
}

/// The operand a padded buffer holds, without its trailing sentinels.
std::span<double> operand(Vec& v, std::size_t count, std::size_t width,
                          std::size_t ld) {
  return std::span<double>{v}.first(operand_size(count, width, ld));
}
std::span<const double> operand(const Vec& v, std::size_t count,
                                std::size_t width, std::size_t ld) {
  return std::span<const double>{v}.first(operand_size(count, width, ld));
}

/// Bit-for-bit equality: tells -0.0 from 0.0 and compares NaN payloads.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}
bool same_bits(double a, double b) { return same_bits({&a, 1}, {&b, 1}); }

/// Whether none of `v` is NaN or infinite (stride gaps included: call it on
/// dense results only).
bool all_finite(std::span<const double> v) {
  return std::all_of(v.begin(), v.end(),
                     [](double d) { return std::isfinite(d); });
}

/// The full kernel surface of one named backend, so identity tests can run
/// the same body against avx2/avx512/neon.
struct BackendFns {
  kernels::Backend backend;
  void (*gemv)(std::span<const double>, std::size_t, std::size_t,
               std::span<const double>, std::span<const double>,
               std::span<double>);
  void (*gemm)(std::span<const double>, std::size_t, std::size_t,
               std::span<const double>, std::size_t, std::span<const double>,
               std::span<double>);
  void (*gemm_transposed)(std::span<const double>, std::size_t, std::size_t,
                          std::span<const double>, std::size_t, std::size_t,
                          std::span<double>, std::size_t);
  void (*rank_k_update)(std::span<double>, std::size_t, std::size_t,
                        std::span<const double>, std::size_t,
                        std::span<const double>, std::size_t, std::size_t);
  double (*dot)(std::span<const double>, std::span<const double>);
};

const BackendFns kBackendFns[] = {
    {kernels::Backend::kAvx2, kernels::avx2::gemv, kernels::avx2::gemm,
     kernels::avx2::gemm_transposed, kernels::avx2::rank_k_update,
     kernels::avx2::dot},
    {kernels::Backend::kAvx512, kernels::avx512::gemv, kernels::avx512::gemm,
     kernels::avx512::gemm_transposed, kernels::avx512::rank_k_update,
     kernels::avx512::dot},
    {kernels::Backend::kNeon, kernels::neon::gemv, kernels::neon::gemm,
     kernels::neon::gemm_transposed, kernels::neon::rank_k_update,
     kernels::neon::dot},
};

const BackendFns& backend_fns(kernels::Backend backend) {
  for (const auto& fns : kBackendFns) {
    if (fns.backend == backend) return fns;
  }
  ADD_FAILURE() << "no named-backend table entry for "
                << kernels::backend_name(backend);
  return kBackendFns[0];
}

/// SIMD backends with a hardware implementation to compare against scalar.
std::vector<kernels::Backend> available_simd_backends() {
  std::vector<kernels::Backend> out;
  for (kernels::Backend b : {kernels::Backend::kAvx2,
                             kernels::Backend::kAvx512,
                             kernels::Backend::kNeon}) {
    if (kernels::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// Restores the dispatched backend on scope exit so a failing assertion in
/// one test cannot leak a forced backend into the next.
class BackendGuard {
 public:
  explicit BackendGuard(kernels::Backend backend)
      : original_(kernels::active_backend()) {
    kernels::set_backend(backend);
  }
  ~BackendGuard() { kernels::set_backend(original_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  kernels::Backend original_;
};

/// Scalar plus every SIMD backend this host can run.
std::vector<kernels::Backend> available_backends() {
  std::vector<kernels::Backend> out{kernels::Backend::kScalar};
  const std::vector<kernels::Backend> simd = available_simd_backends();
  out.insert(out.end(), simd.begin(), simd.end());
  return out;
}

TEST(KernelCanonicalOrder, DotMatchesFourLaneFmaReference) {
  util::Rng rng{101};
  for (std::size_t n : kSizes) {
    const Vec a = random_vec(rng, n);
    const Vec b = random_vec(rng, n);
    double lane[kernels::kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      lane[i % kernels::kLanes] = std::fma(a[i], b[i], lane[i % kernels::kLanes]);
    }
    const double expected = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    EXPECT_EQ(kernels::scalar::dot(a, b), expected) << "n=" << n;
    EXPECT_EQ(kernels::dot(a, b), expected) << "n=" << n;
  }
}

TEST(KernelCanonicalOrder, GemvIsBiasPlusCanonicalDotPerRow) {
  util::Rng rng{202};
  const std::size_t rows = 7, cols = 13;
  const Vec w = random_vec(rng, rows * cols);
  const Vec x = random_vec(rng, cols);
  const Vec b = random_vec(rng, rows);
  Vec y(rows, 0.0);
  kernels::scalar::gemv(w, rows, cols, x, b, y);
  for (std::size_t r = 0; r < rows; ++r) {
    const Vec row(w.begin() + static_cast<std::ptrdiff_t>(r * cols),
                  w.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    EXPECT_EQ(y[r], b[r] + kernels::scalar::dot(row, x)) << "row " << r;
  }
}

TEST(KernelCanonicalOrder, GemmTransposedIsOneFmaChainPerSample) {
  // Every backend's y_s = W^T g_s equals, bit for bit, the one-sample
  // reference: y_s[c] = fma(W[r][c], g_s[r], y_s[c]) over r = 0, 1, ...
  // from 0.0 — whatever the batch and however the backend tiles it.
  for (const kernels::Backend backend : available_backends()) {
    const BackendGuard guard{backend};
    util::Rng rng{606};
    for (std::size_t batch : kBatches) {
      for (std::size_t rows : kRows) {
        for (std::size_t cols : kTileCols) {
          const std::size_t ldg = rows + 1;
          const std::size_t ldy = cols + 3;
          const Vec w = random_vec(rng, rows * cols);
          const Vec g = padded(rng, batch, rows, ldg);
          Vec y(operand_size(batch, cols, ldy) + kPad, sentinel());
          kernels::gemm_transposed(w, rows, cols, operand(g, batch, rows, ldg),
                                   ldg, batch, operand(y, batch, cols, ldy),
                                   ldy);
          Vec expected(y.size(), sentinel());
          for (std::size_t s = 0; s < batch; ++s) {
            double* ys = expected.data() + s * ldy;
            for (std::size_t c = 0; c < cols; ++c) ys[c] = 0.0;
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t c = 0; c < cols; ++c) {
                ys[c] = std::fma(w[r * cols + c], g[s * ldg + r], ys[c]);
              }
            }
          }
          EXPECT_TRUE(same_bits(y, expected))
              << kernels::backend_name(backend) << " " << batch << " x "
              << rows << "x" << cols;
        }
      }
    }
  }
}

TEST(KernelCanonicalOrder, RankKUpdateIsMSuccessiveRank1Steps) {
  // Every backend's rank-k update equals, bit for bit, m rank-1 steps in
  // ascending k, each element a mul-then-add: W[r][c] += g_k[r] * x_k[c].
  for (const kernels::Backend backend : available_backends()) {
    const BackendGuard guard{backend};
    util::Rng rng{707};
    for (std::size_t m : kBatches) {
      for (std::size_t rows : kRows) {
        for (std::size_t cols : kTileCols) {
          const std::size_t ldg = rows + 2;
          const std::size_t ldx = cols + 1;
          const Vec g = padded(rng, m, rows, ldg);
          const Vec x = padded(rng, m, cols, ldx);
          Vec w = padded(rng, rows, cols, cols);
          Vec expected = w;
          kernels::rank_k_update(operand(w, rows, cols, cols), rows, cols,
                                 operand(g, m, rows, ldg), ldg,
                                 operand(x, m, cols, ldx), ldx, m);
          for (std::size_t k = 0; k < m; ++k) {
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t c = 0; c < cols; ++c) {
                const double step = g[k * ldg + r] * x[k * ldx + c];
                expected[r * cols + c] += step;
              }
            }
          }
          EXPECT_TRUE(same_bits(w, expected))
              << kernels::backend_name(backend) << " " << m << " x " << rows
              << "x" << cols;
        }
      }
    }
  }
}

/// Value-parameterized scalar-vs-backend identity: one instantiation per
/// SIMD backend, each skipping explicitly when this host cannot run it.
class KernelBitIdentityP
    : public ::testing::TestWithParam<kernels::Backend> {
 protected:
  void SetUp() override {
    if (!kernels::backend_available(GetParam())) {
      GTEST_SKIP() << kernels::backend_name(GetParam())
                   << " backend not available on this host";
    }
  }
};

TEST_P(KernelBitIdentityP, ScalarAndSimdAgreeOnEveryKernel) {
  const BackendFns& fns = backend_fns(GetParam());
  util::Rng rng{303};
  // Odd and even row counts both matter: the AVX-512 gemv pairs rows two
  // per register and handles a trailing odd row separately.
  for (std::size_t rows : kRows) {
    for (std::size_t cols : kSizes) {
      const Vec w = random_vec(rng, rows * cols);
      const Vec x = random_vec(rng, cols);
      const Vec b = random_vec(rng, rows);

      Vec ys(rows, 0.0), yv(rows, 0.0);
      kernels::scalar::gemv(w, rows, cols, x, b, ys);
      fns.gemv(w, rows, cols, x, b, yv);
      EXPECT_TRUE(same_bits(ys, yv)) << "gemv " << rows << "x" << cols;

      const Vec a2 = random_vec(rng, cols);
      EXPECT_TRUE(same_bits(kernels::scalar::dot(x, a2), fns.dot(x, a2)))
          << "dot n=" << cols;
    }
  }
  // The batched kernels over batches below, at and across the 4-sample
  // tiles, with stride gaps and trailing operand space full of sentinels:
  // a masked tail that read past a row would turn a result into NaN, and
  // one that wrote past a row would overwrite a sentinel.
  for (std::size_t batch : kBatches) {
    for (std::size_t rows : kRows) {
      for (std::size_t cols : kTileCols) {
        const std::string shape = std::to_string(batch) + " x " +
                                  std::to_string(rows) + "x" +
                                  std::to_string(cols);
        const std::size_t ldg = rows + 3;
        const std::size_t ldx = cols + 2;
        const std::size_t ldy = cols + 5;
        const Vec w = padded(rng, rows, cols, cols);
        const Vec b = padded(rng, 1, rows, rows);
        const Vec x = padded(rng, batch, cols, cols);
        const Vec g = padded(rng, batch, rows, ldg);
        const Vec xs = padded(rng, batch, cols, ldx);

        Vec zs(operand_size(batch, rows, rows) + kPad, sentinel());
        Vec zv = zs;
        kernels::scalar::gemm(operand(w, rows, cols, cols), rows, cols,
                              operand(x, batch, cols, cols), batch,
                              operand(b, 1, rows, rows),
                              operand(zs, batch, rows, rows));
        fns.gemm(operand(w, rows, cols, cols), rows, cols,
                 operand(x, batch, cols, cols), batch,
                 operand(b, 1, rows, rows), operand(zv, batch, rows, rows));
        EXPECT_TRUE(same_bits(zs, zv)) << "gemm " << shape;
        EXPECT_TRUE(all_finite(operand(zs, batch, rows, rows)))
            << "gemm " << shape;

        Vec ts(operand_size(batch, cols, ldy) + kPad, sentinel());
        Vec tv = ts;
        kernels::scalar::gemm_transposed(
            operand(w, rows, cols, cols), rows, cols,
            operand(g, batch, rows, ldg), ldg, batch,
            operand(ts, batch, cols, ldy), ldy);
        fns.gemm_transposed(operand(w, rows, cols, cols), rows, cols,
                            operand(g, batch, rows, ldg), ldg, batch,
                            operand(tv, batch, cols, ldy), ldy);
        EXPECT_TRUE(same_bits(ts, tv)) << "gemm_transposed " << shape;

        Vec ws = w, wv = w;
        kernels::scalar::rank_k_update(operand(ws, rows, cols, cols), rows,
                                       cols, operand(g, batch, rows, ldg), ldg,
                                       operand(xs, batch, cols, ldx), ldx,
                                       batch);
        fns.rank_k_update(operand(wv, rows, cols, cols), rows, cols,
                          operand(g, batch, rows, ldg), ldg,
                          operand(xs, batch, cols, ldx), ldx, batch);
        EXPECT_TRUE(same_bits(ws, wv)) << "rank_k_update " << shape;
        EXPECT_TRUE(all_finite(operand(ws, rows, cols, cols)))
            << "rank_k_update " << shape;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSimdBackends, KernelBitIdentityP,
    ::testing::Values(kernels::Backend::kAvx2, kernels::Backend::kAvx512,
                      kernels::Backend::kNeon),
    [](const ::testing::TestParamInfo<kernels::Backend>& info) {
      return std::string(kernels::backend_name(info.param));
    });

TEST(KernelBitIdentity, GemmEqualsRepeatedGemv) {
  // gemm tiles four samples at a time from 8 columns up; each of its
  // outputs must still equal gemv's, below, at and across the tiles.
  for (const kernels::Backend backend : available_backends()) {
    const BackendGuard guard{backend};
    util::Rng rng{404};
    for (std::size_t batch : kBatches) {
      for (std::size_t rows : {std::size_t{5}, std::size_t{6}}) {
        for (std::size_t cols : {std::size_t{4}, std::size_t{11},
                                 std::size_t{25}}) {
          const Vec w = random_vec(rng, rows * cols);
          const Vec b = random_vec(rng, rows);
          const Vec xb = random_vec(rng, batch * cols);
          Vec batched(batch * rows, 0.0);
          kernels::gemm(w, rows, cols, xb, batch, b, batched);
          for (std::size_t n = 0; n < batch; ++n) {
            Vec y(rows, 0.0);
            kernels::gemv(w, rows, cols,
                          std::span<const double>{xb}.subspan(n * cols, cols),
                          b, y);
            EXPECT_TRUE(same_bits(
                std::span<const double>{batched}.subspan(n * rows, rows), y))
                << kernels::backend_name(backend) << " sample " << n << " of "
                << batch << ", " << rows << "x" << cols;
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, SetBackendRespectsAvailability) {
  const kernels::Backend original = kernels::active_backend();
  for (kernels::Backend requested : {kernels::Backend::kAvx2,
                                     kernels::Backend::kAvx512,
                                     kernels::Backend::kNeon}) {
    const kernels::Backend got = kernels::set_backend(requested);
    if (kernels::backend_available(requested)) {
      EXPECT_EQ(got, requested);
      EXPECT_STREQ(kernels::backend_name(),
                   kernels::backend_name(requested));
    } else {
      // An unavailable request must degrade to scalar, never crash on an
      // illegal instruction.
      EXPECT_EQ(got, kernels::Backend::kScalar);
      EXPECT_STREQ(kernels::backend_name(), "scalar");
    }
    // The dispatched kernels must be callable whatever was selected.
    const Vec a{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_EQ(kernels::dot(a, a), kernels::scalar::dot(a, a));
  }
  EXPECT_EQ(kernels::set_backend(kernels::Backend::kScalar),
            kernels::Backend::kScalar);
  EXPECT_STREQ(kernels::backend_name(), "scalar");
  kernels::set_backend(original);
}

TEST(KernelDispatch, BestBackendIsAvailableAndOrdered) {
  const kernels::Backend best = kernels::best_backend();
  EXPECT_TRUE(kernels::backend_available(best));
  // best_backend prefers wider ISAs: anything it skipped over must be
  // unavailable.
  if (best != kernels::Backend::kAvx512) {
    EXPECT_FALSE(kernels::backend_available(kernels::Backend::kAvx512));
  }
  if (best != kernels::Backend::kAvx512 && best != kernels::Backend::kAvx2) {
    EXPECT_FALSE(kernels::backend_available(kernels::Backend::kAvx2));
  }
}

TEST(KernelDispatch, UnavailableNamedBackendsForwardToScalar) {
  // Namespaces for backends that were compiled out (e.g. neon on x86) are
  // still linkable and forward to scalar — bit-identical by definition.
  util::Rng rng{505};
  const Vec a = random_vec(rng, 33);
  const Vec b = random_vec(rng, 33);
  const double expected = kernels::scalar::dot(a, b);
  for (const auto& fns : kBackendFns) {
    if (kernels::backend_available(fns.backend)) continue;
    EXPECT_EQ(fns.dot(a, b), expected)
        << kernels::backend_name(fns.backend) << " stub";
  }
}

PpoAgent train_ppo_with(kernels::Backend backend, std::size_t threads,
                        bool continuous) {
  util::set_log_level(util::LogLevel::kWarn);
  BackendGuard guard{backend};
  PpoConfig cfg;
  cfg.hidden_sizes = {16, 8};
  cfg.n_steps = 128;
  cfg.minibatch_size = 32;
  cfg.epochs = 3;
  cfg.ent_coef = 0.01;
  std::unique_ptr<Env> env;
  if (continuous) {
    env = std::make_unique<TargetChaseEnv>(16);
  } else {
    env = std::make_unique<ContextualBanditEnv>(2, 3, 8);
  }
  PpoAgent agent{env->observation_size(), env->action_spec(), cfg, 31};
  util::ThreadPool pool{threads};
  agent.set_thread_pool(&pool);
  agent.train(*env, 384);
  agent.set_thread_pool(nullptr);
  return agent;
}

void expect_identical_params(const PpoAgent& agent, const PpoAgent& reference,
                             kernels::Backend backend, std::size_t threads) {
  const char* name = kernels::backend_name(backend);
  const auto ref_actor = reference.actor().params();
  const auto actor = agent.actor().params();
  ASSERT_EQ(actor.size(), ref_actor.size());
  for (std::size_t i = 0; i < actor.size(); ++i) {
    ASSERT_EQ(actor[i], ref_actor[i])
        << "actor param " << i << " differs (" << name << ", " << threads
        << " threads)";
  }
  const auto ref_critic = reference.critic().params();
  const auto critic = agent.critic().params();
  ASSERT_EQ(critic.size(), ref_critic.size());
  for (std::size_t i = 0; i < critic.size(); ++i) {
    ASSERT_EQ(critic[i], ref_critic[i])
        << "critic param " << i << " differs (" << name << ", " << threads
        << " threads)";
  }
  ASSERT_EQ(agent.log_std(), reference.log_std())
      << "log_std differs (" << name << ", " << threads << " threads)";
}

TEST(ParallelKernels, PpoDiscreteBitIdenticalAcrossBackendsAndThreads) {
  const std::vector<kernels::Backend> simd = available_simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend available";
  const PpoAgent reference =
      train_ppo_with(kernels::Backend::kScalar, 1, /*continuous=*/false);
  std::vector<kernels::Backend> backends{kernels::Backend::kScalar};
  backends.insert(backends.end(), simd.begin(), simd.end());
  for (kernels::Backend backend : backends) {
    for (std::size_t threads : kThreadCounts) {
      const PpoAgent agent = train_ppo_with(backend, threads, false);
      expect_identical_params(agent, reference, backend, threads);
    }
  }
}

TEST(ParallelKernels, PpoContinuousBitIdenticalAcrossBackendsAndThreads) {
  const std::vector<kernels::Backend> simd = available_simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend available";
  const PpoAgent reference =
      train_ppo_with(kernels::Backend::kScalar, 1, /*continuous=*/true);
  std::vector<kernels::Backend> backends{kernels::Backend::kScalar};
  backends.insert(backends.end(), simd.begin(), simd.end());
  for (kernels::Backend backend : backends) {
    for (std::size_t threads : kThreadCounts) {
      const PpoAgent agent = train_ppo_with(backend, threads, true);
      expect_identical_params(agent, reference, backend, threads);
    }
  }
}

}  // namespace
