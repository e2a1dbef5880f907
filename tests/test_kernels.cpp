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

#include <cmath>
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
  void (*gemv_transposed)(std::span<const double>, std::size_t, std::size_t,
                          std::span<const double>, std::span<double>);
  void (*rank1_update)(std::span<double>, std::size_t, std::size_t,
                       std::span<const double>, std::span<const double>);
  double (*dot)(std::span<const double>, std::span<const double>);
};

const BackendFns kBackendFns[] = {
    {kernels::Backend::kAvx2, kernels::avx2::gemv, kernels::avx2::gemm,
     kernels::avx2::gemv_transposed, kernels::avx2::rank1_update,
     kernels::avx2::dot},
    {kernels::Backend::kAvx512, kernels::avx512::gemv, kernels::avx512::gemm,
     kernels::avx512::gemv_transposed, kernels::avx512::rank1_update,
     kernels::avx512::dot},
    {kernels::Backend::kNeon, kernels::neon::gemv, kernels::neon::gemm,
     kernels::neon::gemv_transposed, kernels::neon::rank1_update,
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
  for (std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                           std::size_t{8}, std::size_t{16}}) {
    for (std::size_t cols : kSizes) {
      const Vec w = random_vec(rng, rows * cols);
      const Vec x = random_vec(rng, cols);
      const Vec b = random_vec(rng, rows);
      const Vec g = random_vec(rng, rows);

      Vec ys(rows, 0.0), yv(rows, 0.0);
      kernels::scalar::gemv(w, rows, cols, x, b, ys);
      fns.gemv(w, rows, cols, x, b, yv);
      EXPECT_EQ(ys, yv) << "gemv " << rows << "x" << cols;

      const std::size_t batch = 3;
      const Vec xb = random_vec(rng, batch * cols);
      Vec zs(batch * rows, 0.0), zv(batch * rows, 0.0);
      kernels::scalar::gemm(w, rows, cols, xb, batch, b, zs);
      fns.gemm(w, rows, cols, xb, batch, b, zv);
      EXPECT_EQ(zs, zv) << "gemm " << rows << "x" << cols;

      Vec ts(cols, 0.0), tv(cols, 0.0);
      kernels::scalar::gemv_transposed(w, rows, cols, g, ts);
      fns.gemv_transposed(w, rows, cols, g, tv);
      EXPECT_EQ(ts, tv) << "gemv_transposed " << rows << "x" << cols;

      Vec ws = w, wv = w;
      kernels::scalar::rank1_update(ws, rows, cols, g, x);
      fns.rank1_update(wv, rows, cols, g, x);
      EXPECT_EQ(ws, wv) << "rank1_update " << rows << "x" << cols;

      const Vec a2 = random_vec(rng, cols);
      EXPECT_EQ(kernels::scalar::dot(x, a2), fns.dot(x, a2))
          << "dot n=" << cols;
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
  util::Rng rng{404};
  const std::size_t rows = 5, cols = 11, batch = 4;
  const Vec w = random_vec(rng, rows * cols);
  const Vec b = random_vec(rng, rows);
  const Vec xb = random_vec(rng, batch * cols);
  Vec batched(batch * rows, 0.0);
  kernels::gemm(w, rows, cols, xb, batch, b, batched);
  for (std::size_t n = 0; n < batch; ++n) {
    const Vec x(xb.begin() + static_cast<std::ptrdiff_t>(n * cols),
                xb.begin() + static_cast<std::ptrdiff_t>((n + 1) * cols));
    Vec y(rows, 0.0);
    kernels::gemv(w, rows, cols, x, b, y);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(batched[n * rows + r], y[r]) << "sample " << n << " row " << r;
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
