// Bit-exactness gates for the dispatched SIMD kernel layer (rl/kernels.hpp).
// The contract under test: the scalar fallback and every SIMD backend (AVX2,
// AVX-512, NEON) compute the same canonical accumulation order — 4 fma
// lanes — so every kernel agrees bit for bit between backends, and
// therefore end-to-end PPO training produces byte-identical parameters
// whichever backend (and thread count) computed it. Every suite runs over
// kernels::available_backends(), the backends this host can run; on a
// scalar-only host the cross-backend suites skip explicitly (GTEST_SKIP), or
// have no instance, rather than pass silently. The ParallelKernels suite
// deliberately matches the Parallel* naming so the TSan CI lane picks it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// The scalar reference backend, first in every backend list.
const kernels::Backend& scalar() { return *kernels::available_backends()[0]; }

/// Restores the dispatched backend on scope exit so a failing assertion in
/// one test cannot leak a forced backend into the next.
class BackendGuard {
 public:
  explicit BackendGuard(const kernels::Backend& backend)
      : original_(kernels::active_backend()) {
    kernels::set_backend(backend);
  }
  ~BackendGuard() { kernels::set_backend(original_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  const kernels::Backend& original_;
};

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
    EXPECT_EQ(scalar().dot(a, b), expected) << "n=" << n;
    EXPECT_EQ(kernels::dot(a, b), expected) << "n=" << n;
  }
}

TEST(KernelCanonicalOrder, GemmIsBiasPlusCanonicalDotPerRow) {
  util::Rng rng{202};
  const std::size_t rows = 7, cols = 13, batch = 5;
  const Vec w = random_vec(rng, rows * cols);
  const Vec x = random_vec(rng, batch * cols);
  const Vec b = random_vec(rng, rows);
  Vec y(batch * rows, 0.0);
  scalar().gemm(w, rows, cols, x, batch, b, y);
  for (std::size_t n = 0; n < batch; ++n) {
    const std::span<const double> xn{x.data() + n * cols, cols};
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<const double> row{w.data() + r * cols, cols};
      EXPECT_EQ(y[n * rows + r], b[r] + scalar().dot(row, xn))
          << "sample " << n << " row " << r;
    }
  }
}

TEST(KernelCanonicalOrder, GemmTransposedIsOneFmaChainPerSample) {
  // Every backend's y_s = W^T g_s equals, bit for bit, the one-sample
  // reference: y_s[c] = fma(W[r][c], g_s[r], y_s[c]) over r = 0, 1, ...
  // from 0.0 — whatever the batch and however the backend tiles it.
  for (const kernels::Backend* backend : kernels::available_backends()) {
    const BackendGuard guard{*backend};
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
              << backend->name << " " << batch << " x "
              << rows << "x" << cols;
        }
      }
    }
  }
}

TEST(KernelCanonicalOrder, RankKUpdateIsMSuccessiveRank1Steps) {
  // Every backend's rank-k update equals, bit for bit, m rank-1 steps in
  // ascending k, each element a mul-then-add: W[r][c] += g_k[r] * x_k[c].
  for (const kernels::Backend* backend : kernels::available_backends()) {
    const BackendGuard guard{*backend};
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
              << backend->name << " " << m << " x " << rows
              << "x" << cols;
        }
      }
    }
  }
}

/// Position of a SIMD backend in kernels::available_backends(). A plain
/// 4-byte struct keeps the IDs ctest prints stable
/// (".../avx2  # GetParam() = 4-byte object <01-00 00-00>").
struct SimdBackend {
  std::uint32_t index;
};

/// Every SIMD backend this host can run, one instance each; none on a
/// scalar-only host.
std::vector<SimdBackend> simd_backends() {
  std::vector<SimdBackend> out;
  for (std::uint32_t i = 1; i < kernels::available_backends().size(); ++i) {
    out.push_back({i});
  }
  return out;
}

/// Value-parameterized scalar-vs-backend identity: one instantiation per
/// SIMD backend this host can run.
class KernelBitIdentityP : public ::testing::TestWithParam<SimdBackend> {};

TEST_P(KernelBitIdentityP, ScalarAndSimdAgreeOnEveryKernel) {
  const kernels::Backend& simd =
      *kernels::available_backends()[GetParam().index];
  util::Rng rng{303};
  // One-sample gemm over every column tail. Odd and even row counts both
  // matter: AVX-512's per-row loop pairs rows two per register and handles
  // a trailing odd row separately.
  for (std::size_t rows : kRows) {
    for (std::size_t cols : kSizes) {
      const Vec w = random_vec(rng, rows * cols);
      const Vec x = random_vec(rng, cols);
      const Vec b = random_vec(rng, rows);

      Vec ys(rows, 0.0), yv(rows, 0.0);
      scalar().gemm(w, rows, cols, x, 1, b, ys);
      simd.gemm(w, rows, cols, x, 1, b, yv);
      EXPECT_TRUE(same_bits(ys, yv)) << "gemm 1 x " << rows << "x" << cols;

      const Vec a2 = random_vec(rng, cols);
      EXPECT_TRUE(same_bits(scalar().dot(x, a2), simd.dot(x, a2)))
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
        scalar().gemm(operand(w, rows, cols, cols), rows, cols,
                              operand(x, batch, cols, cols), batch,
                              operand(b, 1, rows, rows),
                              operand(zs, batch, rows, rows));
        simd.gemm(operand(w, rows, cols, cols), rows, cols,
                 operand(x, batch, cols, cols), batch,
                 operand(b, 1, rows, rows), operand(zv, batch, rows, rows));
        EXPECT_TRUE(same_bits(zs, zv)) << "gemm " << shape;
        EXPECT_TRUE(all_finite(operand(zs, batch, rows, rows)))
            << "gemm " << shape;

        Vec ts(operand_size(batch, cols, ldy) + kPad, sentinel());
        Vec tv = ts;
        scalar().gemm_transposed(
            operand(w, rows, cols, cols), rows, cols,
            operand(g, batch, rows, ldg), ldg, batch,
            operand(ts, batch, cols, ldy), ldy);
        simd.gemm_transposed(operand(w, rows, cols, cols), rows, cols,
                            operand(g, batch, rows, ldg), ldg, batch,
                            operand(tv, batch, cols, ldy), ldy);
        EXPECT_TRUE(same_bits(ts, tv)) << "gemm_transposed " << shape;

        Vec ws = w, wv = w;
        scalar().rank_k_update(operand(ws, rows, cols, cols), rows,
                                       cols, operand(g, batch, rows, ldg), ldg,
                                       operand(xs, batch, cols, ldx), ldx,
                                       batch);
        simd.rank_k_update(operand(wv, rows, cols, cols), rows, cols,
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
    AllSimdBackends, KernelBitIdentityP, ::testing::ValuesIn(simd_backends()),
    [](const ::testing::TestParamInfo<SimdBackend>& info) {
      return std::string(kernels::available_backends()[info.param.index]->name);
    });
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(KernelBitIdentityP);

TEST(KernelBitIdentity, GemmEqualsPerSampleGemm) {
  // gemm tiles four samples at a time from 8 columns up; each of its
  // outputs must still equal that sample's one-sample gemm, below, at and
  // across the tiles.
  for (const kernels::Backend* backend : kernels::available_backends()) {
    const BackendGuard guard{*backend};
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
            kernels::gemm(w, rows, cols,
                          std::span<const double>{xb}.subspan(n * cols, cols),
                          1, b, y);
            EXPECT_TRUE(same_bits(
                std::span<const double>{batched}.subspan(n * rows, rows), y))
                << backend->name << " sample " << n << " of "
                << batch << ", " << rows << "x" << cols;
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, SetBackendRespectsAvailability) {
  // set_backend accepts exactly the tables in available_backends(), so every
  // entry round-trips and its kernels are callable on this host.
  const kernels::Backend& original = kernels::active_backend();
  const Vec a{1.0, 2.0, 3.0, 4.0, 5.0};
  for (const kernels::Backend* backend : kernels::available_backends()) {
    kernels::set_backend(*backend);
    EXPECT_EQ(&kernels::active_backend(), backend);
    EXPECT_STREQ(kernels::backend_name(), backend->name);
    EXPECT_EQ(kernels::dot(a, a), 55.0) << backend->name;
  }
  kernels::set_backend(original);
}

TEST(KernelDispatch, BestBackendIsAvailableAndOrdered) {
  const auto backends = kernels::available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.front()->name, "scalar");
  for (std::size_t i = 0; i < backends.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(backends[i], backends[j]);
      EXPECT_STRNE(backends[i]->name, backends[j]->name);
    }
  }
  // At startup the kernels dispatch to the widest backend, the last entry.
  EXPECT_EQ(&kernels::active_backend(), backends.back());
}

PpoAgent train_ppo_with(const kernels::Backend& backend, std::size_t threads,
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
                             const kernels::Backend& backend,
                             std::size_t threads) {
  const char* name = backend.name;
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
  if (kernels::available_backends().size() < 2) {
    GTEST_SKIP() << "no SIMD backend available";
  }
  const PpoAgent reference = train_ppo_with(scalar(), 1, /*continuous=*/false);
  for (const kernels::Backend* backend : kernels::available_backends()) {
    for (std::size_t threads : kThreadCounts) {
      const PpoAgent agent = train_ppo_with(*backend, threads, false);
      expect_identical_params(agent, reference, *backend, threads);
    }
  }
}

TEST(ParallelKernels, PpoContinuousBitIdenticalAcrossBackendsAndThreads) {
  if (kernels::available_backends().size() < 2) {
    GTEST_SKIP() << "no SIMD backend available";
  }
  const PpoAgent reference = train_ppo_with(scalar(), 1, /*continuous=*/true);
  for (const kernels::Backend* backend : kernels::available_backends()) {
    for (std::size_t threads : kThreadCounts) {
      const PpoAgent agent = train_ppo_with(*backend, threads, true);
      expect_identical_params(agent, reference, *backend, threads);
    }
  }
}

}  // namespace
