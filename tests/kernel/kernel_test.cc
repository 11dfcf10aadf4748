#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "device/executor.h"
#include "kernel/kernel_computer.h"
#include "kernel/kernel_function.h"

namespace gmpsvm {
namespace {

CsrMatrix RandomSparse(int64_t rows, int64_t cols, double density, uint64_t seed) {
  Rng rng(seed);
  CsrBuilder b(cols);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int32_t> idx;
    std::vector<double> val;
    for (int32_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(density)) {
        idx.push_back(c);
        val.push_back(rng.Normal());
      }
    }
    b.AddRow(idx, val);
  }
  return ValueOrDie(b.Finish());
}

SimExecutor MakeExecutor() { return SimExecutor(ExecutorModel::TeslaP100()); }

TEST(KernelFunctionTest, GaussianBasics) {
  KernelParams p;
  p.type = KernelType::kGaussian;
  p.gamma = 0.5;
  KernelFunction fn(p);
  // K(x, x) = 1 for Gaussian.
  EXPECT_DOUBLE_EQ(fn.SelfKernel(3.7), 1.0);
  // ||xi - xj||^2 = 1+1-0 = 2 for orthonormal vectors.
  EXPECT_DOUBLE_EQ(fn.FromDot(0.0, 1.0, 1.0), std::exp(-1.0));
}

TEST(KernelFunctionTest, GaussianSymmetricAndBounded) {
  KernelParams p;
  p.gamma = 0.3;
  KernelFunction fn(p);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    double ni = rng.Uniform(0, 5), nj = rng.Uniform(0, 5);
    double dot = rng.Uniform(-1, 1) * std::sqrt(ni * nj);
    double kij = fn.FromDot(dot, ni, nj);
    double kji = fn.FromDot(dot, nj, ni);
    EXPECT_DOUBLE_EQ(kij, kji);
    EXPECT_GT(kij, 0.0);
    EXPECT_LE(kij, 1.0 + 1e-12);
  }
}

TEST(KernelTypeStringTest, RoundTrip) {
  auto back = KernelTypeFromString(KernelTypeToString(KernelType::kGaussian));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, KernelType::kGaussian);
  EXPECT_TRUE(KernelTypeFromString("rbf").ok());
  EXPECT_FALSE(KernelTypeFromString("bogus").ok());
  // The Gaussian is the only kernel: the other names of Section 2.1 are
  // unknown.
  for (const char* name : {"linear", "polynomial", "poly", "sigmoid"}) {
    auto other = KernelTypeFromString(name);
    ASSERT_FALSE(other.ok()) << name;
    EXPECT_TRUE(other.status().IsInvalidArgument()) << name;
  }
}

TEST(KernelComputerTest, BlockMatchesPointwise) {
  CsrMatrix x = RandomSparse(25, 10, 0.4, 5);
  KernelParams p;
  p.gamma = 0.25;
  KernelComputer kc(&x, p);
  SimExecutor exec = MakeExecutor();

  std::vector<int32_t> batch = {0, 10, 24};
  std::vector<int32_t> targets = {1, 2, 3, 4, 5};
  std::vector<double> out(batch.size() * targets.size());
  kc.ComputeBlock(batch, targets, &exec, kDefaultStream, out.data());

  for (size_t bi = 0; bi < batch.size(); ++bi) {
    for (size_t tj = 0; tj < targets.size(); ++tj) {
      EXPECT_NEAR(out[bi * targets.size() + tj], kc.Compute(batch[bi], targets[tj]),
                  1e-12);
    }
  }
}

TEST(KernelComputerTest, CountsKernelValuesAndAdvancesClock) {
  CsrMatrix x = RandomSparse(25, 10, 0.4, 5);
  KernelParams p;
  KernelComputer kc(&x, p);
  SimExecutor exec = MakeExecutor();
  std::vector<int32_t> batch = {0, 1};
  std::vector<int32_t> targets = {2, 3, 4};
  std::vector<double> out(6);
  kc.ComputeBlock(batch, targets, &exec, kDefaultStream, out.data());
  EXPECT_EQ(exec.counters().kernel_values_computed, 6);
  EXPECT_GT(exec.NowSeconds(), 0.0);
  EXPECT_EQ(exec.counters().launches, 1);
}

TEST(KernelComputerTest, CrossMatrixBlocks) {
  CsrMatrix train = RandomSparse(15, 12, 0.4, 1);
  CsrMatrix test = RandomSparse(6, 12, 0.4, 2);
  KernelParams p;
  p.gamma = 0.1;
  KernelComputer kc(&test, &train, p);
  SimExecutor exec = MakeExecutor();
  std::vector<int32_t> batch = {0, 5};
  std::vector<int32_t> targets = {0, 7, 14};
  std::vector<double> out(6);
  kc.ComputeBlock(batch, targets, &exec, kDefaultStream, out.data());
  for (size_t bi = 0; bi < batch.size(); ++bi) {
    for (size_t tj = 0; tj < targets.size(); ++tj) {
      EXPECT_NEAR(out[bi * targets.size() + tj], kc.Compute(batch[bi], targets[tj]),
                  1e-12);
    }
  }
}

TEST(KernelComputerTest, GaussianDiagonalIsOne) {
  CsrMatrix x = RandomSparse(10, 8, 0.6, 9);
  KernelParams p;
  p.gamma = 0.7;
  KernelComputer kc(&x, p);
  for (int64_t i = 0; i < x.rows(); ++i) {
    EXPECT_NEAR(kc.Compute(i, i), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(kc.SelfKernelA(i), 1.0);
  }
}

TEST(KernelComputerTest, MercerSymmetry) {
  CsrMatrix x = RandomSparse(12, 6, 0.5, 17);
  KernelParams p;
  p.gamma = 0.4;
  KernelComputer kc(&x, p);
  for (int64_t i = 0; i < 12; ++i) {
    for (int64_t j = i + 1; j < 12; ++j) {
      EXPECT_NEAR(kc.Compute(i, j), kc.Compute(j, i), 1e-12);
    }
  }
}

TEST(DenseKernelComputerTest, AgreesWithSparse) {
  CsrMatrix x = RandomSparse(14, 9, 0.5, 23);
  DenseMatrix d(x.rows(), x.cols(), x.ToDense());
  KernelParams p;
  p.gamma = 0.2;
  KernelComputer sparse_kc(&x, p);
  DenseKernelComputer dense_kc(&d, p);
  SimExecutor exec = MakeExecutor();

  std::vector<int32_t> batch = {0, 7};
  std::vector<int32_t> targets = {1, 3, 13};
  std::vector<double> sparse_out(6), dense_out(6);
  sparse_kc.ComputeBlock(batch, targets, &exec, kDefaultStream, sparse_out.data());
  dense_kc.ComputeBlock(batch, targets, &exec, kDefaultStream, dense_out.data());
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(sparse_out[i], dense_out[i], 1e-12);
}

TEST(DenseKernelComputerTest, ChargesMoreThanSparseOnSparseData) {
  CsrMatrix x = RandomSparse(40, 300, 0.03, 31);
  DenseMatrix d(x.rows(), x.cols(), x.ToDense());
  KernelParams p;
  KernelComputer sparse_kc(&x, p);
  DenseKernelComputer dense_kc(&d, p);

  std::vector<int32_t> batch = {0, 1, 2, 3};
  std::vector<int32_t> targets;
  for (int32_t t = 4; t < 40; ++t) targets.push_back(t);
  std::vector<double> out(batch.size() * targets.size());

  SimExecutor sparse_exec = MakeExecutor();
  sparse_kc.ComputeBlock(batch, targets, &sparse_exec, kDefaultStream, out.data());
  SimExecutor dense_exec = MakeExecutor();
  dense_kc.ComputeBlock(batch, targets, &dense_exec, kDefaultStream, out.data());

  EXPECT_GT(dense_exec.counters().flops, 3.0 * sparse_exec.counters().flops);
}

TEST(KernelComputerTest, BlockIsBitwiseAtAnyHostThreadCount) {
  // On the AVX2 tier 39 batch rows make two 16-row panels and one partial
  // 8-row panel. Against 2,000 targets both the panels and the transform's
  // rows carry enough flops for ParallelFor to split them across the host
  // pool: values and charges must be the one-thread block's bits.
  CsrMatrix x = RandomSparse(2000, 40, 0.3, 91);
  KernelParams p;
  p.gamma = 0.5;
  KernelComputer kc(&x, p);
  std::vector<int32_t> batch, targets;
  for (int32_t i = 0; i < 39; ++i) batch.push_back((i * 11) % 2000);
  for (int32_t t = 0; t < 2000; ++t) targets.push_back(t);

  std::vector<double> want(batch.size() * targets.size());
  SimExecutor one = MakeExecutor();
  kc.ComputeBlock(batch, targets, &one, kDefaultStream, want.data());
  ExecutorModel model = ExecutorModel::TeslaP100();
  model.host_threads = 4;
  SimExecutor four(model);
  std::vector<double> got(want.size(), -1.0);
  kc.ComputeBlock(batch, targets, &four, kDefaultStream, got.data());
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)),
            0);
  EXPECT_EQ(one.counters().flops, four.counters().flops);
  EXPECT_EQ(one.NowSeconds(), four.NowSeconds());
}

// Property sweep: batched block equals pointwise evaluation at several
// kernel widths.
class KernelBlockParamTest : public ::testing::TestWithParam<double> {};

TEST_P(KernelBlockParamTest, BlockEqualsPointwise) {
  CsrMatrix x = RandomSparse(18, 7, 0.5, 77);
  KernelParams p;
  p.gamma = GetParam();
  KernelComputer kc(&x, p);
  SimExecutor exec = MakeExecutor();

  std::vector<int32_t> batch = {2, 9, 17};
  std::vector<int32_t> targets = {0, 1, 5, 8, 16};
  std::vector<double> out(batch.size() * targets.size());
  kc.ComputeBlock(batch, targets, &exec, kDefaultStream, out.data());
  for (size_t bi = 0; bi < batch.size(); ++bi) {
    for (size_t tj = 0; tj < targets.size(); ++tj) {
      EXPECT_NEAR(out[bi * targets.size() + tj], kc.Compute(batch[bi], targets[tj]),
                  1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, KernelBlockParamTest,
                         ::testing::Values(0.03, 0.5, 2.0));

}  // namespace
}  // namespace gmpsvm
