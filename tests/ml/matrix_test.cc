#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "ml/kernels.h"
#include "util/rng.h"

namespace staq::ml {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
  EXPECT_FALSE(m.empty());
  EXPECT_TRUE(Matrix().empty());
}

TEST(MatrixTest, Identity) {
  Matrix eye = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, SelectRows) {
  Matrix m(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    m(i, 0) = static_cast<double>(i);
    m(i, 1) = static_cast<double>(10 * i);
  }
  Matrix sel = m.SelectRows({2, 0});
  ASSERT_EQ(sel.rows(), 2u);
  EXPECT_DOUBLE_EQ(sel(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(sel(1, 0), 0.0);
}

TEST(MatrixTest, Transposed) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 5;
  m(1, 1) = 7;
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(1, 1), 7.0);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatMulTest, IdentityIsNeutral) {
  util::Rng rng(1);
  Matrix m(4, 4);
  for (auto& v : m.data()) v = rng.Uniform(-1, 1);
  Matrix prod = MatMul(m, Matrix::Identity(4));
  EXPECT_EQ(prod, m);
}

TEST(MatVecTest, KnownProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  auto y = MatVec(a, {1, 1, 1});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
}

TEST(GramTest, MatchesExplicitTransposeProduct) {
  util::Rng rng(2);
  Matrix a(7, 4);
  for (auto& v : a.data()) v = rng.Uniform(-2, 2);
  Matrix g = Gram(a);
  Matrix expected = MatMul(a.Transposed(), a);
  ASSERT_EQ(g.rows(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(g(i, j), expected(i, j), 1e-9);
    }
  }
}

TEST(TransposeVecTest, MatchesExplicit) {
  util::Rng rng(3);
  Matrix a(5, 3);
  std::vector<double> y(5);
  for (auto& v : a.data()) v = rng.Uniform(-2, 2);
  for (auto& v : y) v = rng.Uniform(-2, 2);
  auto atv = TransposeVec(a, y);
  auto expected = MatVec(a.Transposed(), y);
  ASSERT_EQ(atv.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(atv[i], expected[i], 1e-12);
}

TEST(SolveTest, DiagonalSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(1, 1) = 4;
  auto x = SolveLinearSystem(a, {6, 8});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x.value()[0], 3);
  EXPECT_DOUBLE_EQ(x.value()[1], 2);
}

TEST(SolveTest, SpdSystemViaCholesky) {
  // A = B^T B + I is SPD.
  util::Rng rng(4);
  Matrix b(6, 6);
  for (auto& v : b.data()) v = rng.Uniform(-1, 1);
  Matrix a = Gram(b);
  for (size_t i = 0; i < 6; ++i) a(i, i) += 1.0;
  std::vector<double> truth(6);
  for (auto& v : truth) v = rng.Uniform(-3, 3);
  auto rhs = MatVec(a, truth);
  auto solved = SolveLinearSystem(a, rhs);
  ASSERT_TRUE(solved.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(solved.value()[i], truth[i], 1e-8);
  }
}

TEST(SolveTest, NonSymmetricFallsBackToGaussian) {
  Matrix a(2, 2);
  a(0, 0) = 0;  // zero pivot forces pivoting
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  auto x = SolveLinearSystem(a, {3, 5});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x.value()[0], 5);
  EXPECT_DOUBLE_EQ(x.value()[1], 3);
}

TEST(SolveTest, SingularFails) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;  // rank 1
  EXPECT_FALSE(SolveLinearSystem(a, {1, 2}).ok());
}

TEST(SolveTest, DimensionMismatchRejected) {
  Matrix a(2, 3);
  EXPECT_FALSE(SolveLinearSystem(a, {1, 2}).ok());
  Matrix sq(2, 2);
  EXPECT_FALSE(SolveLinearSystem(sq, {1, 2, 3}).ok());
}

// ---- register-tiled kernels vs straightforward reference -----------------
// The GEMMs keep register tiles of C across the whole k loop, but per
// output element they must accumulate from C's initial value in plain
// ascending-k order: results are compared bit for bit against the naive
// loops, not within a tolerance.

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = a(i, k);
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(k, j);
    }
  }
  return c;
}

bool SameBits(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::bit_cast<uint64_t>(x[i]) != std::bit_cast<uint64_t>(y[i])) {
      return false;
    }
  }
  return true;
}

/// A rows x cols operand with leading dimension ld > cols: NaN padding, so
/// a kernel that read past a row would poison its result. Row 0 and column
/// 0 hold only signed zeros, so in each kernel one row or column of C sums
/// nothing but zeros and keeps C's initial sign of zero only if the kernel
/// accumulates onto C's initial value.
std::vector<double> Operand(size_t rows, size_t cols, size_t ld,
                            util::Rng* rng) {
  std::vector<double> v(rows * ld, std::nan(""));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      v[r * ld + c] =
          r == 0 || c == 0 ? ((r + c) % 2 ? -0.0 : 0.0) : rng->Uniform(-1, 1);
    }
  }
  return v;
}

/// C's initial contents: a mix of -0.0, +0.0 and values, NaN padding.
std::vector<double> Accumulator(size_t rows, size_t cols, size_t ld,
                                util::Rng* rng) {
  std::vector<double> v(rows * ld, std::nan(""));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const size_t pick = (r + 2 * c) % 3;
      v[r * ld + c] = pick == 0 ? -0.0 : pick == 1 ? 0.0 : rng->Uniform(-1, 1);
    }
  }
  return v;
}

TEST(KernelTest, BlockedGemmBitIdenticalToNaive) {
  util::Rng rng(5);
  // Through MatMul: sizes straddling the 2 x 8 register tile.
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                         {3, 5, 2},
                         {4, 64, 8},
                         {5, 65, 7},
                         {17, 130, 33}}) {
    Matrix a(m, k), b(k, n);
    for (auto& v : a.data()) v = rng.Uniform(-1, 1);
    for (auto& v : b.data()) v = rng.Uniform(-1, 1);
    Matrix fast = MatMul(a, b);
    Matrix naive = NaiveMatMul(a, b);
    EXPECT_EQ(fast, naive) << m << "x" << k << "x" << n;
  }

  // Raw kernels over every tile/tail combination (n = 1 is the MLP output
  // layer), with leading dimensions wider than the matrices and C seeded
  // with signed zeros.
  const size_t k = 20;
  const size_t sizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 32, 33, 64};
  for (size_t m : sizes) {
    for (size_t n : sizes) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n);
      const size_t ldc = n + 2;
      const std::vector<double> c0 = Accumulator(m, n, ldc, &rng);

      // GemmAccumulate: C += A (m x k) B (k x n).
      {
        const size_t lda = k + 3, ldb = n + 5;
        const auto a = Operand(m, k, lda, &rng);
        const auto b = Operand(k, n, ldb, &rng);
        std::vector<double> fast = c0, naive = c0;
        kernels::GemmAccumulate(m, k, n, a.data(), lda, b.data(), ldb,
                                fast.data(), ldc);
        for (size_t i = 0; i < m; ++i) {
          for (size_t kk = 0; kk < k; ++kk) {
            for (size_t j = 0; j < n; ++j) {
              naive[i * ldc + j] += a[i * lda + kk] * b[kk * ldb + j];
            }
          }
        }
        EXPECT_TRUE(SameBits(fast, naive)) << "GemmAccumulate";
      }
      // GemmAtB: C += A^T B for A (k x m), B (k x n), ascending sample k.
      {
        const size_t lda = m + 3, ldb = n + 5;
        const auto a = Operand(k, m, lda, &rng);
        const auto b = Operand(k, n, ldb, &rng);
        std::vector<double> fast = c0, naive = c0;
        kernels::GemmAtB(k, m, n, a.data(), lda, b.data(), ldb, fast.data(),
                         ldc);
        for (size_t l = 0; l < k; ++l) {
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              naive[i * ldc + j] += a[l * lda + i] * b[l * ldb + j];
            }
          }
        }
        EXPECT_TRUE(SameBits(fast, naive)) << "GemmAtB";
      }
      // GemmAtBt: C += A^T B^T for A (k x m), B (n x k) — the MLP's
      // next-delta L W^T with A = L^T. The reference is a dot product per
      // element, ascending t, starting from C's value.
      {
        const size_t lda = m + 3, ldb = k + 5;
        const auto a = Operand(k, m, lda, &rng);
        const auto b = Operand(n, k, ldb, &rng);
        std::vector<double> fast = c0, naive = c0;
        kernels::GemmAtBt(k, m, n, a.data(), lda, b.data(), ldb, fast.data(),
                          ldc);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            double acc = naive[i * ldc + j];
            for (size_t t = 0; t < k; ++t) {
              acc += b[j * ldb + t] * a[t * lda + i];
            }
            naive[i * ldc + j] = acc;
          }
        }
        EXPECT_TRUE(SameBits(fast, naive)) << "GemmAtBt";
      }
    }
  }
}

TEST(KernelTest, MatMulIntoReusesStorageAndMatchesMatMul) {
  util::Rng rng(6);
  Matrix a(9, 6), b(6, 4);
  for (auto& v : a.data()) v = rng.Uniform(-1, 1);
  for (auto& v : b.data()) v = rng.Uniform(-1, 1);
  Matrix out(9, 4, 123.0);  // stale contents must be overwritten
  MatMulInto(a, b, &out);
  EXPECT_EQ(out, MatMul(a, b));
  // And again with a shape change.
  Matrix a2(2, 6);
  for (auto& v : a2.data()) v = rng.Uniform(-1, 1);
  MatMulInto(a2, b, &out);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out, MatMul(a2, b));
}

TEST(MatrixTest, ResetReshapesAndZeroes) {
  Matrix m(3, 3, 7.0);
  m.Reset(2, 5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  for (double v : m.data()) EXPECT_EQ(v, 0.0);
  m.Reset(0, 4);
  EXPECT_TRUE(m.empty());
}

TEST(MatMulTest, EmptyOperandsProduceEmptyProduct) {
  Matrix a(0, 3), b(3, 2);
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 2u);
}

// ---- hard bounds/shape checks (formerly release-mode-UB asserts) ----------

using MatrixDeathTest = ::testing::Test;

TEST(MatrixDeathTest, ElementAccessOutOfRangeAborts) {
  Matrix m(2, 2);
  EXPECT_DEATH(m(2, 0), "CHECK failed");
  EXPECT_DEATH(m(0, 2), "CHECK failed");
}

TEST(MatrixDeathTest, RowAccessOutOfRangeAborts) {
  Matrix m(2, 2);
  EXPECT_DEATH(m.row(5), "CHECK failed");
}

TEST(MatrixDeathTest, MatMulShapeMismatchAborts) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_DEATH(MatMul(a, b), "CHECK failed");
}

TEST(MatrixDeathTest, MatMulIntoRejectsAliasedOutput) {
  Matrix a(2, 2), b(2, 2);
  EXPECT_DEATH(MatMulInto(a, b, &a), "CHECK failed");
}

}  // namespace
}  // namespace staq::ml
