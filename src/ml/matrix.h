// Dense row-major matrix with the small set of operations the SSR models
// need: products, transposed products, and SPD solves (Cholesky with a
// partial-pivot Gaussian fallback) for ridge-regularised normal equations.
//
// Products run on the register-tiled kernels in ml/kernels.h; per-element
// accumulation order is fixed (ascending k), so results are bit-identical
// to the straightforward loops the kernels replaced. Shape mismatches are
// hard errors (STAQ_CHECK) in every build type — these used to be
// release-mode-UB asserts.
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace staq::ml {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Creates a rows x cols matrix, zero-initialised (or filled with `fill`).
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(size_t r, size_t c) {
    STAQ_CHECK(r < rows_ && c < cols_, "Matrix element index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    STAQ_CHECK(r < rows_ && c < cols_, "Matrix element index out of range");
    return data_[r * cols_ + c];
  }

  /// Raw pointer to row `r` (contiguous, cols() doubles).
  double* row(size_t r) {
    STAQ_CHECK(r < rows_, "Matrix row index out of range");
    return data_.data() + r * cols_;
  }
  const double* row(size_t r) const {
    STAQ_CHECK(r < rows_, "Matrix row index out of range");
    return data_.data() + r * cols_;
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Reshapes to rows x cols and zero-fills, reusing existing storage when
  /// capacity allows (keeps per-epoch training loops allocation-free).
  void Reset(size_t rows, size_t cols);

  /// A new matrix containing the given rows (in order).
  Matrix SelectRows(const std::vector<uint32_t>& indices) const;

  Matrix Transposed() const;

  bool operator==(const Matrix&) const = default;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B. Requires a.cols() == b.rows().
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B into an existing matrix (resized/zeroed in place, storage
/// reused). `out` must not alias `a` or `b`.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// y = A * x for a vector x of size a.cols().
std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x);

/// A^T * A (gram matrix), computed directly (k x k for an n x k input).
Matrix Gram(const Matrix& a);

/// A^T * y for a vector y of size a.rows().
std::vector<double> TransposeVec(const Matrix& a, const std::vector<double>& y);

/// Solves A x = b for symmetric positive-definite A via Cholesky; falls
/// back to partially pivoted Gaussian elimination when A is not SPD.
/// Fails if A is singular to working precision.
util::Result<std::vector<double>> SolveLinearSystem(Matrix a,
                                                    std::vector<double> b);

}  // namespace staq::ml
