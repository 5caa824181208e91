#include "ml/matrix.h"

#include <cmath>
#include <cstring>

#include "ml/kernels.h"

namespace staq::ml {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::Reset(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

Matrix Matrix::SelectRows(const std::vector<uint32_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    STAQ_CHECK(indices[i] < rows_, "SelectRows index out of range");
    std::memcpy(out.row(i), row(indices[i]), cols_ * sizeof(double));
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) {
      out.data_[c * rows_ + r] = src[c];
    }
  }
  return out;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  STAQ_CHECK(a.cols() == b.rows(), "MatMul: inner dimensions differ");
  Matrix out(a.rows(), b.cols());
  kernels::GemmAccumulate(a.rows(), a.cols(), b.cols(), a.data().data(),
                          a.cols(), b.data().data(), b.cols(),
                          out.data().data(), out.cols());
  return out;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  STAQ_CHECK(a.cols() == b.rows(), "MatMulInto: inner dimensions differ");
  STAQ_CHECK(out != &a && out != &b, "MatMulInto: out aliases an input");
  out->Reset(a.rows(), b.cols());
  kernels::GemmAccumulate(a.rows(), a.cols(), b.cols(), a.data().data(),
                          a.cols(), b.data().data(), b.cols(),
                          out->data().data(), out->cols());
}

std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x) {
  STAQ_CHECK(a.cols() == x.size(), "MatVec: dimension mismatch");
  // y as a 1 x rows product x^T A^T: each y[i] sums A(i, j) x[j] from +0.0
  // in ascending j.
  std::vector<double> y(a.rows(), 0.0);
  kernels::GemmAtBt(a.cols(), 1, a.rows(), x.data(), 1, a.data().data(),
                    a.cols(), y.data(), a.rows());
  return y;
}

Matrix Gram(const Matrix& a) {
  // Rank-1 updates in ascending-row order: each g element accumulates
  // ascending i, the order the previous direct loop used (OLS depends on
  // this staying bit-identical).
  Matrix g(a.cols(), a.cols());
  kernels::GemmAtB(a.rows(), a.cols(), a.cols(), a.data().data(), a.cols(),
                   a.data().data(), a.cols(), g.data().data(), g.cols());
  return g;
}

std::vector<double> TransposeVec(const Matrix& a,
                                 const std::vector<double>& y) {
  STAQ_CHECK(a.rows() == y.size(), "TransposeVec: dimension mismatch");
  std::vector<double> out(a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    kernels::Axpy(a.cols(), y[i], a.row(i), out.data());
  }
  return out;
}

namespace {

/// In-place Cholesky A = L L^T; returns false when not positive definite.
bool CholeskySolve(Matrix* a, std::vector<double>* b) {
  size_t n = a->rows();
  for (size_t j = 0; j < n; ++j) {
    double diag = (*a)(j, j);
    for (size_t k = 0; k < j; ++k) diag -= (*a)(j, k) * (*a)(j, k);
    if (diag <= 1e-12) return false;
    diag = std::sqrt(diag);
    (*a)(j, j) = diag;
    for (size_t i = j + 1; i < n; ++i) {
      double v = (*a)(i, j);
      for (size_t k = 0; k < j; ++k) v -= (*a)(i, k) * (*a)(j, k);
      (*a)(i, j) = v / diag;
    }
  }
  // Forward solve L z = b.
  for (size_t i = 0; i < n; ++i) {
    double v = (*b)[i];
    for (size_t k = 0; k < i; ++k) v -= (*a)(i, k) * (*b)[k];
    (*b)[i] = v / (*a)(i, i);
  }
  // Back solve L^T x = z.
  for (size_t i = n; i-- > 0;) {
    double v = (*b)[i];
    for (size_t k = i + 1; k < n; ++k) v -= (*a)(k, i) * (*b)[k];
    (*b)[i] = v / (*a)(i, i);
  }
  return true;
}

/// Gaussian elimination with partial pivoting; returns false when singular.
bool GaussianSolve(Matrix* a, std::vector<double>* b) {
  size_t n = a->rows();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    double best = std::abs((*a)(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::abs((*a)(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap((*a)(pivot, c), (*a)(col, c));
      std::swap((*b)[pivot], (*b)[col]);
    }
    double inv = 1.0 / (*a)(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      double factor = (*a)(r, col) * inv;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) {
        (*a)(r, c) -= factor * (*a)(col, c);
      }
      (*b)[r] -= factor * (*b)[col];
    }
  }
  for (size_t i = n; i-- > 0;) {
    double v = (*b)[i];
    for (size_t c = i + 1; c < n; ++c) v -= (*a)(i, c) * (*b)[c];
    (*b)[i] = v / (*a)(i, i);
  }
  return true;
}

}  // namespace

util::Result<std::vector<double>> SolveLinearSystem(Matrix a,
                                                    std::vector<double> b) {
  if (a.rows() != a.cols() || a.rows() != b.size()) {
    return util::Status::InvalidArgument("solve: dimension mismatch");
  }
  Matrix chol = a;
  std::vector<double> rhs = b;
  if (CholeskySolve(&chol, &rhs)) return rhs;
  if (GaussianSolve(&a, &b)) return b;
  return util::Status::Internal("linear system is singular");
}

}  // namespace staq::ml
