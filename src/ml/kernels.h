// Vectorizable numeric kernels shared by the SSR models.
//
// Everything here operates on raw contiguous row-major buffers (callers
// validate shapes; `__restrict` documents no-aliasing so the compiler can
// vectorize the inner loops without runtime overlap checks).
//
// Determinism contract: every kernel accumulates each *output element* in
// one fixed order — ascending k for the GEMM family, ascending index for
// the reductions. The GEMMs keep a register tile of C in vector
// accumulators across the whole k loop; that reorders work *across* output
// elements, never the additions *into* one element, so results are
// bit-identical to the straightforward loops they replace and independent
// of the tile shape. This is what lets the models above keep the repo's
// bit-identical culture while the kernels get faster.
#pragma once

#include <cstddef>
#include <limits>

namespace staq::ml::kernels {

/// The distance sums' default `limit`: never stop early.
inline constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/// C (m x n, leading dimension ldc) += A (m x k, lda) * B (k x n, ldb).
/// Accumulates into C in ascending-k order per element — bit-identical to
/// the naive i-k-j triple loop. Buffers must not overlap.
void GemmAccumulate(size_t m, size_t k, size_t n, const double* a, size_t lda,
                    const double* b, size_t ldb, double* c, size_t ldc);

/// C = A * B: zeroes C, then GemmAccumulate.
void Gemm(size_t m, size_t k, size_t n, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n, ldc) += A^T * B for A (l x m, lda) and B (l x n, ldb): rank-1
/// updates in ascending-l order, so each C element accumulates ascending l
/// — the order the per-sample gradient loops in the NN models used.
void GemmAtB(size_t l, size_t m, size_t n, const double* a, size_t lda,
             const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n, ldc) += A^T * B^T for A (k x m, lda) and B (n x k, ldb): each
/// C(i, j) adds A(t, i) * B(j, t) in ascending t. On a zeroed C every
/// element is a single-accumulator dot product from +0.0 — per row, the
/// order a matrix-vector product over B's rows uses.
void GemmAtBt(size_t k, size_t m, size_t n, const double* a, size_t lda,
              const double* b, size_t ldb, double* c, size_t ldc);

/// y[i] += alpha * x[i] for i in [0, n).
void Axpy(size_t n, double alpha, const double* x, double* y);

/// x[i] *= alpha for i in [0, n).
void Scale(size_t n, double alpha, double* x);

/// Sum of a[i] * b[i], single accumulator ascending i.
double Dot(size_t n, const double* a, const double* b);

/// Sum of x[i], single accumulator ascending i.
double ReduceSum(size_t n, const double* x);

// The three distance sums below add non-negative terms, so a partial sum
// never shrinks: each stops once it exceeds `limit` and returns that
// partial sum, which is then known to lie below the full one.

/// Sum of (a[i] - b[i])^2, single accumulator ascending i.
double SquaredDistance(size_t n, const double* a, const double* b,
                       double limit = kNoLimit);

/// Sum of |a[i] - b[i]|, single accumulator ascending i.
double ManhattanDistance(size_t n, const double* a, const double* b,
                         double limit = kNoLimit);

/// Sum of |a[i] - b[i]|^p for integer p >= 2 via repeated multiplication
/// (no per-element std::pow). For even p the |.| is dropped.
double PowDistanceInt(size_t n, const double* a, const double* b, int p,
                      double limit = kNoLimit);

}  // namespace staq::ml::kernels
