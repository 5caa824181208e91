#include "ml/kernels.h"

#include <cmath>
#include <cstring>

namespace staq::ml::kernels {

namespace {

// Two doubles: one SSE2 register on baseline x86-64. The vector extension
// keeps the kernels free of ISA intrinsics; its + and * are the lane-wise
// IEEE operations, so every lane rounds exactly like the scalar expression.
typedef double V2 __attribute__((vector_size(16)));

inline V2 Load(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

// (a0, a1), (b0, b1) -> (a0, b0), (a1, b1).
inline void Transpose2(V2* a, V2* b) {
  const V2 lo = __builtin_shufflevector(*a, *b, 0, 2);
  *b = __builtin_shufflevector(*a, *b, 1, 3);
  *a = lo;
}

// The one GEMM core behind every public product:
//   D(p, q) += sum over t in [0, kt) of X(p, t) * V(t, q), t ascending,
// with X(p, t) = x[p * xp + t * xt], V's row t contiguous at v + t * ldv,
// and D(p, q) = d[p * ldd + q] (kDT false) or d[q * ldd + p] (kDT true).
//
// A tile of MR rows x 2*NV columns of D (NV == 0: one column) is loaded
// into accumulators once, updated over the whole t loop and stored once;
// MR * NV <= 8 accumulators plus NV V lanes and MR broadcasts fit the 16
// SSE registers. Each accumulator lane is one D element that starts at its
// stored value and adds its terms in ascending t — the naive loop's order.
template <size_t MR, size_t NV, bool kDT>
inline void Tile(size_t kt, const double* x, size_t xp, size_t xt,
                 const double* v, size_t ldv, double* d, size_t ldd) {
  if constexpr (NV == 0) {
    double acc[MR];
    for (size_t p = 0; p < MR; ++p) acc[p] = d[p * (kDT ? 1 : ldd)];
    for (size_t t = 0; t < kt; ++t) {
      const double vt = v[t * ldv];
      for (size_t p = 0; p < MR; ++p) acc[p] += x[p * xp + t * xt] * vt;
    }
    for (size_t p = 0; p < MR; ++p) d[p * (kDT ? 1 : ldd)] = acc[p];
  } else {
    V2 acc[MR][NV];
    for (size_t s = 0; s < NV; ++s) {
      if constexpr (!kDT) {
        for (size_t p = 0; p < MR; ++p) acc[p][s] = Load(d + p * ldd + 2 * s);
      } else if constexpr (MR == 2) {
        // Memory rows q, q+1 hold (D(0, q), D(1, q)) and (D(0, q+1),
        // D(1, q+1)): a 2x2 transpose turns them into the two accumulators.
        acc[0][s] = Load(d + 2 * s * ldd);
        acc[1][s] = Load(d + (2 * s + 1) * ldd);
        Transpose2(&acc[0][s], &acc[1][s]);
      } else {
        acc[0][s] = V2{d[2 * s * ldd], d[(2 * s + 1) * ldd]};
      }
    }
    for (size_t t = 0; t < kt; ++t) {
      const double* vt = v + t * ldv;
      V2 vs[NV];
      for (size_t s = 0; s < NV; ++s) vs[s] = Load(vt + 2 * s);
      for (size_t p = 0; p < MR; ++p) {
        const double xv = x[p * xp + t * xt];
        const V2 xs = {xv, xv};
        for (size_t s = 0; s < NV; ++s) acc[p][s] += xs * vs[s];
      }
    }
    for (size_t s = 0; s < NV; ++s) {
      if constexpr (!kDT) {
        for (size_t p = 0; p < MR; ++p) Store(d + p * ldd + 2 * s, acc[p][s]);
      } else if constexpr (MR == 2) {
        Transpose2(&acc[0][s], &acc[1][s]);
        Store(d + 2 * s * ldd, acc[0][s]);
        Store(d + (2 * s + 1) * ldd, acc[1][s]);
      } else {
        d[2 * s * ldd] = acc[0][s][0];
        d[(2 * s + 1) * ldd] = acc[0][s][1];
      }
    }
  }
}

// One band of MR rows of D: 8-column tiles, then the 4-, 2- and 1-column
// tails, so no tile reads or writes past column nq.
template <size_t MR, bool kDT>
void Band(size_t kt, size_t nq, const double* x, size_t xp, size_t xt,
          const double* v, size_t ldv, double* d, size_t ldd) {
  const size_t dq = kDT ? ldd : 1;  // distance between adjacent D columns
  size_t q = 0;
  for (; q + 8 <= nq; q += 8) {
    Tile<MR, 4, kDT>(kt, x, xp, xt, v + q, ldv, d + q * dq, ldd);
  }
  if (q + 4 <= nq) {
    Tile<MR, 2, kDT>(kt, x, xp, xt, v + q, ldv, d + q * dq, ldd);
    q += 4;
  }
  if (q + 2 <= nq) {
    Tile<MR, 1, kDT>(kt, x, xp, xt, v + q, ldv, d + q * dq, ldd);
    q += 2;
  }
  if (q < nq) Tile<MR, 0, kDT>(kt, x, xp, xt, v + q, ldv, d + q * dq, ldd);
}

template <bool kDT>
void TiledGemm(size_t np, size_t kt, size_t nq, const double* x, size_t xp,
               size_t xt, const double* v, size_t ldv, double* d,
               size_t ldd) {
  const size_t dp = kDT ? 1 : ldd;  // distance between adjacent D rows
  size_t p = 0;
  for (; p + 2 <= np; p += 2) {
    Band<2, kDT>(kt, nq, x + p * xp, xp, xt, v, ldv, d + p * dp, ldd);
  }
  if (p < np) Band<1, kDT>(kt, nq, x + p * xp, xp, xt, v, ldv, d + p * dp, ldd);
}

}  // namespace

void GemmAccumulate(size_t m, size_t k, size_t n, const double* a, size_t lda,
                    const double* b, size_t ldb, double* c, size_t ldc) {
  // D = C, X = A, V = B.
  TiledGemm<false>(m, k, n, a, lda, 1, b, ldb, c, ldc);
}

void Gemm(size_t m, size_t k, size_t n, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0) return;
  if (ldc == n) {
    std::memset(c, 0, m * n * sizeof(double));
  } else {
    for (size_t i = 0; i < m; ++i) std::memset(c + i * ldc, 0, n * sizeof(double));
  }
  GemmAccumulate(m, k, n, a, lda, b, ldb, c, ldc);
}

void GemmAtB(size_t l, size_t m, size_t n, const double* a, size_t lda,
             const double* b, size_t ldb, double* c, size_t ldc) {
  // D = C, X(i, t) = A(t, i), V = B.
  TiledGemm<false>(m, l, n, a, 1, lda, b, ldb, c, ldc);
}

void GemmAtBt(size_t k, size_t m, size_t n, const double* a, size_t lda,
              const double* b, size_t ldb, double* c, size_t ldc) {
  // Vectorised along C's rows: D = C^T, X = B, V = A.
  TiledGemm<true>(n, k, m, b, ldb, 1, a, lda, c, ldc);
}

void Axpy(size_t n, double alpha, const double* x, double* y) {
  const double* __restrict xs = x;
  double* __restrict ys = y;
  for (size_t i = 0; i < n; ++i) ys[i] += alpha * xs[i];
}

void Scale(size_t n, double alpha, double* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double Dot(size_t n, const double* a, const double* b) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double ReduceSum(size_t n, const double* x) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double SquaredDistance(size_t n, const double* a, const double* b,
                       double limit) {
  double acc = 0.0;
  for (size_t i = 0; i < n && !(acc > limit); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double ManhattanDistance(size_t n, const double* a, const double* b,
                         double limit) {
  double acc = 0.0;
  for (size_t i = 0; i < n && !(acc > limit); ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

double PowDistanceInt(size_t n, const double* a, const double* b, int p,
                      double limit) {
  double acc = 0.0;
  if ((p & 1) == 0) {
    // Even power: |d|^p == d^p, skip the abs.
    for (size_t i = 0; i < n && !(acc > limit); ++i) {
      const double d = a[i] - b[i];
      double term = d * d;
      for (int e = 2; e < p; e += 2) term *= d * d;
      acc += term;
    }
  } else {
    for (size_t i = 0; i < n && !(acc > limit); ++i) {
      const double d = std::abs(a[i] - b[i]);
      double term = d;
      for (int e = 1; e < p; ++e) term *= d;
      acc += term;
    }
  }
  return acc;
}

}  // namespace staq::ml::kernels
