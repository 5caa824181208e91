// k-nearest-neighbour regression in feature space.
//
// Doubles as (a) a standalone baseline and (b) the component regressor of
// COREG (Zhou & Li 2005), which pairs two kNN regressors with different
// Minkowski orders. The incremental KnnCore supports COREG's pseudo-label
// additions.
//
// Storage is one flat SoA buffer (size() x dim() doubles) so distance
// loops stream contiguously; neighbour selection runs through a reusable
// caller-owned scratch (no per-call allocation), and CachedNeighbors lets
// COREG keep a candidate's top-k up to date incrementally as the store
// grows instead of rescanning the whole labeled set per screening pass.
//
// Neighbour ordering contract: candidates compare as (finished distance,
// index) pairs — the *finished* Minkowski distance, after the root, because
// the root can collapse distinct raw sums into equal finished values and
// ties break by insertion index on the finished value. Selection via the
// bounded max-heap and via incremental insertion both follow this total
// order, so every path returns exactly the list a full sort would.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ml/model.h"
#include "ml/scaler.h"

namespace staq::ml {

struct KnnConfig {
  int k = 3;
  /// Minkowski distance order (2 = Euclidean).
  double minkowski_p = 2.0;
  /// Inverse-distance weighting of neighbour targets; plain mean if false.
  bool distance_weighted = true;
};

/// Reusable buffers for neighbour selection. Owned by the caller, one per
/// thread; contents are scratch between calls.
struct NeighborScratch {
  /// Bounded max-heap during selection; sorted ascending (distance, index)
  /// after SelectTopK / the scratch Predict overloads return.
  std::vector<std::pair<double, uint32_t>> heap;
  /// Staging area for tentatively merged neighbour lists (COREG screening).
  std::vector<std::pair<double, uint32_t>> merged;
};

/// One query row's k nearest stored examples, maintained incrementally as
/// the store grows. `version` is the store size the list reflects; a store
/// that shrank (or a changed exclude) forces a full rebuild.
struct CachedNeighbors {
  size_t version = 0;
  uint32_t exclude = UINT32_MAX;
  /// Ascending (finished distance, index).
  std::vector<std::pair<double, uint32_t>> sorted;
};

/// Brute-force incremental kNN regressor over standardised features.
/// Sizes here are hundreds of labeled zones, so brute force is exact and
/// fast enough.
class KnnCore {
 public:
  explicit KnnCore(KnnConfig config) : config_(config) {}

  /// Appends an example. The first Add fixes dim(); later Adds must match.
  void Add(const double* features, size_t dim, double target);
  void Add(const std::vector<double>& features, double target) {
    Add(features.data(), features.size(), target);
  }
  size_t size() const { return targets_.size(); }
  size_t dim() const { return dim_; }
  const KnnConfig& config() const { return config_; }

  /// Predicts for one feature row. Requires size() >= 1.
  double PredictOne(const double* row, size_t dim) const;
  double PredictOne(const double* row, size_t dim,
                    NeighborScratch* scratch) const;

  /// Fills scratch->heap with the k nearest (distance, index) pairs for
  /// `row`, sorted ascending; returns how many were found.
  size_t SelectTopK(const double* row, size_t dim, uint32_t exclude,
                    NeighborScratch* scratch) const;

  /// Brings `cache` up to date with the current store for query `row`
  /// (which must be the same row the cache was built for). Only distances
  /// to examples added since `cache->version` are computed. Returns true
  /// when the cached list changed.
  bool UpdateNeighbors(const double* row, uint32_t exclude,
                       CachedNeighbors* cache, NeighborScratch* scratch) const;

  /// Weighted prediction from a sorted (distance, index) list. Entries
  /// whose index equals size() stand for a tentative extra example with
  /// target `extra_target` (COREG's hypothetical add). Accumulation order
  /// matches PredictOne over the same list.
  double PredictFromList(const std::pair<double, uint32_t>* list, size_t len,
                         double extra_target = 0.0) const;

  /// Exact Minkowski distance from stored example `i` to `row`. Fast paths:
  /// p=1 (plain |.| sum, no root), p=2 (squared sum + sqrt), small integer
  /// p (repeated multiplication, one root) — no per-element std::pow.
  double DistanceTo(uint32_t i, const double* row, size_t dim) const;

  double target(uint32_t i) const { return targets_[i]; }
  /// Pointer to stored example `i` (dim() doubles). Invalidated by Add.
  const double* features(uint32_t i) const {
    return flat_.data() + static_cast<size_t>(i) * dim_;
  }

 private:
  /// DistanceTo before its root: Σ|Δ|^p (the squared sum for p=2). Stops
  /// early, at a partial sum above `limit`, once the sum exceeds it.
  double PowerSum(uint32_t i, const double* row, double limit) const;
  /// DistanceTo's root of a PowerSum.
  double Root(double sum) const;
  /// A bound on PowerSum above which Root is certainly no smaller than
  /// `d`: a top-k scan skips such examples without taking their root.
  /// Infinity when no safe bound exists.
  double SkipAbove(double d) const;

  KnnConfig config_;
  size_t dim_ = 0;
  std::vector<double> flat_;  // size() x dim(), row-major
  std::vector<double> targets_;
};

/// SsrModel wrapper: supervised kNN on the labeled rows.
class KnnRegressor : public SsrModel {
 public:
  explicit KnnRegressor(KnnConfig config = {}) : config_(config) {}

  const char* name() const override { return "kNN"; }
  util::Status Fit(const Dataset& data) override;
  std::vector<double> Predict() const override;

 private:
  KnnConfig config_;
  StandardScaler scaler_;
  std::unique_ptr<KnnCore> core_;
  Matrix x_all_scaled_;
};

}  // namespace staq::ml
