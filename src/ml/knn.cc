#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/kernels.h"
#include "util/check.h"

namespace staq::ml {

void KnnCore::Add(const double* features, size_t dim, double target) {
  if (targets_.empty()) {
    dim_ = dim;
  } else {
    STAQ_CHECK(dim == dim_, "KnnCore::Add: feature dimension differs");
  }
  flat_.insert(flat_.end(), features, features + dim);
  targets_.push_back(target);
}

double KnnCore::DistanceTo(uint32_t i, const double* row, size_t dim) const {
  STAQ_CHECK(dim == dim_, "KnnCore: query dimension differs from store");
  const double* stored = features(i);
  const double p = config_.minkowski_p;
  if (p == 2.0) {
    return std::sqrt(kernels::SquaredDistance(dim, stored, row));
  }
  if (p == 1.0) {
    // pow(|d|, 1) == |d| and pow(acc, 1/1) == acc exactly, so dropping the
    // root keeps this bit-identical to the general path.
    return kernels::ManhattanDistance(dim, stored, row);
  }
  const int ip = static_cast<int>(p);
  if (p == static_cast<double>(ip) && ip >= 2 && ip <= 16) {
    return std::pow(kernels::PowDistanceInt(dim, stored, row, ip), 1.0 / p);
  }
  // General fractional order: per-element pow, as before.
  double acc = 0.0;
  for (size_t c = 0; c < dim; ++c) {
    acc += std::pow(std::abs(stored[c] - row[c]), p);
  }
  return std::pow(acc, 1.0 / p);
}

size_t KnnCore::SelectTopK(const double* row, size_t dim, uint32_t exclude,
                           NeighborScratch* scratch) const {
  auto& heap = scratch->heap;
  heap.clear();
  const size_t n = size();
  const size_t avail = n - (exclude < n ? 1 : 0);
  const size_t k = std::min<size_t>(static_cast<size_t>(config_.k), avail);
  if (k == 0) return 0;
  heap.reserve(k);
  for (uint32_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    const std::pair<double, uint32_t> cand(DistanceTo(i, row, dim), i);
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end());
    } else if (cand < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap.size();
}

bool KnnCore::UpdateNeighbors(const double* row, uint32_t exclude,
                              CachedNeighbors* cache,
                              NeighborScratch* scratch) const {
  const size_t n = size();
  if (cache->version > n || cache->exclude != exclude) {
    // Store shrank or the exclusion changed: rebuild from scratch.
    const size_t len = SelectTopK(row, dim_, exclude, scratch);
    const bool changed =
        cache->sorted.size() != len ||
        !std::equal(cache->sorted.begin(), cache->sorted.end(),
                    scratch->heap.begin());
    cache->sorted.assign(scratch->heap.begin(), scratch->heap.begin() + len);
    cache->version = n;
    cache->exclude = exclude;
    return changed;
  }
  // Streaming top-k over the examples added since the cached version.
  // Equivalent to full re-selection: an entry evicted here is larger (in
  // (distance, index) order) than k kept entries and can never re-enter.
  const size_t k = static_cast<size_t>(config_.k);
  bool changed = false;
  for (uint32_t i = static_cast<uint32_t>(cache->version); i < n; ++i) {
    if (i == exclude) continue;
    const std::pair<double, uint32_t> cand(DistanceTo(i, row, dim_), i);
    if (cache->sorted.size() < k) {
      cache->sorted.insert(
          std::upper_bound(cache->sorted.begin(), cache->sorted.end(), cand),
          cand);
      changed = true;
    } else if (!cache->sorted.empty() && cand < cache->sorted.back()) {
      cache->sorted.pop_back();
      cache->sorted.insert(
          std::upper_bound(cache->sorted.begin(), cache->sorted.end(), cand),
          cand);
      changed = true;
    }
  }
  cache->version = n;
  return changed;
}

double KnnCore::PredictFromList(const std::pair<double, uint32_t>* list,
                                size_t len, double extra_target) const {
  const uint32_t extra = static_cast<uint32_t>(size());
  double weight_sum = 0.0, acc = 0.0;
  for (size_t i = 0; i < len; ++i) {
    const double w =
        config_.distance_weighted ? 1.0 / (list[i].first + 1e-9) : 1.0;
    const double t =
        list[i].second == extra ? extra_target : targets_[list[i].second];
    weight_sum += w;
    acc += w * t;
  }
  // len == 0 yields NaN, matching the empty-neighbourhood behaviour of the
  // allocating predict paths.
  return acc / weight_sum;
}

double KnnCore::PredictOne(const double* row, size_t dim,
                           NeighborScratch* scratch) const {
  STAQ_CHECK(!targets_.empty(), "KnnCore::PredictOne on empty store");
  const size_t len = SelectTopK(row, dim, UINT32_MAX, scratch);
  return PredictFromList(scratch->heap.data(), len);
}

double KnnCore::PredictOne(const double* row, size_t dim) const {
  NeighborScratch scratch;
  return PredictOne(row, dim, &scratch);
}

util::Status KnnRegressor::Fit(const Dataset& data) {
  STAQ_RETURN_NOT_OK(data.Validate());
  Matrix x_labeled = data.x.SelectRows(data.labeled);
  scaler_.Fit(x_labeled);
  Matrix xs = scaler_.Transform(x_labeled);
  core_ = std::make_unique<KnnCore>(config_);
  for (size_t i = 0; i < xs.rows(); ++i) {
    core_->Add(xs.row(i), xs.cols(), data.y[data.labeled[i]]);
  }
  x_all_scaled_ = scaler_.Transform(data.x);
  return util::Status::OK();
}

std::vector<double> KnnRegressor::Predict() const {
  std::vector<double> out(x_all_scaled_.rows());
  NeighborScratch scratch;
  for (size_t i = 0; i < x_all_scaled_.rows(); ++i) {
    out[i] = core_->PredictOne(x_all_scaled_.row(i), x_all_scaled_.cols(),
                               &scratch);
  }
  return out;
}

}  // namespace staq::ml
