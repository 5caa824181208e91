#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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
  return Root(PowerSum(i, row, kernels::kNoLimit));
}

double KnnCore::PowerSum(uint32_t i, const double* row, double limit) const {
  const double* stored = features(i);
  const double p = config_.minkowski_p;
  if (p == 2.0) return kernels::SquaredDistance(dim_, stored, row, limit);
  if (p == 1.0) return kernels::ManhattanDistance(dim_, stored, row, limit);
  const int ip = static_cast<int>(p);
  if (p == static_cast<double>(ip) && ip >= 2 && ip <= 16) {
    return kernels::PowDistanceInt(dim_, stored, row, ip, limit);
  }
  // General fractional order: per-element pow, as before.
  double acc = 0.0;
  for (size_t c = 0; c < dim_ && !(acc > limit); ++c) {
    acc += std::pow(std::abs(stored[c] - row[c]), p);
  }
  return acc;
}

double KnnCore::Root(double sum) const {
  const double p = config_.minkowski_p;
  if (p == 2.0) return std::sqrt(sum);
  // pow(|d|, 1) == |d| and pow(acc, 1/1) == acc exactly, so dropping the
  // root keeps p=1 bit-identical to the general path.
  if (p == 1.0) return sum;
  return std::pow(sum, 1.0 / p);
}

double KnnCore::SkipAbove(double d) const {
  // For p in [1, 16], a sum above d^p (1 + 1e-9) has a true root above
  // d (1 + 6e-11): far more than the rounding of d^p and of the root
  // (under one ulp each), so its computed Root is at least d. A zero,
  // subnormal or non-finite bound has no such margin and skips nothing.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  const double p = config_.minkowski_p;
  if (!(p >= 1.0 && p <= 16.0)) return kNone;
  const double power = p == 1.0 ? d : p == 2.0 ? d * d : std::pow(d, p);
  const double bound = power * (1.0 + 1e-9);
  return bound >= std::numeric_limits<double>::min() && bound < kNone
             ? bound
             : kNone;
}

size_t KnnCore::SelectTopK(const double* row, size_t dim, uint32_t exclude,
                           NeighborScratch* scratch) const {
  auto& heap = scratch->heap;
  heap.clear();
  const size_t n = size();
  const size_t avail = n - (exclude < n ? 1 : 0);
  const size_t k = std::min<size_t>(static_cast<size_t>(config_.k), avail);
  if (k == 0) return 0;
  STAQ_CHECK(dim == dim_, "KnnCore: query dimension differs from store");
  heap.reserve(k);
  // Every example scanned later has a larger index than the heap's, so one
  // whose distance is no smaller than the heap's largest never enters.
  double skip_above = std::numeric_limits<double>::infinity();
  for (uint32_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    const double sum = PowerSum(i, row, skip_above);
    if (sum > skip_above) continue;
    const std::pair<double, uint32_t> cand(Root(sum), i);
    if (heap.size() == k) {
      if (!(cand < heap.front())) continue;
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = cand;
    } else {
      heap.push_back(cand);
    }
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() == k) skip_above = SkipAbove(heap.front().first);
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
  auto& sorted = cache->sorted;
  // As in SelectTopK: new examples have larger indices than every cached
  // one, so a full list skips those no nearer than its last entry.
  double skip_above = sorted.size() >= k && !sorted.empty()
                          ? SkipAbove(sorted.back().first)
                          : std::numeric_limits<double>::infinity();
  for (uint32_t i = static_cast<uint32_t>(cache->version); i < n; ++i) {
    if (i == exclude) continue;
    const double sum = PowerSum(i, row, skip_above);
    if (sum > skip_above) continue;
    const std::pair<double, uint32_t> cand(Root(sum), i);
    if (sorted.size() >= k) {
      if (sorted.empty() || !(cand < sorted.back())) continue;
      sorted.pop_back();
    }
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), cand), cand);
    changed = true;
    if (sorted.size() >= k && !sorted.empty()) {
      skip_above = SkipAbove(sorted.back().first);
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
