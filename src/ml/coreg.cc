#include "ml/coreg.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

namespace staq::ml {

namespace {

/// Incremental screening state for one component regressor. Holds, for
/// every stored example, its leave-one-out neighbour list and cached
/// squared LOO error, and for every pool candidate its top-k list; all of
/// them are brought up to date in O(k) per new stored example by
/// SyncStore. Screening itself then reads this state without mutating the
/// store: the "after" term of Zhou & Li's criterion only needs to know
/// whether the tentative candidate would enter each neighbour's LOO list,
/// which the cached symmetric distance d(candidate, i) == d(i, candidate)
/// answers in O(1) per neighbour.
///
/// SyncStore and EraseCandidate run between screening passes. Screen reads
/// loo_/err_ and the store, and writes only the candidate's own cache
/// entry.
class ScreeningState {
 public:
  explicit ScreeningState(const KnnCore* core) : core_(core) {}

  /// Brings the per-stored-example LOO caches up to date with the store.
  void SyncStore(NeighborScratch* scratch) {
    const size_t n = core_->size();
    if (synced_ == n) return;
    loo_.resize(n);
    err_.resize(n);
    for (size_t i = 0; i < synced_; ++i) {
      if (core_->UpdateNeighbors(core_->features(static_cast<uint32_t>(i)),
                                 static_cast<uint32_t>(i), &loo_[i],
                                 scratch)) {
        err_[i] = LooError(i);
      }
    }
    for (size_t i = synced_; i < n; ++i) {
      core_->UpdateNeighbors(core_->features(static_cast<uint32_t>(i)),
                             static_cast<uint32_t>(i), &loo_[i], scratch);
      err_[i] = LooError(i);
    }
    synced_ = n;
  }

  void EraseCandidate(uint32_t zone) { candidates_.erase(zone); }

  /// Error reduction for one candidate; also reports its pseudo-label
  /// (Zhou & Li's criterion: the squared LOO error over the candidate's
  /// labeled neighbourhood before minus after a tentative add, labeled with
  /// the regressor's own prediction). Every sum accumulates its terms in
  /// the order a real add/remove followed by full neighbourhood rescans
  /// would.
  double Screen(uint32_t zone, const double* row, NeighborScratch* scratch,
                double* pseudo_out) {
    CachedNeighbors& cache = candidates_[zone];
    core_->UpdateNeighbors(row, UINT32_MAX, &cache, scratch);
    const auto& nb = cache.sorted;
    *pseudo_out = 0.0;
    if (nb.empty()) return 0.0;

    const double pseudo = core_->PredictFromList(nb.data(), nb.size());
    const uint32_t extra = static_cast<uint32_t>(core_->size());
    const size_t k = static_cast<size_t>(core_->config().k);
    double before = 0.0, after = 0.0;
    for (const auto& [d_ci, i] : nb) {
      const double base_err = err_[i];
      before += base_err;
      const auto& loo = loo_[i].sorted;
      // d(i, candidate) == d(candidate, i) exactly (every distance path is
      // sign-symmetric in the per-element differences).
      const std::pair<double, uint32_t> cand(d_ci, extra);
      if (loo.size() < k || (!loo.empty() && cand < loo.back())) {
        // The candidate enters i's LOO top-k: evaluate the merged list.
        auto& merged = scratch->merged;
        merged.assign(loo.begin(), loo.end());
        merged.insert(
            std::upper_bound(merged.begin(), merged.end(), cand), cand);
        if (merged.size() > k) merged.pop_back();
        const double pred =
            core_->PredictFromList(merged.data(), merged.size(), pseudo);
        const double err = core_->target(i) - pred;
        after += err * err;
      } else {
        // Top-k unchanged: the LOO prediction — and so the error term —
        // is exactly the cached one.
        after += base_err;
      }
    }
    *pseudo_out = pseudo;
    return before - after;
  }

 private:
  double LooError(size_t i) const {
    const auto& s = loo_[i].sorted;
    const double pred = core_->PredictFromList(s.data(), s.size());
    const double err = core_->target(static_cast<uint32_t>(i)) - pred;
    return err * err;
  }

  const KnnCore* core_;
  size_t synced_ = 0;
  std::vector<CachedNeighbors> loo_;  // loo_[i]: neighbours of i, excluding i
  std::vector<double> err_;           // err_[i]: squared LOO error of i
  std::unordered_map<uint32_t, CachedNeighbors> candidates_;
};

}  // namespace

util::Status Coreg::Fit(const Dataset& data) {
  STAQ_RETURN_NOT_OK(data.Validate());

  Matrix x_labeled = data.x.SelectRows(data.labeled);
  scaler_.Fit(x_labeled);
  x_all_scaled_ = scaler_.Transform(data.x);
  size_t dim = x_all_scaled_.cols();

  h1_ = std::make_unique<KnnCore>(config_.knn1);
  h2_ = std::make_unique<KnnCore>(config_.knn2);
  for (uint32_t idx : data.labeled) {
    h1_->Add(x_all_scaled_.row(idx), dim, data.y[idx]);
    h2_->Add(x_all_scaled_.row(idx), dim, data.y[idx]);
  }

  // Unlabeled pool; replenished from the remaining unlabeled set.
  std::vector<uint32_t> unlabeled = data.UnlabeledIndices();
  util::Rng rng(config_.seed);
  rng.Shuffle(&unlabeled);
  size_t pool_end = std::min(config_.pool_size, unlabeled.size());
  pseudo_labels_added_ = 0;

  ScreeningState s1(h1_.get()), s2(h2_.get());
  NeighborScratch scratch;

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    bool any_added = false;
    // Each regressor nominates its best candidate for the OTHER one.
    KnnCore* models[2] = {h1_.get(), h2_.get()};
    ScreeningState* states[2] = {&s1, &s2};
    for (int j = 0; j < 2; ++j) {
      KnnCore* other = models[1 - j];

      double best_delta = 0.0;
      size_t best_pos = SIZE_MAX;
      double best_label = 0.0;
      ScreeningState* state = states[j];
      state->SyncStore(&scratch);
      // Ascending-slot argmax: the first candidate with the largest error
      // reduction wins.
      for (size_t p = 0; p < pool_end; ++p) {
        const uint32_t zone = unlabeled[p];
        double pseudo = 0.0;
        const double delta =
            state->Screen(zone, x_all_scaled_.row(zone), &scratch, &pseudo);
        if (delta > best_delta) {
          best_delta = delta;
          best_pos = p;
          best_label = pseudo;
        }
      }
      if (best_pos != SIZE_MAX) {
        const uint32_t zone = unlabeled[best_pos];
        other->Add(x_all_scaled_.row(zone), dim, best_label);
        ++pseudo_labels_added_;
        any_added = true;
        s1.EraseCandidate(zone);
        s2.EraseCandidate(zone);
        // Remove from pool; backfill from the unscreened remainder.
        std::swap(unlabeled[best_pos], unlabeled[pool_end - 1]);
        if (pool_end < unlabeled.size()) {
          std::swap(unlabeled[pool_end - 1], unlabeled.back());
          unlabeled.pop_back();
        } else {
          unlabeled.pop_back();
          --pool_end;
        }
      }
    }
    if (!any_added) break;
  }
  return util::Status::OK();
}

std::vector<double> Coreg::Predict() const {
  size_t dim = x_all_scaled_.cols();
  std::vector<double> out(x_all_scaled_.rows());
  NeighborScratch scratch;
  for (size_t i = 0; i < out.size(); ++i) {
    const double* row = x_all_scaled_.row(i);
    out[i] = 0.5 * (h1_->PredictOne(row, dim, &scratch) +
                    h2_->PredictOne(row, dim, &scratch));
  }
  return out;
}

}  // namespace staq::ml
