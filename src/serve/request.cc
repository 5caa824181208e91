#include "serve/request.h"

#include <cmath>
#include <cstdio>

namespace staq::serve {

namespace {

/// Appends "|name=<v>" with enough digits that distinct doubles produce
/// distinct strings (round-trip precision).
void AppendField(std::string* out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "|%s=%.17g", name, v);
  *out += buf;
}

void AppendField(std::string* out, const char* name, uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "|%s=%llu", name,
                static_cast<unsigned long long>(v));
  *out += buf;
}

}  // namespace

std::vector<AqRequest> ExpandBatch(const AqBatchRequest& batch) {
  std::vector<synth::PoiCategory> categories =
      batch.categories.empty()
          ? std::vector<synth::PoiCategory>{batch.request.category}
          : batch.categories;
  std::vector<uint64_t> seeds =
      batch.seeds.empty() ? std::vector<uint64_t>{batch.request.options.seed}
                          : batch.seeds;
  std::vector<core::CostMember> members =
      batch.cost_members.empty()
          ? std::vector<core::CostMember>{{batch.request.options.cost,
                                           batch.request.options.gac}}
          : batch.cost_members;

  std::vector<AqRequest> out;
  out.reserve(categories.size() * seeds.size() * members.size());
  for (synth::PoiCategory category : categories) {
    for (uint64_t seed : seeds) {
      for (const core::CostMember& member : members) {
        AqRequest derived = batch.request;
        derived.category = category;
        derived.options.seed = seed;
        derived.options.cost = member.cost;
        derived.options.gac = member.gac;
        out.push_back(std::move(derived));
      }
    }
  }
  return out;
}

std::string LabelKey::Canonical() const {
  std::string out = "cat=" + std::to_string(static_cast<int>(category));
  out += "|cost=";
  out += core::CostKindName(cost);
  AppendField(&out, "decay", gravity.decay_scale_m);
  AppendField(&out, "keep", gravity.keep_scale);
  AppendField(&out, "rate", static_cast<uint64_t>(gravity.sample_rate_per_hour));
  AppendField(&out, "seed", seed);
  if (cost == core::CostKind::kGeneralizedCost) {
    AppendField(&out, "ltan", gac.lambda_tan);
    AppendField(&out, "lwt", gac.lambda_wt);
    AppendField(&out, "livt", gac.lambda_ivt);
    AppendField(&out, "let", gac.lambda_et);
    AppendField(&out, "tp", gac.transfer_penalty_s);
    AppendField(&out, "vot", gac.value_of_time);
  }
  return out;
}

LabelKey LabelKeyFor(const AqRequest& request) {
  LabelKey key;
  key.category = request.category;
  key.cost = request.options.cost;
  key.gac = request.options.gac;
  key.gravity = request.options.gravity;
  key.seed = request.options.seed;
  return key;
}

util::Status CheckLabelKey(const LabelKey& key) {
  const core::GravityConfig& gravity = key.gravity;
  if (!(std::isfinite(gravity.decay_scale_m) && gravity.decay_scale_m > 0.0)) {
    return util::Status::InvalidArgument(
        "decay_scale_m must be finite and positive");
  }
  if (!(std::isfinite(gravity.keep_scale) && gravity.keep_scale >= 0.0)) {
    return util::Status::InvalidArgument(
        "keep_scale must be finite and non-negative");
  }
  if (gravity.sample_rate_per_hour < 1 ||
      gravity.sample_rate_per_hour > kMaxSampleRatePerHour) {
    return util::Status::InvalidArgument(
        "sample_rate_per_hour must be in [1, " +
        std::to_string(kMaxSampleRatePerHour) + "]");
  }
  if (key.cost == core::CostKind::kGeneralizedCost && !key.gac.Valid()) {
    return util::Status::InvalidArgument(
        "invalid GAC weights: every weight must be finite and non-negative, "
        "the value of time positive");
  }
  return util::Status::OK();
}

std::string CanonicalRequestKey(const AqRequest& request) {
  std::string out = LabelKeyFor(request).Canonical();
  if (request.options.exact) {
    out += "|exact";
  } else {
    AppendField(&out, "beta", request.options.beta);
    out += "|model=" + std::to_string(static_cast<int>(request.options.model));
  }
  return out;
}

}  // namespace staq::serve
