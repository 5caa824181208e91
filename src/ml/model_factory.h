// Factory for the SSR models evaluated in the paper, keyed by a stable
// enum so benches can sweep the model axis of Figs. 3 and 4.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace staq::ml {

/// The model families of §V-A.
enum class ModelKind {
  kOls = 0,
  kMlp,
  kCoreg,
  kMeanTeacher,
  kGnn,
};

inline constexpr int kNumModelKinds = 5;

/// Stable display name ("OLS", "MLP", "COREG", "MT", "GNN").
const char* ModelKindName(ModelKind kind);

/// The kind whose ModelKindName is `name`.
util::Result<ModelKind> ModelKindFromName(const std::string& name);

/// All model kinds in paper order.
std::vector<ModelKind> AllModelKinds();

/// Instantiates a model with the library defaults and the given seed.
/// Every model fits and predicts on the calling thread.
std::unique_ptr<SsrModel> CreateModel(ModelKind kind, uint64_t seed);

/// Forward kept only because the benchmark (staqbench/src/whatif_cold.cc)
/// passes a thread count, which is ignored; delete with that call (ROADMAP
/// item 3).
inline std::unique_ptr<SsrModel> CreateModel(ModelKind kind, uint64_t seed,
                                             int /*threads*/) {
  return CreateModel(kind, seed);
}

}  // namespace staq::ml
