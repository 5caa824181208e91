#include "ml/model_factory.h"

#include "ml/coreg.h"
#include "ml/gnn.h"
#include "ml/mean_teacher.h"
#include "ml/mlp.h"
#include "ml/ols.h"

namespace staq::ml {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kOls:
      return "OLS";
    case ModelKind::kMlp:
      return "MLP";
    case ModelKind::kCoreg:
      return "COREG";
    case ModelKind::kMeanTeacher:
      return "MT";
    case ModelKind::kGnn:
      return "GNN";
  }
  return "unknown";
}

util::Result<ModelKind> ModelKindFromName(const std::string& name) {
  for (ModelKind kind : AllModelKinds()) {
    if (name == ModelKindName(kind)) return kind;
  }
  return util::Status::InvalidArgument("unknown model: " + name);
}

std::vector<ModelKind> AllModelKinds() {
  return {ModelKind::kOls, ModelKind::kMlp, ModelKind::kCoreg,
          ModelKind::kMeanTeacher, ModelKind::kGnn};
}

std::unique_ptr<SsrModel> CreateModel(ModelKind kind, uint64_t seed) {
  switch (kind) {
    case ModelKind::kOls:
      return std::make_unique<OlsRegressor>();
    case ModelKind::kMlp: {
      MlpConfig config;
      config.seed = seed;
      return std::make_unique<MlpRegressor>(config);
    }
    case ModelKind::kCoreg: {
      CoregConfig config;
      config.seed = seed;
      return std::make_unique<Coreg>(config);
    }
    case ModelKind::kMeanTeacher: {
      MeanTeacherConfig config;
      config.seed = seed;
      return std::make_unique<MeanTeacher>(config);
    }
    case ModelKind::kGnn: {
      GnnConfig config;
      config.seed = seed;
      return std::make_unique<GnnRegressor>(config);
    }
  }
  return nullptr;
}

}  // namespace staq::ml
