#include "scenario/pack.h"

#include "exp/config.h"
#include "exp/text.h"

namespace staq::scenario {

util::Result<ScenarioPack> ScenarioPack::Parse(const std::string& text) {
  ScenarioPack pack;
  exp::MatrixBlock block;  // the open scenario's entries
  exp::TextCursor cursor(text, "pack", exp::kConfigWordChars);
  STAQ_RETURN_NOT_OK(exp::ParseBlocks(
      cursor,
      {.keyword = "scenario",
       .open =
           [&](const std::string& name) {
             block = {name, {}};
             pack.scenarios.push_back({name, {}});
           },
       .entry = [&](exp::TextCursor& c) -> util::Status {
         STAQ_RETURN_NOT_OK(exp::ParseAxis(c, &block));
         const auto& [key, values] = block.axes.back();
         if (key != "disrupt") {
           return c.Error("scenario '" + block.name + "': unknown key '" +
                          key + "' (packs only take 'disrupt')");
         }
         // `disrupt` values are an ordered application list, not an axis
         // to expand — parse each spec in declaration order.
         for (const std::string& spec : values) {
           auto d = ParseDisruptionSpec(spec);
           if (!d.ok()) {
             return c.Error("scenario '" + block.name +
                            "': " + d.status().message());
           }
           pack.scenarios.back().disruptions.push_back(std::move(d).value());
         }
         return util::Status::OK();
       },
       .close = [&](exp::TextCursor& c) -> util::Status {
         if (block.axes.empty()) {
           return c.Error("scenario '" + block.name +
                          "' has no 'disrupt' key");
         }
         return util::Status::OK();
       }}));
  return pack;
}

util::Result<ScenarioPack> ScenarioPack::Load(const std::string& path) {
  return exp::LoadFile(path, "pack", &Parse);
}

const PackScenario* ScenarioPack::Find(const std::string& name) const {
  for (const PackScenario& scenario : scenarios) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

}  // namespace staq::scenario
