#include "exp/config.h"

#include "util/hash.h"
#include "util/strings.h"

namespace staq::exp {

std::string Cell::CanonicalKey() const {
  std::string key = "bench=" + bench + "\n";
  for (const auto& [k, v] : params) {  // std::map iterates sorted
    key += k + "=" + v + "\n";
  }
  return key;
}

uint64_t Cell::Hash() const {
  std::string key = CanonicalKey();
  return util::XxHash64(key.data(), key.size());
}

std::string Cell::HashHex() const {
  return util::Format("%016llx", static_cast<unsigned long long>(Hash()));
}

std::string Cell::ParamSummary() const {
  std::string out;
  for (const auto& [k, v] : params) {
    if (!out.empty()) out += " ";
    out += k + "=" + v;
  }
  return out;
}

util::Status ParseAxis(TextCursor& cursor, MatrixBlock* block) {
  std::string key = cursor.Word();
  if (key.empty()) return cursor.Error("expected a key or '}'");
  for (const auto& [existing, values] : block->axes) {
    (void)values;
    if (existing == key) return cursor.Error("duplicate key '" + key + "'");
  }
  cursor.SkipInline();
  STAQ_RETURN_NOT_OK(cursor.Expect('=', "after key '" + key + "'"));

  std::vector<std::string> values;
  while (true) {
    cursor.SkipInline();
    std::string value = cursor.Word();
    if (value.empty()) {
      return cursor.Error("expected a value for key '" + key + "'");
    }
    values.push_back(std::move(value));
    cursor.SkipInline();
    if (!cursor.At(',')) break;
    cursor.Advance();
  }
  STAQ_RETURN_NOT_OK(EndEntry(cursor, "values of '" + key + "'"));
  block->axes.emplace_back(std::move(key), std::move(values));
  return util::Status::OK();
}

util::Result<ExperimentConfig> ExperimentConfig::Parse(
    const std::string& text) {
  ExperimentConfig config;
  std::vector<MatrixBlock>& blocks = config.blocks_;
  TextCursor cursor(text, "config", kConfigWordChars);
  STAQ_RETURN_NOT_OK(ParseBlocks(
      cursor,
      {.keyword = "matrix",
       .open = [&](const std::string& name) { blocks.push_back({name, {}}); },
       .entry = [&](TextCursor& c) { return ParseAxis(c, &blocks.back()); },
       .close = [&](TextCursor& c) -> util::Status {
         for (const auto& [key, values] : blocks.back().axes) {
           (void)values;
           if (key == "bench") return util::Status::OK();
         }
         return c.Error("matrix '" + blocks.back().name +
                        "' has no 'bench' key");
       }}));
  return config;
}

util::Result<ExperimentConfig> ExperimentConfig::Load(
    const std::string& path) {
  return LoadFile(path, "config", &Parse);
}

std::vector<Cell> ExperimentConfig::Expand() const {
  std::vector<Cell> cells;
  for (const MatrixBlock& block : blocks_) {
    // Odometer over the axes in declaration order, last key fastest.
    const size_t num_axes = block.axes.size();
    std::vector<size_t> index(num_axes, 0);
    while (true) {
      Cell cell;
      cell.matrix = block.name;
      for (size_t a = 0; a < num_axes; ++a) {
        const auto& [key, values] = block.axes[a];
        const std::string& value = values[index[a]];
        if (key == "bench") {
          cell.bench = value;
        } else {
          cell.params[key] = value;
        }
      }
      cells.push_back(std::move(cell));

      // Tick the odometer; a full wrap ends the block.
      size_t a = num_axes;
      bool wrapped = true;
      while (a > 0) {
        --a;
        if (++index[a] < block.axes[a].second.size()) {
          wrapped = false;
          break;
        }
        index[a] = 0;
      }
      if (wrapped) break;
    }
  }
  return cells;
}

}  // namespace staq::exp
