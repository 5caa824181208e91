// Minimal JSON reader for the experiment harness.
//
// The diff layer compares BENCH_*.json runs against checked-in baselines
// metric by metric, so what it needs is not a DOM but a flat view: every
// scalar in the document addressed by a dotted path ("zones",
// "modes[2].seconds", "wal.append_mean_ms"). JsonDoc::Parse builds exactly
// that — a path -> scalar map — in one recursive-descent pass.
//
// Scope: the grammar the bench emitters produce (objects, arrays, strings
// with escapes, numbers, booleans, null). The parser walks the text with
// the experiment configs' cursor (exp/text.h), so its errors carry the same
// "line L, column C" position. Numbers keep
// their raw source text alongside the parsed double so exact-match rules
// can compare what was actually printed, not a re-rounded value.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace staq::exp {

enum class JsonKind : uint8_t { kNull, kBool, kNumber, kString };

/// One scalar leaf of a JSON document.
struct JsonScalar {
  JsonKind kind = JsonKind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;  // string value (kString)
  std::string raw;  // exact source text (numbers/bools/null; quoted strings
                    // store the unescaped value here too)

  /// Scalar equality as the diff layer defines it: same kind and same
  /// printed value (numbers compare by raw text, so 3.0 != 3.00 is a
  /// *formatting* change a baseline diff should surface).
  bool SameAs(const JsonScalar& other) const;

  /// Human-readable rendering for diff reports.
  std::string ToString() const;
};

/// A parsed JSON document flattened to path -> scalar.
///
/// Paths: object members join with '.', array elements index with "[i]".
/// A root-level scalar gets path "". Empty objects/arrays contribute no
/// entries.
class JsonDoc {
 public:
  /// Parses `text`; errors name the first offending position as
  /// "json parse error at line L, column C: ...".
  static util::Result<JsonDoc> Parse(const std::string& text);

  /// Looks up a scalar by path; nullptr when absent.
  const JsonScalar* Find(const std::string& path) const;

  bool Has(const std::string& path) const { return Find(path) != nullptr; }

  const std::map<std::string, JsonScalar>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, JsonScalar> entries_;
};

}  // namespace staq::exp
