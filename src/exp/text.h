// One reader for the repo's declarative text formats.
//
// Experiment configs (exp/config.h), scenario packs (scenario/pack.h) and
// perfgate tolerance policies (exp/diff.h) are all lists of named blocks:
//
//   # '#' comments and blank lines go anywhere between entries
//   <keyword> <name> {
//     <entry>          one per line; each format parses its own
//   }
//
// ParseBlocks is that grammar's one loop; each format hands it the parser
// of one entry. TextCursor is the one position-tracking cursor, shared by
// the block grammar and the JSON reader (exp/json.h): every parse error
// names the format and the position, "<format> parse error at line L,
// column C: ...".
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "util/file.h"
#include "util/status.h"

namespace staq::exp {

/// Line/column-tracking cursor over a text.
class TextCursor {
 public:
  /// `format` names the text in errors ("config", "policy", "json");
  /// `word_chars` lists what a Word() takes besides [A-Za-z0-9].
  TextCursor(std::string_view text, std::string format,
             std::string word_chars = "")
      : text_(text),
        format_(std::move(format)),
        word_chars_(std::move(word_chars)) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  /// True when the next character is `c`.
  bool At(char c) const { return !AtEnd() && Peek() == c; }
  /// The text from the cursor on.
  std::string_view Rest() const { return text_.substr(pos_); }

  void Advance();

  /// Skips spaces, tabs and carriage returns (stays on the line).
  void SkipInline() { Skip(" \t\r"); }
  /// Skips every kind of whitespace, newlines included.
  void SkipSpace() { Skip(" \t\r\n"); }
  /// Skips whitespace, newlines and '#' comments.
  void SkipLines();

  /// Reads a run of word characters; "" means "no word here", which the
  /// caller turns into a positioned error.
  std::string Word();

  /// Consumes `c`, or fails with "expected 'c'" and then `context`.
  util::Status Expect(char c, const std::string& context = "");

  /// "<format> parse error at line L, column C: <what>".
  util::Status Error(const std::string& what) const;

 private:
  void Skip(std::string_view chars);

  std::string_view text_;
  std::string format_;
  std::string word_chars_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t line_start_ = 0;
};

/// One block format: its keyword and the parsers ParseBlocks calls.
struct BlockGrammar {
  std::string keyword;
  /// The noun a repeated block name is reported with:
  /// "duplicate <keyword> <noun> '<name>'".
  std::string duplicate_noun = "name";
  /// Starts block `name`; its '{' has been read.
  std::function<void(const std::string& name)> open;
  /// Reads one entry of the open block. The cursor is on the entry's first
  /// character; the entry must end at a newline, a '#' or the '}'.
  std::function<util::Status(TextCursor&)> entry;
  /// Checks the open block once its '}' has been read (empty: no check).
  std::function<util::Status(TextCursor&)> close = nullptr;
};

/// Reads `keyword <name> { entry... }` blocks until the text ends. Block
/// names are unique, and the text must hold at least one block.
util::Status ParseBlocks(TextCursor& cursor, const BlockGrammar& grammar);

/// Fails unless the entry ends here: after spaces, the line ends, a '#'
/// comment starts or the block closes. `what` names the entry.
util::Status EndEntry(TextCursor& cursor, const std::string& what);

/// Reads the file at `path` (named `what` in a read error) and parses it;
/// a parse error is prefixed with the path.
template <typename T>
util::Result<T> LoadFile(const std::string& path, const std::string& what,
                         util::Result<T> (*parse)(const std::string&)) {
  auto text = util::ReadFile(path, what);
  if (!text.ok()) return text.status();
  auto parsed = parse(text.value());
  if (!parsed.ok()) {
    return util::Status::InvalidArgument(path + ": " +
                                         parsed.status().message());
  }
  return parsed;
}

}  // namespace staq::exp
