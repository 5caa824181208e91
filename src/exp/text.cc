#include "exp/text.h"

#include <set>

#include "util/strings.h"

namespace staq::exp {

void TextCursor::Advance() {
  if (text_[pos_] == '\n') {
    ++line_;
    line_start_ = pos_ + 1;
  }
  ++pos_;
}

void TextCursor::Skip(std::string_view chars) {
  while (!AtEnd() && chars.find(Peek()) != std::string_view::npos) Advance();
}

void TextCursor::SkipLines() {
  while (true) {
    SkipSpace();
    if (!At('#')) return;
    while (!AtEnd() && Peek() != '\n') Advance();
  }
}

std::string TextCursor::Word() {
  std::string out;
  while (!AtEnd()) {
    const char c = Peek();
    const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') ||
                      word_chars_.find(c) != std::string::npos;
    if (!word) break;
    out.push_back(c);
    Advance();
  }
  return out;
}

util::Status TextCursor::Expect(char c, const std::string& context) {
  if (!At(c)) {
    return Error(util::Format("expected '%c'", c) +
                 (context.empty() ? "" : " " + context));
  }
  Advance();
  return util::Status::OK();
}

util::Status TextCursor::Error(const std::string& what) const {
  return util::Status::InvalidArgument(util::Format(
      "%s parse error at line %zu, column %zu: %s", format_.c_str(), line_,
      pos_ - line_start_ + 1, what.c_str()));
}

util::Status ParseBlocks(TextCursor& cursor, const BlockGrammar& grammar) {
  const TextCursor start = cursor;
  const std::string& keyword = grammar.keyword;
  std::set<std::string> names;
  while (true) {
    cursor.SkipLines();
    if (cursor.AtEnd()) break;
    const std::string word = cursor.Word();
    if (word != keyword) {
      return cursor.Error("expected '" + keyword + "', got '" + word + "'");
    }
    cursor.SkipInline();
    const std::string name = cursor.Word();
    if (name.empty()) return cursor.Error(keyword + " block needs a name");
    if (!names.insert(name).second) {
      return cursor.Error("duplicate " + keyword + " " +
                          grammar.duplicate_noun + " '" + name + "'");
    }
    cursor.SkipInline();
    STAQ_RETURN_NOT_OK(cursor.Expect('{', "after " + keyword + " name"));
    grammar.open(name);
    while (true) {
      cursor.SkipLines();
      if (cursor.AtEnd()) {
        return cursor.Error("unterminated " + keyword +
                            " block (missing '}')");
      }
      if (cursor.At('}')) break;
      STAQ_RETURN_NOT_OK(grammar.entry(cursor));
    }
    cursor.Advance();
    if (grammar.close) STAQ_RETURN_NOT_OK(grammar.close(cursor));
  }
  if (names.empty()) return start.Error("no " + keyword + " blocks");
  return util::Status::OK();
}

util::Status EndEntry(TextCursor& cursor, const std::string& what) {
  cursor.SkipInline();
  if (cursor.AtEnd() || cursor.At('\n') || cursor.At('#') || cursor.At('}')) {
    return util::Status::OK();
  }
  return cursor.Error("unexpected trailing content after " + what);
}

}  // namespace staq::exp
