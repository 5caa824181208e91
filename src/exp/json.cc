#include "exp/json.h"

#include <cctype>
#include <cstdlib>

#include "exp/text.h"
#include "util/strings.h"

namespace staq::exp {

bool JsonScalar::SameAs(const JsonScalar& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case JsonKind::kNull: return true;
    case JsonKind::kBool: return b == other.b;
    case JsonKind::kNumber: return raw == other.raw;
    case JsonKind::kString: return str == other.str;
  }
  return false;
}

std::string JsonScalar::ToString() const {
  switch (kind) {
    case JsonKind::kNull: return "null";
    case JsonKind::kBool: return b ? "true" : "false";
    case JsonKind::kNumber: return raw;
    case JsonKind::kString: return "\"" + str + "\"";
  }
  return "?";
}

namespace {

/// Recursive-descent parser over `text`, emitting flattened (path, scalar)
/// pairs into the output map.
class Parser {
 public:
  Parser(const std::string& text, std::map<std::string, JsonScalar>* out)
      : cursor_(text, "json"), out_(out) {}

  util::Status Run() {
    cursor_.SkipSpace();
    STAQ_RETURN_NOT_OK(Value(""));
    cursor_.SkipSpace();
    if (!cursor_.AtEnd()) {
      return cursor_.Error("trailing content after document");
    }
    return util::Status::OK();
  }

 private:
  util::Status Value(const std::string& path) {
    if (cursor_.AtEnd()) return cursor_.Error("unexpected end of document");
    char c = cursor_.Peek();
    if (c == '{') return Object(path);
    if (c == '[') return Array(path);
    if (c == '"') {
      JsonScalar s;
      s.kind = JsonKind::kString;
      STAQ_RETURN_NOT_OK(StringToken(&s.str));
      s.raw = s.str;
      (*out_)[path] = std::move(s);
      return util::Status::OK();
    }
    if (c == 't' || c == 'f' || c == 'n') return Literal(path);
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return Number(path);
    }
    return cursor_.Error("unexpected character");
  }

  util::Status Object(const std::string& path) {
    STAQ_RETURN_NOT_OK(cursor_.Expect('{'));
    cursor_.SkipSpace();
    if (cursor_.At('}')) {
      cursor_.Advance();
      return util::Status::OK();
    }
    while (true) {
      cursor_.SkipSpace();
      std::string key;
      if (!cursor_.At('"')) return cursor_.Error("expected member name");
      STAQ_RETURN_NOT_OK(StringToken(&key));
      cursor_.SkipSpace();
      STAQ_RETURN_NOT_OK(cursor_.Expect(':'));
      cursor_.SkipSpace();
      STAQ_RETURN_NOT_OK(Value(path.empty() ? key : path + "." + key));
      cursor_.SkipSpace();
      if (cursor_.AtEnd()) return cursor_.Error("unterminated object");
      if (!cursor_.At(',')) return cursor_.Expect('}');
      cursor_.Advance();
    }
  }

  util::Status Array(const std::string& path) {
    STAQ_RETURN_NOT_OK(cursor_.Expect('['));
    cursor_.SkipSpace();
    if (cursor_.At(']')) {
      cursor_.Advance();
      return util::Status::OK();
    }
    size_t index = 0;
    while (true) {
      cursor_.SkipSpace();
      STAQ_RETURN_NOT_OK(Value(util::Format("%s[%zu]", path.c_str(), index)));
      ++index;
      cursor_.SkipSpace();
      if (cursor_.AtEnd()) return cursor_.Error("unterminated array");
      if (!cursor_.At(',')) return cursor_.Expect(']');
      cursor_.Advance();
    }
  }

  util::Status Literal(const std::string& path) {
    static const struct {
      const char* token;
      JsonKind kind;
      bool value;
    } kLiterals[] = {{"true", JsonKind::kBool, true},
                     {"false", JsonKind::kBool, false},
                     {"null", JsonKind::kNull, false}};
    for (const auto& lit : kLiterals) {
      if (cursor_.Rest().starts_with(lit.token)) {
        JsonScalar s;
        s.kind = lit.kind;
        s.b = lit.value;
        s.raw = lit.token;
        for (size_t i = 0; i < s.raw.size(); ++i) cursor_.Advance();
        (*out_)[path] = std::move(s);
        return util::Status::OK();
      }
    }
    return cursor_.Error("unknown literal");
  }

  util::Status Number(const std::string& path) {
    JsonScalar s;
    s.kind = JsonKind::kNumber;
    while (!cursor_.AtEnd() &&
           (std::isdigit(static_cast<unsigned char>(cursor_.Peek())) ||
            std::string_view(".eE+-").find(cursor_.Peek()) !=
                std::string_view::npos)) {
      s.raw.push_back(cursor_.Peek());
      cursor_.Advance();
    }
    char* end = nullptr;
    s.num = std::strtod(s.raw.c_str(), &end);
    if (end == nullptr || *end != '\0' || s.raw.empty()) {
      return cursor_.Error("malformed number '" + s.raw + "'");
    }
    (*out_)[path] = std::move(s);
    return util::Status::OK();
  }

  util::Status StringToken(std::string* out) {
    STAQ_RETURN_NOT_OK(cursor_.Expect('"'));
    out->clear();
    while (true) {
      if (cursor_.AtEnd()) return cursor_.Error("unterminated string");
      char c = cursor_.Peek();
      if (c == '"') {
        cursor_.Advance();
        return util::Status::OK();
      }
      if (c == '\\') {
        cursor_.Advance();
        if (cursor_.AtEnd()) return cursor_.Error("unterminated escape");
        char e = cursor_.Peek();
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // \uXXXX: decode the code unit; non-ASCII re-encodes as UTF-8.
            const std::string_view digits = cursor_.Rest().substr(1, 4);
            if (digits.size() < 4) return cursor_.Error("truncated \\u escape");
            unsigned value = 0;
            for (char h : digits) {
              value <<= 4;
              if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
              else return cursor_.Error("bad \\u escape digit");
            }
            if (value < 0x80) {
              out->push_back(static_cast<char>(value));
            } else if (value < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (value >> 6)));
              out->push_back(static_cast<char>(0x80 | (value & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (value >> 12)));
              out->push_back(static_cast<char>(0x80 | ((value >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (value & 0x3F)));
            }
            for (int i = 0; i < 4; ++i) cursor_.Advance();
            break;
          }
          default:
            return cursor_.Error("unknown escape");
        }
        cursor_.Advance();
        continue;
      }
      out->push_back(c);
      cursor_.Advance();
    }
  }

  TextCursor cursor_;
  std::map<std::string, JsonScalar>* out_;
};

}  // namespace

util::Result<JsonDoc> JsonDoc::Parse(const std::string& text) {
  JsonDoc doc;
  Parser parser(text, &doc.entries_);
  STAQ_RETURN_NOT_OK(parser.Run());
  return doc;
}

const JsonScalar* JsonDoc::Find(const std::string& path) const {
  auto it = entries_.find(path);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace staq::exp
