#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace staq::util {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

Result<double> ParseDouble(const std::string& text,
                           const std::string& context) {
  char* end = nullptr;
  const std::string trimmed = Trim(text);
  double value = std::strtod(trimmed.c_str(), &end);
  if (trimmed.empty() || end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("bad number '" + text + "' in " + context);
  }
  return value;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Format("\\u%04x", static_cast<unsigned>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace staq::util
