#include "util/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace staq::util {

Result<std::string> ReadFile(const std::string& path,
                             const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + what + ": " + path + " (" +
                           std::strerror(errno) + ")");
  }
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    text.append(buffer, n);
  }
  const bool failed = std::ferror(f) != 0;
  const int error = errno;
  std::fclose(f);
  if (failed) {
    return Status::IoError("cannot read " + what + ": " + path + " (" +
                           std::strerror(error) + ")");
  }
  return text;
}

}  // namespace staq::util
