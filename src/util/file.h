// Whole-file reads for the repo's text inputs (configs, packs, policies,
// JSON documents, CSV tables).
#pragma once

#include <string>

#include "util/status.h"

namespace staq::util {

/// The bytes of the file at `path`. kIoError when it cannot be opened or
/// read (a directory opens but does not read); the message names `what`,
/// the path and the system's reason.
Result<std::string> ReadFile(const std::string& path,
                             const std::string& what = "file");

}  // namespace staq::util
