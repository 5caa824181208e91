// Small string helpers shared across modules.
#pragma once

#include <string>
#include <vector>

#include "util/status.h"

namespace staq::util {

/// Splits `text` on `sep`; adjacent separators yield empty fields.
std::vector<std::string> Split(const std::string& text, char sep);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(const std::string& text);

/// True if `text` starts with `prefix`.
bool StartsWith(const std::string& text, const std::string& prefix);

/// Parses a decimal number, surrounding whitespace allowed; an error names
/// `context` ("bad number '<text>' in <context>").
Result<double> ParseDouble(const std::string& text, const std::string& context);

/// `text` escaped for the inside of a JSON string: quote, backslash, \n,
/// \r, \t, and \u00XX for every other control character.
std::string JsonEscape(const std::string& text);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace staq::util
