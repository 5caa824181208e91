#include "util/csv.h"

#include <cstdio>
#include <fstream>

#include "util/file.h"

namespace staq::util {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool row_has_content = false;

  size_t i = 0;
  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_was_quoted = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
    row_has_content = false;
  };

  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';  // escaped quote
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      if (!field.empty() || field_was_quoted) {
        return Status::InvalidArgument("quote inside unquoted field at byte " +
                                       std::to_string(i));
      }
      in_quotes = true;
      field_was_quoted = true;
      row_has_content = true;
    } else if (c == ',') {
      end_field();
      row_has_content = true;
    } else if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') {
      end_row();
      ++i;
    } else if (c == '\n' || c == '\r') {
      end_row();
    } else {
      field += c;
      row_has_content = true;
    }
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field");
  }
  // Trailing row without final newline.
  if (row_has_content || !row.empty() || !field.empty()) {
    end_row();
  }
  return rows;
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  auto text = ReadFile(path, "CSV file");
  if (!text.ok()) return text.status();
  return ParseCsv(text.value());
}

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

Status CsvTable::AddRow(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    return Status::InvalidArgument("row has " + std::to_string(cells.size()) +
                                   " cells, expected " +
                                   std::to_string(header_.size()));
  }
  rows_.push_back(std::move(cells));
  return Status::OK();
}

std::string CsvTable::ToCsv() const {
  std::string out;
  auto append_row = [&out](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ',';
      out += QuoteField(cells[i]);
    }
    out += '\n';
  };
  append_row(header_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

Status CsvTable::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out << ToCsv();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

std::string CsvTable::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string CsvTable::Num(int64_t v) { return std::to_string(v); }

}  // namespace staq::util
