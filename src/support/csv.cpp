#include "support/csv.h"

#include <fstream>
#include <sstream>

#include "support/error.h"

namespace clpp {

namespace {
std::string csv_field(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}
}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {
  CLPP_CHECK_MSG(!header_.empty(), "CSV header must be non-empty");
}

void CsvWriter::add_row(std::vector<std::string> row) {
  CLPP_CHECK_MSG(row.size() == header_.size(),
                 "CSV row arity " << row.size() << " != header arity " << header_.size());
  rows_.push_back(std::move(row));
}

std::string CsvWriter::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) os << ',';
    os << csv_field(header_[i]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << csv_field(row[i]);
    }
    os << '\n';
  }
  return os.str();
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open CSV output file: " + path);
  out << str();
  if (!out) throw IoError("failed writing CSV output file: " + path);
}

}  // namespace clpp
