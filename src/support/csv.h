// CSV writer for experiment outputs (figure series, sweep results).
#pragma once

#include <string>
#include <vector>

namespace clpp {

/// Accumulates rows and writes RFC-4180-ish CSV (quotes fields containing
/// separators/quotes/newlines). Header is fixed at construction.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  std::size_t row_count() const { return rows_.size(); }

  /// Renders the whole document.
  std::string str() const;

  /// Writes to `path`; throws IoError on failure.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace clpp
