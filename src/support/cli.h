// Minimal command-line argument parser used by benches and examples.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` styles.
// Unknown arguments raise InvalidArgument so typos never silently fall back
// to defaults in an experiment run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace clpp {

/// Declarative CLI parser: declare options, then parse(argc, argv).
class ArgParser {
 public:
  /// `program` and `blurb` are used by help().
  ArgParser(std::string program, std::string blurb);

  /// Declares a string option with a default value.
  void add_string(const std::string& name, std::string default_value, std::string help);
  /// Declares an integer option with a default value.
  void add_int(const std::string& name, std::int64_t default_value, std::string help);
  /// Declares a floating-point option with a default value.
  void add_double(const std::string& name, double default_value, std::string help);
  /// Declares a boolean flag (false unless present; `--name=false` accepted).
  void add_flag(const std::string& name, std::string help);

  /// Parses argv; throws InvalidArgument on unknown names or bad values.
  /// Returns false if `--help` was requested (help text printed to stdout).
  bool parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Positional arguments left over after option parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders the usage/help text.
  std::string help() const;

 private:
  enum class Kind { kString, kInt, kDouble, kFlag };
  struct Option {
    Kind kind;
    std::string value;  // canonical textual value
    std::string default_value;
    std::string help;
  };

  const Option& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string blurb_;
  std::map<std::string, Option> options_;
  std::vector<std::string> positional_;
};

/// Top-level exception boundary for CLI tools. Prints a one-line structured
/// JSON diagnostic to stderr ({"event":"fatal","program":...,"kind":...,
/// "message":...}), invokes the fatal hook (if installed), and returns the
/// conventional exit code 2. `kind` is the most-derived clpp error class
/// ("io_error", "parse_error", "invalid_argument", "error") or "exception"
/// for foreign std::exceptions.
int report_cli_error(const std::string& program, const std::exception& error);

/// Writes a CLI artifact (`--out`, `--stats-out`) to `path` in place,
/// checking the write, the flush and the close; throws IoError naming the
/// cause. No temp file and rename, so a device path is written through,
/// never replaced.
void write_cli_output(const std::string& path, std::string_view text);

/// Callback invoked by `report_cli_error` after printing the diagnostic.
/// clpp::obs installs one at process start that dumps the flight recorder,
/// so crashing CLIs ship their recent event history (support cannot depend
/// on obs, hence the upward-registered hook). Must not throw.
using FatalHook = void (*)();
void set_fatal_hook(FatalHook hook);

}  // namespace clpp
