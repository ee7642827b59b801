#include "support/cli.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "support/error.h"
#include "support/json.h"
#include "support/strings.h"

namespace clpp {

namespace {
std::atomic<FatalHook> g_fatal_hook{nullptr};
}  // namespace

void set_fatal_hook(FatalHook hook) {
  g_fatal_hook.store(hook, std::memory_order_release);
}

ArgParser::ArgParser(std::string program, std::string blurb)
    : program_(std::move(program)), blurb_(std::move(blurb)) {}

void ArgParser::add_string(const std::string& name, std::string default_value,
                           std::string help) {
  options_[name] = Option{Kind::kString, default_value, std::move(default_value),
                          std::move(help)};
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        std::string help) {
  std::string text = std::to_string(default_value);
  options_[name] = Option{Kind::kInt, text, text, std::move(help)};
}

void ArgParser::add_double(const std::string& name, double default_value,
                           std::string help) {
  std::ostringstream os;
  os << default_value;
  options_[name] = Option{Kind::kDouble, os.str(), os.str(), std::move(help)};
}

void ArgParser::add_flag(const std::string& name, std::string help) {
  options_[name] = Option{Kind::kFlag, "false", "false", std::move(help)};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) throw InvalidArgument("unknown option --" + name);
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag) {
      opt.value = has_value ? value : "true";
      if (opt.value != "true" && opt.value != "false")
        throw InvalidArgument("--" + name + " expects true/false, got '" + value + "'");
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) throw InvalidArgument("--" + name + " expects a value");
      value = argv[++i];
    }
    if (opt.kind == Kind::kInt || opt.kind == Kind::kDouble) {
      // The whole value must parse: "1e3" is not the integer 1.
      std::size_t used = 0;
      try {
        if (opt.kind == Kind::kInt) (void)std::stoll(value, &used);
        else (void)std::stod(value, &used);
      } catch (const std::exception&) {
        used = 0;  // not a number at all
      }
      if (used == 0 || used != value.size())
        throw InvalidArgument("--" + name + " expects " +
                              (opt.kind == Kind::kInt ? "an integer" : "a number") +
                              ", got '" + value + "'");
    }
    opt.value = value;
  }
  return true;
}

const ArgParser::Option& ArgParser::find(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  CLPP_CHECK_MSG(it != options_.end(), "option --" << name << " was never declared");
  CLPP_CHECK_MSG(it->second.kind == kind, "option --" << name << " accessed as wrong type");
  return it->second;
}

std::string ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::kInt).value);
}

double ArgParser::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::kDouble).value);
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "true";
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << blurb_ << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << pad_right(name, 22) << opt.help;
    if (opt.kind != Kind::kFlag) os << " (default: " << opt.default_value << ")";
    os << "\n";
  }
  return os.str();
}

int report_cli_error(const std::string& program, const std::exception& error) {
  const char* kind = "exception";
  if (dynamic_cast<const IoError*>(&error) != nullptr) kind = "io_error";
  else if (dynamic_cast<const ParseError*>(&error) != nullptr) kind = "parse_error";
  else if (dynamic_cast<const InvalidArgument*>(&error) != nullptr)
    kind = "invalid_argument";
  else if (dynamic_cast<const Error*>(&error) != nullptr) kind = "error";
  Json line = Json::object();
  line["event"] = "fatal";
  line["program"] = program;
  line["kind"] = std::string(kind);
  line["message"] = std::string(error.what());
  std::fprintf(stderr, "%s\n", line.dump().c_str());
  if (const FatalHook hook = g_fatal_hook.load(std::memory_order_acquire))
    hook();
  return 2;
}

void write_cli_output(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw IoError("cannot open " + path + ": " + std::strerror(errno));
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fflush(f) == 0;
  const int write_errno = errno;
  if (std::fclose(f) != 0 || !ok)
    throw IoError("cannot write " + path + ": " +
                  std::strerror(ok ? errno : write_errno));
}

}  // namespace clpp
