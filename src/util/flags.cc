#include "src/util/flags.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "src/util/logging.h"

namespace deepcrawl {
namespace {

// Shortest text that parses back to `value`: "0.85", not "0.850000".
std::string FormatDouble(double value) {
  char text[32];
  auto result = std::to_chars(text, text + sizeof(text), value);
  return std::string(text, result.ptr);
}

std::string RangeText(const std::string& min, const std::string& max) {
  return "in [" + min + ", " + max + "]";
}

}  // namespace

FlagParser::Flag& FlagParser::Register(const std::string& name, Kind kind,
                                       void* target, const std::string& help,
                                       std::string default_text) {
  DEEPCRAWL_CHECK(target != nullptr);
  DEEPCRAWL_CHECK(!name.empty() && name[0] != '-')
      << "flag names are registered without dashes: " << name;
  auto [it, inserted] = flags_.emplace(name, Flag{});
  DEEPCRAWL_CHECK(inserted) << "duplicate flag --" << name;
  it->second.kind = kind;
  it->second.target = target;
  it->second.help = help;
  it->second.default_text = std::move(default_text);
  return it->second;
}

void FlagParser::AddString(const std::string& name, std::string* target,
                           const std::string& help) {
  Register(name, Kind::kString, target, help, "\"" + *target + "\"");
}

void FlagParser::AddInt64(const std::string& name, int64_t* target,
                          int64_t min, int64_t max, const std::string& help) {
  DEEPCRAWL_CHECK(min <= *target && *target <= max)
      << "--" << name << " default out of its range";
  Flag& flag =
      Register(name, Kind::kInt64, target, help, std::to_string(*target));
  flag.int_min = min;
  flag.int_max = max;
  flag.range_text = max == INT64_MAX
                        ? ">= " + std::to_string(min)
                        : RangeText(std::to_string(min), std::to_string(max));
}

void FlagParser::AddDouble(const std::string& name, double* target,
                           double min, double max, const std::string& help) {
  DEEPCRAWL_CHECK(min <= *target && *target <= max)
      << "--" << name << " default out of its range";
  Flag& flag =
      Register(name, Kind::kDouble, target, help, FormatDouble(*target));
  flag.min = min;
  flag.max = max;
  flag.range_text = RangeText(FormatDouble(min), FormatDouble(max));
}

void FlagParser::AddBool(const std::string& name, bool* target,
                         const std::string& help) {
  Register(name, Kind::kBool, target, help, *target ? "true" : "false");
}

Status FlagParser::Assign(const std::string& name, Flag& flag,
                          const std::string& text) {
  auto out_of_range = [&] {
    return Status::InvalidArgument("--" + name + " must be " +
                                   flag.range_text + ", got " + text);
  };
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = text;
      return Status::OK();
    case Kind::kInt64: {
      char* end = nullptr;
      errno = 0;
      long long parsed = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name + ": expected integer, "
                                       "got '" + text + "'");
      }
      // strtoll saturates on overflow; only errno tells the value is not
      // the one given.
      if (errno == ERANGE || parsed < flag.int_min || parsed > flag.int_max) {
        return out_of_range();
      }
      *static_cast<int64_t*>(flag.target) = parsed;
      return Status::OK();
    }
    case Kind::kDouble: {
      char* end = nullptr;
      double parsed = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name + ": expected number, "
                                       "got '" + text + "'");
      }
      // Written so that NaN, which compares false, is out of range.
      if (!(flag.min <= parsed && parsed <= flag.max)) return out_of_range();
      *static_cast<double*>(flag.target) = parsed;
      return Status::OK();
    }
    case Kind::kBool: {
      if (text == "true" || text == "1") {
        *static_cast<bool*>(flag.target) = true;
      } else if (text == "false" || text == "0") {
        *static_cast<bool*>(flag.target) = false;
      } else {
        return Status::InvalidArgument("--" + name +
                                       ": expected true/false, got '" +
                                       text + "'");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable flag kind");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  positional_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }

    auto it = flags_.find(body);
    // "--no-foo" negates a registered boolean "foo".
    if (it == flags_.end() && !has_value && body.rfind("no-", 0) == 0) {
      auto no_it = flags_.find(body.substr(3));
      if (no_it != flags_.end() && no_it->second.kind == Kind::kBool) {
        *static_cast<bool*>(no_it->second.target) = false;
        continue;
      }
    }
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        *static_cast<bool*>(flag.target) = true;
        continue;
      }
      // Consume the next argv element as the value.
      if (i + 1 >= argc) {
        return Status::InvalidArgument("--" + body + " needs a value");
      }
      value = argv[++i];
    }
    DEEPCRAWL_RETURN_IF_ERROR(Assign(body, flag, value));
  }
  return Status::OK();
}

std::string FlagParser::HelpText() const {
  std::ostringstream out;
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.default_text;
    if (!flag.range_text.empty()) out << "; " << flag.range_text;
    out << ")\n      " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace deepcrawl
