#include "src/util/flags.h"

#include <cstdlib>
#include <sstream>

#include "src/util/logging.h"

namespace deepcrawl {

void FlagParser::Register(const std::string& name, Kind kind, void* target,
                          const std::string& help,
                          std::string default_text) {
  DEEPCRAWL_CHECK(target != nullptr);
  DEEPCRAWL_CHECK(!name.empty() && name[0] != '-')
      << "flag names are registered without dashes: " << name;
  bool inserted =
      flags_
          .emplace(name, Flag{kind, target, help, std::move(default_text)})
          .second;
  DEEPCRAWL_CHECK(inserted) << "duplicate flag --" << name;
}

void FlagParser::AddString(const std::string& name, std::string* target,
                           const std::string& help) {
  Register(name, Kind::kString, target, help, "\"" + *target + "\"");
}

void FlagParser::AddInt64(const std::string& name, int64_t* target,
                          const std::string& help) {
  Register(name, Kind::kInt64, target, help, std::to_string(*target));
}

void FlagParser::AddDouble(const std::string& name, double* target,
                           const std::string& help) {
  Register(name, Kind::kDouble, target, help, std::to_string(*target));
}

void FlagParser::AddBool(const std::string& name, bool* target,
                         const std::string& help) {
  Register(name, Kind::kBool, target, help, *target ? "true" : "false");
}

Status FlagParser::Assign(const std::string& name, Flag& flag,
                          const std::string& text) {
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = text;
      return Status::OK();
    case Kind::kInt64: {
      char* end = nullptr;
      long long parsed = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name + ": expected integer, "
                                       "got '" + text + "'");
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
    out << "  --" << name << " (default: " << flag.default_text << ")\n"
        << "      " << flag.help << "\n";
  }
  return out.str();
}

Status CheckFlagRange(const std::string& name, int64_t value, int64_t min,
                      int64_t max) {
  if (value >= min && value <= max) return Status::OK();
  std::string range = max == INT64_MAX
                          ? ">= " + std::to_string(min)
                          : "in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]";
  return Status::InvalidArgument("--" + name + " must be " + range +
                                 ", got " + std::to_string(value));
}

}  // namespace deepcrawl
