// Minimal command-line flag parsing for the deepcrawl tools.
//
// Supports "--name=value", "--name value", bare boolean "--name" and
// "--no-name". Unknown flags are errors; positional arguments are
// collected separately. No global state: each binary builds its own
// FlagParser.

#ifndef DEEPCRAWL_UTIL_FLAGS_H_
#define DEEPCRAWL_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace deepcrawl {

class FlagParser {
 public:
  FlagParser() = default;

  // Registration: `target` must outlive Parse. Duplicate names abort.
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);
  void AddInt64(const std::string& name, int64_t* target,
                const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddBool(const std::string& name, bool* target,
               const std::string& help);

  // Parses argv[1..argc); fills targets; collects non-flag arguments
  // into positional(). Returns kInvalidArgument on unknown flags or
  // unparsable values.
  Status Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  // One line per registered flag: "--name (default: ...)  help".
  std::string HelpText() const;

 private:
  enum class Kind { kString, kInt64, kDouble, kBool };
  struct Flag {
    Kind kind;
    void* target;
    std::string help;
    std::string default_text;
  };

  void Register(const std::string& name, Kind kind, void* target,
                const std::string& help, std::string default_text);
  Status Assign(const std::string& name, Flag& flag,
                const std::string& text);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

// kInvalidArgument unless min <= value <= max: integer flags are parsed
// as int64_t, and the unsigned or narrower fields they fill would wrap a
// value out of range instead of rejecting it.
Status CheckFlagRange(const std::string& name, int64_t value, int64_t min,
                      int64_t max = INT64_MAX);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_FLAGS_H_
