// Minimal command-line flag parsing for the deepcrawl tools.
//
// Supports "--name=value", "--name value", bare boolean "--name" and
// "--no-name". Unknown flags are errors; positional arguments are
// collected separately. No global state: each binary builds its own
// FlagParser.
//
// Every numeric flag declares the closed range [min, max] it accepts
// where it is registered, and Parse enforces it: a sentinel such as
// "0 = unlimited" lies inside the range, and a flag that fills a
// narrower or unsigned field declares that field's range, so nothing
// wraps on the cast. There is no second place to check a range.

#ifndef DEEPCRAWL_UTIL_FLAGS_H_
#define DEEPCRAWL_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace deepcrawl {

// The upper bound of an integer flag that fills a uint32_t field.
inline constexpr int64_t kFlagUint32Max =
    std::numeric_limits<uint32_t>::max();

class FlagParser {
 public:
  FlagParser() = default;

  // Registration: `target` must outlive Parse. Duplicate names abort, as
  // does a numeric default outside [min, max].
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);
  void AddInt64(const std::string& name, int64_t* target, int64_t min,
                int64_t max, const std::string& help);
  void AddDouble(const std::string& name, double* target, double min,
                 double max, const std::string& help);
  void AddBool(const std::string& name, bool* target,
               const std::string& help);

  // Parses argv[1..argc); fills targets; collects non-flag arguments
  // into positional(). Returns kInvalidArgument on unknown flags,
  // unparsable values, an integer that overflows int64_t, NaN, and any
  // numeric value outside its flag's range.
  Status Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  // One entry per registered flag: "--name (default: ...)" with a
  // numeric flag's range after the default ("; in [min, max]", or
  // "; >= min" when max is INT64_MAX), then the help on its own line.
  std::string HelpText() const;

 private:
  enum class Kind { kString, kInt64, kDouble, kBool };
  struct Flag {
    Kind kind = Kind::kString;
    void* target = nullptr;
    std::string help;
    std::string default_text;
    // Numeric flags only: the accepted range (integer bounds are exact
    // in int_min/int_max), and its text for help and errors.
    int64_t int_min = 0;
    int64_t int_max = 0;
    double min = 0.0;
    double max = 0.0;
    std::string range_text;
  };

  Flag& Register(const std::string& name, Kind kind, void* target,
                 const std::string& help, std::string default_text);
  Status Assign(const std::string& name, Flag& flag,
                const std::string& text);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_FLAGS_H_
