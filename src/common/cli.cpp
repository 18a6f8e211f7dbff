#include "common/cli.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"

namespace fsbb {
namespace {

/// "unknown flag --name", plus the replacement when the flag was retired.
std::string unknown_flag(const std::string& name) {
  std::string what = "unknown flag --" + name;
  if (name == "time-limit") {
    what += " (retired: use --deadline-ms <ms>, which stops every backend)";
  }
  return what;
}

}  // namespace

CliArgs CliArgs::parse(int argc, const char* const* argv,
                       const std::vector<std::string>& known_flags,
                       const std::vector<std::string>& bool_flags) {
  CliArgs out;
  if (argc > 0) out.program_ = argv[0];
  const auto contains = [](const std::vector<std::string>& flags,
                           const std::string& name) {
    return std::find(flags.begin(), flags.end(), name) != flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      FSBB_CHECK_MSG(contains(known_flags, name) || contains(bool_flags, name),
                     unknown_flag(name));
    } else if (contains(bool_flags, name)) {
      value = "1";
    } else {
      FSBB_CHECK_MSG(contains(known_flags, name), unknown_flag(name));
      FSBB_CHECK_MSG(i + 1 < argc, "flag --" + name + " needs a value");
      value = argv[++i];
    }
    out.flags_[name] = std::move(value);
  }
  return out;
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  if (const auto it = flags_.find(name); it != flags_.end()) return it->second;
  return std::nullopt;
}

std::string CliArgs::get_or(const std::string& name,
                            std::string fallback) const {
  if (const auto v = get(name)) return *v;
  return fallback;
}

std::int64_t CliArgs::get_int_or(const std::string& name,
                                 std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(*v, &consumed);
    FSBB_CHECK_MSG(consumed == v->size(),
                   "flag --" + name + ": trailing junk in '" + *v + "'");
    return parsed;
  } catch (const CheckFailure&) {
    throw;
  } catch (const std::exception&) {
    throw CheckFailure("flag --" + name + ": '" + *v +
                       "' is not a valid integer");
  }
}

double CliArgs::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*v, &consumed);
    FSBB_CHECK_MSG(consumed == v->size(),
                   "flag --" + name + ": trailing junk in '" + *v + "'");
    return parsed;
  } catch (const CheckFailure&) {
    throw;
  } catch (const std::exception&) {
    throw CheckFailure("flag --" + name + ": '" + *v +
                       "' is not a valid number");
  }
}

}  // namespace fsbb
