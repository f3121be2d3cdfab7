#include "common/config.h"

#include <cstdlib>

#include "common/logging.h"

namespace mfg::common {

StatusOr<Config> Config::FromArgs(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string_view token(argv[i]);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" +
                                     std::string(token) + "'");
    }
    config.Set(std::string(token.substr(0, eq)),
               std::string(token.substr(eq + 1)));
  }
  return config;
}

StatusOr<Config> Config::FromText(std::string_view text) {
  Config config;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    std::string_view line = (end == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, end - start);
    // Strip comments and whitespace.
    if (std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (!line.empty()) {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        return Status::InvalidArgument("bad config line: '" +
                                       std::string(line) + "'");
      }
      config.Set(std::string(line.substr(0, eq)),
                 std::string(line.substr(eq + 1)));
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return config;
}

void Config::Set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

std::map<std::string, std::string, std::less<>>::const_iterator Config::Read(
    std::string_view key) const {
  auto it = entries_.find(key);
  if (it != entries_.end()) read_->insert(it->first);
  return it;
}

std::vector<std::string> Config::UnreadKeys() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : entries_) {
    if (read_->find(key) == read_->end()) unread.push_back(key);
  }
  return unread;
}

bool Config::Has(std::string_view key) const {
  return Read(key) != entries_.end();
}

std::string Config::GetString(std::string_view key, std::string def) const {
  auto it = Read(key);
  return it == entries_.end() ? def : it->second;
}

double Config::GetDouble(std::string_view key, double def) const {
  auto it = Read(key);
  if (it == entries_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    MFG_LOG(WARNING) << "config key '" << std::string(key)
                     << "' is not a double: '" << it->second
                     << "', using default";
    return def;
  }
  return v;
}

std::int64_t Config::GetInt(std::string_view key, std::int64_t def) const {
  auto it = Read(key);
  if (it == entries_.end()) return def;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    MFG_LOG(WARNING) << "config key '" << std::string(key)
                     << "' is not an int: '" << it->second
                     << "', using default";
    return def;
  }
  return v;
}

bool Config::GetBool(std::string_view key, bool def) const {
  auto it = Read(key);
  if (it == entries_.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  MFG_LOG(WARNING) << "config key '" << std::string(key)
                   << "' is not a bool: '" << v << "', using default";
  return def;
}

}  // namespace mfg::common
