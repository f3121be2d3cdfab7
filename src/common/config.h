#ifndef MFGCP_COMMON_CONFIG_H_
#define MFGCP_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// `key=value` command-line / file configuration used by the example and
// benchmark binaries (e.g. `./quickstart seed=7 num_edps=300`). Keeps the
// binaries dependency-free while making every experiment parameterizable.
// The getters record which keys they read, so a binary can reject the keys
// it never read — a misspelt `contents=64` would otherwise run the
// defaults without a word.

namespace mfg::common {

class Config {
 public:
  Config() = default;

  // Parses `argv`-style tokens of the form key=value. Unrecognized tokens
  // (no '=') produce InvalidArgument. argv[0] is skipped.
  static StatusOr<Config> FromArgs(int argc, const char* const* argv);

  // Parses newline-separated key=value text ('#' starts a comment).
  static StatusOr<Config> FromText(std::string_view text);

  void Set(std::string key, std::string value);

  // Whether `key` is set. Counts as reading it.
  bool Has(std::string_view key) const;

  // Typed getters with defaults; a present-but-malformed value is an error
  // surfaced through *status if provided, otherwise falls back to default.
  std::string GetString(std::string_view key, std::string def) const;
  double GetDouble(std::string_view key, double def) const;
  std::int64_t GetInt(std::string_view key, std::int64_t def) const;
  bool GetBool(std::string_view key, bool def) const;

  const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }

  // Keys set here that no getter (Has or Get*) has read yet, in key order.
  // Copies share the record, so a key read through any copy counts as
  // read. Recording makes the getters write to it: read one Config and its
  // copies from one thread at a time.
  std::vector<std::string> UnreadKeys() const;

 private:
  // Looks `key` up and, when it is set, records it as read.
  std::map<std::string, std::string, std::less<>>::const_iterator Read(
      std::string_view key) const;

  std::map<std::string, std::string, std::less<>> entries_;
  std::shared_ptr<std::set<std::string, std::less<>>> read_ =
      std::make_shared<std::set<std::string, std::less<>>>();
};

}  // namespace mfg::common

#endif  // MFGCP_COMMON_CONFIG_H_
