#include "plan/param_map.h"

#include <cassert>
#include <cctype>

#include "util/string_util.h"

namespace pdd {

bool IsValidParamKey(std::string_view key) {
  if (key.empty()) return false;
  for (char c : key) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void ParamMap::Set(std::string key, std::string value) {
  assert(IsValidParamKey(key) && "param key must match [A-Za-z0-9_.-]+");
  entries_[std::move(key)] = std::move(value);
}

void ParamMap::SetDouble(std::string key, double value) {
  Set(std::move(key), FormatDouble(value));
}

void ParamMap::SetSize(std::string key, size_t value) {
  Set(std::move(key), std::to_string(value));
}

void ParamMap::SetBool(std::string key, bool value) {
  Set(std::move(key), value ? "true" : "false");
}

bool ParamMap::Erase(std::string_view key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

bool ParamMap::Has(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

const std::string* ParamMap::Find(std::string_view key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

std::string ParamMap::GetString(std::string_view key,
                                std::string default_value) const {
  const std::string* value = Find(key);
  return value != nullptr ? *value : std::move(default_value);
}

Result<double> ParamMap::GetDouble(std::string_view key,
                                   double default_value) const {
  const std::string* value = Find(key);
  if (value == nullptr) return default_value;
  double parsed = 0.0;
  if (!ParseDouble(*value, &parsed)) {
    return Status::InvalidArgument("parameter '" + std::string(key) +
                                   "' is not a number: '" + *value + "'");
  }
  return parsed;
}

Result<size_t> ParamMap::GetSize(std::string_view key,
                                 size_t default_value) const {
  const std::string* value = Find(key);
  if (value == nullptr) return default_value;
  size_t parsed = 0;
  if (!ParseSize(*value, &parsed)) {
    return Status::InvalidArgument("parameter '" + std::string(key) +
                                   "' is not a non-negative integer: '" +
                                   *value + "'");
  }
  return parsed;
}

Result<bool> ParamMap::GetBool(std::string_view key,
                               bool default_value) const {
  const std::string* value = Find(key);
  if (value == nullptr) return default_value;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  return Status::InvalidArgument("parameter '" + std::string(key) +
                                 "' is not a boolean: '" + *value + "'");
}

}  // namespace pdd
