#include "plan/params.h"

#include <algorithm>

#include "sim/edit_distance.h"
#include "sim/registry.h"
#include "util/string_util.h"

namespace pdd {

Status UnknownComponentError(std::string_view family, std::string_view name,
                             const std::vector<std::string>& registered) {
  std::string message =
      "unknown " + std::string(family) + " '" + std::string(name) + "'";
  const std::string* nearest = nullptr;
  size_t nearest_distance = 0;
  for (const std::string& candidate : registered) {
    size_t distance = LevenshteinDistance(name, candidate);
    if (nearest == nullptr || distance < nearest_distance) {
      nearest = &candidate;
      nearest_distance = distance;
    }
  }
  if (nearest != nullptr &&
      nearest_distance <= std::max<size_t>(2, name.size() / 2)) {
    message += "; did you mean '" + *nearest + "'?";
  }
  message += " registered: " + Join(registered, ", ");
  return Status::InvalidArgument(std::move(message));
}

std::string FormatKeyComponents(
    const std::vector<std::pair<std::string, size_t>>& key) {
  std::vector<std::string> pieces;
  pieces.reserve(key.size());
  for (const auto& [attribute, prefix] : key) {
    pieces.push_back(attribute + ":" + std::to_string(prefix));
  }
  return Join(pieces, ",");
}

namespace {

Result<std::vector<std::pair<std::string, size_t>>> ParseKeyComponents(
    std::string_view text) {
  std::vector<std::pair<std::string, size_t>> key;
  for (const std::string& piece : Split(text, ',')) {
    std::vector<std::string> parts = Split(piece, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument("key component '" + piece +
                                     "' is not attr:len");
    }
    double len = 0.0;
    if (!ParseDouble(Trim(parts[1]), &len) || len < 0 ||
        len != static_cast<double>(static_cast<size_t>(len))) {
      return Status::InvalidArgument("bad prefix length in '" + piece + "'");
    }
    key.emplace_back(std::string(Trim(parts[0])), static_cast<size_t>(len));
  }
  if (key.empty()) {
    return Status::InvalidArgument("empty key spec");
  }
  return key;
}

/// The comma-separated pieces of a list value; none when it is blank.
std::vector<std::string> ListPieces(std::string_view text) {
  if (Trim(text).empty()) return {};
  return Split(text, ',');
}

Result<std::vector<double>> ParseWeights(const char* key,
                                         std::string_view text) {
  std::vector<double> weights;
  for (const std::string& piece : ListPieces(text)) {
    double w = 0.0;
    if (!ParseDouble(Trim(piece), &w)) {
      return Status::InvalidArgument("bad weight '" + piece + "' in " + key);
    }
    weights.push_back(w);
  }
  return weights;
}

Result<std::vector<FsAttribute>> ParseFsAttributes(const char* key,
                                                   std::string_view text) {
  std::vector<FsAttribute> attributes;
  for (const std::string& piece : ListPieces(text)) {
    std::vector<std::string> fields = Split(piece, ':');
    FsAttribute attr;
    if (fields.size() != 3 || !ParseDouble(Trim(fields[0]), &attr.m) ||
        !ParseDouble(Trim(fields[1]), &attr.u) ||
        !ParseDouble(Trim(fields[2]), &attr.agreement_threshold)) {
      return Status::InvalidArgument(
          "bad Fellegi-Sunter attribute '" + piece + "' in " + key +
          " (want m:u:agreement_threshold)");
    }
    attributes.push_back(attr);
  }
  return attributes;
}

Result<const Comparator*> ResolveDistance(const char* key,
                                          std::string_view name) {
  if (name == "overlap") return static_cast<const Comparator*>(nullptr);
  if (name == "custom") {
    return Status::InvalidArgument(
        "plan specs cannot resolve a 'custom' " + std::string(key) +
        " comparator — set the option struct's comparator "
        "programmatically");
  }
  return GetComparator(name);
}

/// Only a comparator that IS the registry instance of its name prints
/// as that name; a caller-installed subclass that happens to share a
/// name must not silently alias the stock one on reload.
std::string DistanceName(const Comparator* comparator) {
  auto registered = GetComparator(comparator->name());
  bool is_registry_instance = registered.ok() && *registered == comparator;
  return is_registry_instance ? comparator->name() : "custom";
}

}  // namespace

ParamVisitor ParamVisitor::Reading(const ParamMap& params) {
  return ParamVisitor(&params, nullptr, nullptr);
}

ParamVisitor ParamVisitor::Printing(ParamMap* params) {
  return ParamVisitor(nullptr, params, nullptr);
}

ParamVisitor ParamVisitor::Listing(std::set<std::string>* keys) {
  return ParamVisitor(nullptr, nullptr, keys);
}

bool ParamVisitor::Visit(const char* key) {
  if (list_ != nullptr) list_->insert(key);
  return list_ == nullptr && status_.ok();
}

void ParamVisitor::Accept(const char* key) {
  if (list_ != nullptr) list_->insert(key);
}

void ParamVisitor::operator()(const char* key, size_t& field) {
  if (!Visit(key)) return;
  if (printing()) {
    print_->SetSize(key, field);
  } else {
    Assign(read_->GetSize(key, field), &field);
  }
}

void ParamVisitor::operator()(const char* key, double& field) {
  if (!Visit(key)) return;
  if (printing()) {
    print_->SetDouble(key, field);
  } else {
    Assign(read_->GetDouble(key, field), &field);
  }
}

void ParamVisitor::operator()(const char* key, bool& field) {
  if (!Visit(key)) return;
  if (printing()) {
    print_->SetBool(key, field);
  } else {
    Assign(read_->GetBool(key, field), &field);
  }
}

void ParamVisitor::operator()(const char* key, std::string& field) {
  if (!Visit(key)) return;
  if (printing()) {
    print_->Set(key, field);
  } else {
    field = read_->GetString(key, field);
  }
}

void ParamVisitor::operator()(
    const char* key, std::vector<std::pair<std::string, size_t>>& field) {
  if (!Visit(key)) return;
  if (printing()) {
    print_->Set(key, FormatKeyComponents(field));
    return;
  }
  std::string text = read_->GetString(key, "");
  if (!text.empty()) Assign(ParseKeyComponents(text), &field);
}

void ParamVisitor::operator()(const char* key, std::vector<double>& field) {
  if (!Visit(key)) return;
  if (printing()) {
    std::vector<std::string> pieces;
    pieces.reserve(field.size());
    for (double w : field) pieces.push_back(FormatDouble(w));
    print_->Set(key, Join(pieces, ","));
  } else if (read_->Has(key)) {
    Assign(ParseWeights(key, read_->GetString(key, "")), &field);
  }
}

void ParamVisitor::operator()(const char* key,
                              std::vector<FsAttribute>& field) {
  if (!Visit(key)) return;
  if (printing()) {
    std::vector<std::string> pieces;
    pieces.reserve(field.size());
    for (const FsAttribute& attr : field) {
      pieces.push_back(FormatDouble(attr.m) + ":" + FormatDouble(attr.u) +
                       ":" + FormatDouble(attr.agreement_threshold));
    }
    print_->Set(key, Join(pieces, ","));
  } else if (read_->Has(key)) {
    Assign(ParseFsAttributes(key, read_->GetString(key, "")), &field);
  }
}

void ParamVisitor::operator()(const char* key, const Comparator*& field) {
  if (!Visit(key)) return;
  if (printing()) {
    if (field != nullptr) print_->Set(key, DistanceName(field));
    return;
  }
  std::string name = read_->GetString(key, "");
  if (!name.empty()) Assign(ResolveDistance(key, name), &field);
}

}  // namespace pdd
