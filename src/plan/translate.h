// Helpers shared by the DetectorConfig ↔ PlanSpec translation (the
// member functions DetectorConfig::ToSpec / DetectorConfig::FromSpec
// are implemented in translate.cc).

#ifndef PDD_PLAN_TRANSLATE_H_
#define PDD_PLAN_TRANSLATE_H_

#include <string>
#include <utility>
#include <vector>

namespace pdd {

/// The plan-spec form of DetectorConfig::key components,
/// "attr:len[,attr:len...]" (prefix length 0 = whole value), as in
/// "name:3,job:2". DetectorConfig::FromSpec parses it back.
std::string FormatKeyComponents(
    const std::vector<std::pair<std::string, size_t>>& key);

}  // namespace pdd

#endif  // PDD_PLAN_TRANSLATE_H_
