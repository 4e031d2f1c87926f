// The plan's key declaration, shared by the DetectorConfig ↔ PlanSpec
// translation (DetectorConfig::ToSpec / DetectorConfig::FromSpec are
// implemented in translate.cc) and the spec-closure lint.

#ifndef PDD_PLAN_TRANSLATE_H_
#define PDD_PLAN_TRANSLATE_H_

#include "core/config.h"
#include "plan/params.h"

namespace pdd {

/// Walks the base plan's keys and, right after the key that selects
/// each, the keys of the reduction, combination and derivation
/// `config` selects.
void VisitPlanParams(ParamVisitor& v, DetectorConfig& config);

}  // namespace pdd

#endif  // PDD_PLAN_TRANSLATE_H_
