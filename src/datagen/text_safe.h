// The text-format-safe form of a generated relation. The error channel
// can delete the only character of a text (ErrorInjector::DeleteChar),
// which XRelation accepts but the text format of pdb/text_format.h
// cannot carry: an empty alternative, or an empty certain value, does
// not parse back. The generators keep their output as is (datasets
// are defined by it); writers apply this mapping instead.

#ifndef PDD_DATAGEN_TEXT_SAFE_H_
#define PDD_DATAGEN_TEXT_SAFE_H_

#include "pdb/xrelation.h"

namespace pdd {

/// `rel` with every empty-text value alternative dropped into its
/// value's ⊥ mass; a value left with no alternatives becomes ⊥. Every
/// other value, tuple and the schema are copied unchanged, so a
/// relation without empty texts serializes to the same bytes.
XRelation DropEmptyAlternatives(const XRelation& rel);

}  // namespace pdd

#endif  // PDD_DATAGEN_TEXT_SAFE_H_
