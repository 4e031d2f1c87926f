// The text-format-safe form of a generated relation. The error channel
// can delete the only character of a text (ErrorInjector::DeleteChar)
// or leave a space at its end (a corrupted full name), which XRelation
// accepts but the text format of pdb/text_format.h cannot carry: an
// empty text does not parse back, and the parser trims the spaces
// around a text, so two alternatives that differ only there parse as
// one duplicate. The generators keep their output as is (datasets are
// defined by it); writers apply this mapping instead.

#ifndef PDD_DATAGEN_TEXT_SAFE_H_
#define PDD_DATAGEN_TEXT_SAFE_H_

#include "pdb/xrelation.h"

namespace pdd {

/// `rel` with every value alternative's text trimmed as the parser
/// trims it. Alternatives whose trimmed texts match merge into the
/// first, summing their probabilities; an empty text drops into its
/// value's ⊥ mass, and a value left with no alternatives becomes ⊥.
/// Every other value, tuple and the schema are copied unchanged, so a
/// relation whose texts are trimmed and distinct serializes to the
/// same bytes.
XRelation TextSafeRelation(const XRelation& rel);

}  // namespace pdd

#endif  // PDD_DATAGEN_TEXT_SAFE_H_
