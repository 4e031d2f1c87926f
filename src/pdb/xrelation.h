// X-relations (relations of x-tuples, Fig. 5) and conversions from the
// dependency-free model.

#ifndef PDD_PDB_XRELATION_H_
#define PDD_PDB_XRELATION_H_

#include <string>
#include <vector>

#include "pdb/relation.h"
#include "pdb/schema.h"
#include "pdb/xtuple.h"
#include "util/status.h"

namespace pdd {

/// A named relation containing one or more x-tuples.
class XRelation {
 public:
  XRelation() = default;

  /// Constructs an empty x-relation with the given name and schema.
  XRelation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// Appends an x-tuple after validating it against the schema.
  Status Append(XTuple xtuple);

  /// The validation Append performs, without appending.
  Status Check(const XTuple& xtuple) const;

  /// Unchecked append for trusted construction (asserts in debug builds).
  void AppendUnchecked(XTuple xtuple);

  /// Pre-allocates storage for `capacity` x-tuples. A standing relation
  /// (src/ingest) relies on this: appends within the reservation never
  /// reallocate, so references to already-appended tuples stay valid
  /// while later tuples arrive.
  void Reserve(size_t capacity) { xtuples_.reserve(capacity); }

  /// Relation name.
  const std::string& name() const { return name_; }

  /// The schema.
  const Schema& schema() const { return schema_; }

  /// All x-tuples in insertion order.
  const std::vector<XTuple>& xtuples() const { return xtuples_; }

  /// X-tuple at position `i`.
  const XTuple& xtuple(size_t i) const { return xtuples_[i]; }

  /// Number of x-tuples.
  size_t size() const { return xtuples_.size(); }

  /// Total number of alternative tuples across all x-tuples.
  size_t TotalAlternatives() const;

  /// Wraps every tuple of a dependency-free relation as a single-
  /// alternative x-tuple whose alternative probability is the tuple's
  /// membership probability. Attribute-level uncertainty is preserved
  /// inside the alternative's values.
  static XRelation FromRelation(const Relation& relation);

  /// Concatenates two x-relations with compatible schemas (the paper's
  /// R34 = R3 ∪ R4); fails on schema mismatch or duplicate tuple ids.
  static Result<XRelation> Union(const XRelation& a, const XRelation& b,
                                 std::string name);

  /// Paper-style rendering.
  std::string ToString() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<XTuple> xtuples_;
};

}  // namespace pdd

#endif  // PDD_PDB_XRELATION_H_
