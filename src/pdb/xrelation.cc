#include "pdb/xrelation.h"

#include <cassert>
#include <unordered_set>

namespace pdd {

Status XRelation::Append(XTuple xtuple) {
  PDD_RETURN_IF_ERROR(Check(xtuple));
  xtuples_.push_back(std::move(xtuple));
  return Status::OK();
}

Status XRelation::Check(const XTuple& xtuple) const {
  PDD_RETURN_IF_ERROR(xtuple.Validate());
  if (xtuple.arity() != schema_.arity()) {
    return Status::InvalidArgument(
        "x-tuple arity " + std::to_string(xtuple.arity()) +
        " does not match schema arity " + std::to_string(schema_.arity()));
  }
  return Status::OK();
}

void XRelation::AppendUnchecked(XTuple xtuple) {
  Status s = Append(std::move(xtuple));
  assert(s.ok());
  (void)s;
}

size_t XRelation::TotalAlternatives() const {
  size_t total = 0;
  for (const XTuple& t : xtuples_) total += t.size();
  return total;
}

XRelation XRelation::FromRelation(const Relation& relation) {
  XRelation out(relation.name(), relation.schema());
  for (const Tuple& t : relation.tuples()) {
    out.AppendUnchecked(XTuple(t.id(), {{t.values(), t.membership()}}));
  }
  return out;
}

Result<XRelation> XRelation::Union(const XRelation& a, const XRelation& b,
                                   std::string name) {
  if (!a.schema().CompatibleWith(b.schema())) {
    return Status::InvalidArgument("union of incompatible schemas: " +
                                   a.name() + " vs " + b.name());
  }
  std::unordered_set<std::string> ids;
  XRelation out(std::move(name), a.schema());
  for (const XRelation* rel : {&a, &b}) {
    for (const XTuple& t : rel->xtuples()) {
      if (!ids.insert(t.id()).second) {
        return Status::InvalidArgument("duplicate x-tuple id '" + t.id() +
                                       "' in union");
      }
      out.xtuples_.push_back(t);
    }
  }
  return out;
}

std::string XRelation::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < schema_.arity(); ++i) {
    if (i > 0) out += ", ";
    out += schema_.attribute(i).name;
  }
  out += ")\n";
  for (const XTuple& t : xtuples_) out += t.ToString();
  return out;
}

}  // namespace pdd
