// A line-oriented text format for probabilistic x-relations, so datasets
// can be stored, versioned and exchanged outside the process:
//
//   # comment
//   relation R34
//   schema name:string, job:string
//   vocab job machinist, mechanic, musician
//   tuple t31
//   alt 0.7 | John ; pilot
//   alt 0.3 | Johan ; mu*
//   tuple t32
//   alt 0.3 | Tim ; mechanic
//   alt 0.2 | Jim ; mechanic
//   alt 0.4 | Jim ; baker
//
// Value syntax inside an alternative (';'-separated, schema order):
//   _                     the non-existent value ⊥
//   text                  a certain value
//   text*                 a prefix pattern ('mu*')
//   {a:0.5, b:0.3}        a distribution (residual mass is ⊥);
//                         pattern entries use 'text*' keys
//
// Restrictions: value texts must not contain the structural characters
// ';', ',', ':', '{', '}', '|' or leading/trailing whitespace.

#ifndef PDD_PDB_TEXT_FORMAT_H_
#define PDD_PDB_TEXT_FORMAT_H_

#include <string>
#include <string_view>

#include "pdb/xrelation.h"
#include "util/status.h"

namespace pdd {

/// Serializes an x-relation to the text format (stable round-trip with
/// ParseXRelation up to probability formatting).
std::string SerializeXRelation(const XRelation& rel);

/// Parses the text format. Errors carry the offending line number.
Result<XRelation> ParseXRelation(std::string_view text);

/// Reads the file at `path` (a pipe such as /dev/stdin included) once
/// and parses it; NotFound when it cannot be opened.
Result<XRelation> LoadXRelation(const std::string& path);

/// Serializes a single probabilistic value using the value syntax above.
std::string SerializeValue(const Value& value);

/// Parses a single value.
Result<Value> ParseValue(std::string_view text);

}  // namespace pdd

#endif  // PDD_PDB_TEXT_FORMAT_H_
