// The command-line front end the tools share (pddcli, pddserve,
// pddquery). A tool names the flag groups it takes and adds its own
// flags; ParseToolArgs parses them all in one pass and refuses any
// other flag as `unknown option`. The groups:
//
//   plan     --plan FILE, --set key=value, --workers N, --batch N
//   sidecar  --metrics FILE, --metrics-format json|prom
//   cache    --cache-capacity N, --cache-file PATH
//
// The plan flags apply in one order wherever they appear: every --plan
// file first, then --workers and --batch (the `executor.workers` and
// `executor.batch` plan keys), then every --set. Each plan parameter is
// spelled as its plan key, so DetectorConfig::FromSpec alone parses and
// validates the values (ResolveConfig). Output paths are checked while
// the flags are parsed, so a bad one fails before any work. Parsing
// reads no relation: the caller loads it once and resolves the plan
// against its schema.

#ifndef PDD_CORE_TOOL_ARGS_H_
#define PDD_CORE_TOOL_ARGS_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cache/decision_cache.h"
#include "core/config.h"
#include "obs/run_telemetry.h"
#include "pdb/schema.h"
#include "plan/plan_spec.h"
#include "util/status.h"

namespace pdd {

/// The shared flag groups; a tool combines them with `|`.
enum ToolFlagGroups : unsigned {
  kPlanFlags = 1u << 0,
  kSidecarFlags = 1u << 1,
  kCacheFlags = 1u << 2,
};

/// One flag of a tool's own. A flag that takes a value reads the next
/// argument; `apply` receives it ("" for a switch) and reports a
/// malformed one.
struct ToolFlag {
  std::string name;
  bool takes_value = true;
  std::function<Status(const std::string& value)> apply;
};

/// A switch that sets `*on`.
ToolFlag SwitchFlag(std::string name, bool* on);
/// A value kept as written (an input file).
ToolFlag TextFlag(std::string name, std::string* value);
/// A positive integer ("NAME needs a positive integer" otherwise).
ToolFlag CountFlag(std::string name, size_t* count);
/// An output path, refused unless CheckOutputPath accepts it.
ToolFlag OutputPathFlag(std::string name, std::string* path);

/// What the shared flags said, plus the operands.
struct ToolArgs {
  /// Plan group: each --plan file's spec, in command-line order.
  std::vector<PlanSpec> plans;
  /// Plan group: --workers/--batch as executor.* keys, then every --set
  /// (a later assignment to a key wins).
  PlanSpec overrides;
  /// Sidecar group; an empty file means no sidecar.
  std::string metrics_file;
  std::string metrics_format = "json";
  /// Cache group; 0 means the default capacity.
  size_t cache_capacity = 0;
  std::string cache_file;
  /// The arguments that are neither flags nor flag values, in order.
  std::vector<std::string> positional;
};

/// Parses `args` (what follows the tool's command) against the tool's
/// own `flags` and the flags of `groups`. An argument starting with '-'
/// is a flag ("-" alone is an operand); one no flag names is
/// InvalidArgument "unknown option '...'".
Result<ToolArgs> ParseToolArgs(const std::vector<std::string>& args,
                               unsigned groups,
                               std::vector<ToolFlag> flags = {});

/// The tools' plan before any flag: the key is the first attribute
/// with prefix 3 and the second with prefix 2, the weights are uniform
/// over the attributes, and the rest is DetectorConfig's defaults.
DetectorConfig DefaultConfig(const Schema& schema);

/// DefaultConfig(schema) with the plan flags applied in their order.
Result<DetectorConfig> ResolveConfig(const ToolArgs& args,
                                     const Schema& schema);

/// The decision cache the cache flags ask for: --cache-capacity entries
/// (the default capacity without it), warm-started from --cache-file.
/// A missing file is a cold start. After a load, "cache file: N torn
/// bytes dropped" goes to `*torn_report` when it is not null.
Result<std::shared_ptr<ShardedDecisionCache>> OpenCache(
    const ToolArgs& args, std::ostream* torn_report);

/// Writes `telemetry` to the --metrics file in --metrics-format; OK and
/// nothing written without --metrics.
Status WriteSidecar(const ToolArgs& args, const RunTelemetry& telemetry);

}  // namespace pdd

#endif  // PDD_CORE_TOOL_ARGS_H_
