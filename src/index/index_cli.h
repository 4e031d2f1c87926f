// Shared command implementations of the decision-index tool surface.
// `tools/pddquery.cc` (the standalone build/query tool, mirroring
// pestrie's pes-indexer/pes-querier split) and `pddcli index-build` /
// `pddcli index-query` both dispatch here, so the two entry points
// cannot drift.
//
//   build    <relation.pxr> <out.pddindex> [plan/sidecar flags]
//            run the pipeline, compile the result into an index file
//   pair     <index> <id1> <id2>      one point query (CSV-formatted
//            exactly like the report's --csv rows, so answers diff
//            cleanly against a fresh run)
//   cluster  <index> <id>             cluster id + members of a record
//   members  <index> <cluster-id>     members of a cluster
//   inspect  <index>                  header/identity/size dump
//   verify   <index> <relation.pxr> [plan/sidecar flags]
//            recompute: reject stale plan fingerprint / source digest,
//            then prove every indexed answer equals the fresh report
//   bench    <index> [--point N] [--membership N] [sidecar flags]
//            deterministic query sweep; records queries/sec
//
// The plan flags (--plan FILE, --workers N, --batch N, --set
// key=value) and the sidecar flags (--metrics FILE [--metrics-format
// json|prom]) are core/tool_args.h's groups. `build` and `verify` read
// the relation once, so it may come from a pipe (/dev/stdin). Each of
// `build`, `verify` and `bench` writes a pdd.telemetry.v1 sidecar with
// the `exec.index.*` shape metrics (`build` adds the build time,
// `bench` the `time.index.*` query rates, `verify` the fresh run's
// telemetry).

#ifndef PDD_INDEX_INDEX_CLI_H_
#define PDD_INDEX_INDEX_CLI_H_

#include <string>
#include <vector>

namespace pdd {

/// `build` with everything after the subcommand in `args`. Returns the
/// process exit code (0 success, 1 failure) and prints diagnostics to
/// stderr, results to stdout.
int RunIndexBuild(const std::vector<std::string>& args);

/// One of the query subcommands (`pair`, `cluster`, `members`,
/// `inspect`, `verify`, `bench`) with its operands in `args`.
int RunIndexQuery(const std::string& mode,
                  const std::vector<std::string>& args);

}  // namespace pdd

#endif  // PDD_INDEX_INDEX_CLI_H_
