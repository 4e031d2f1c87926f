// pddquery — build and serve pdd.index.v1 decision indexes.
//
// The serving half of the pipeline: `build` runs detection once and
// compiles the result into an immutable, mmap-able index file; the
// query subcommands answer duplicate/cluster questions from that file
// in microseconds without touching the pipeline again.
//
// Usage:
//   pddquery build   <relation.pxr> <out.pddindex> [options]
//                    run detection, compile the report into an index;
//                    options: --plan FILE, --workers N, --batch N,
//                    --set key=value (reaches every plan key; see
//                    `pddcli` for the order they apply in), --metrics
//                    FILE [--metrics-format json|prom]. The relation is
//                    read once, so it may be /dev/stdin. An
//                    <out.pddindex> or --metrics FILE that is no
//                    regular file, is where stdout or stderr goes or
//                    lies in a missing directory exits 1 before the run
//   pddquery pair    <index> <id1> <id2>
//                    the run's decision for one pair, printed exactly
//                    like a report --csv row (`id1,id2,sim,class`); a
//                    pair the run never examined prints `id1,id2,,none`
//   pddquery cluster <index> <id>       cluster id + members of a record
//   pddquery members <index> <cluster-id>   members of a cluster
//   pddquery inspect <index>            header/identity/size dump
//   pddquery verify  <index> <relation.pxr> [options]
//                    staleness gate: rejects a plan-fingerprint
//                    mismatch before running anything, then reruns the
//                    pipeline and proves the index byte-identical to
//                    the fresh report (source digest + every answer);
//                    build's options, and --metrics writes the fresh
//                    run's sidecar with the index's shape metrics
//   pddquery bench   <index> [--point N] [--membership N]
//                    [--metrics FILE [--metrics-format json|prom]]
//                    deterministic query sweep; reports queries/sec
//
// Exit status 0 on success; 1 on any error, including a stale,
// corrupted or truncated index.

#include <iostream>
#include <string>
#include <vector>

#include "index/index_cli.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pddquery "
                 "<build|pair|cluster|members|inspect|verify|bench> ...\n";
    return 1;
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "build") return pdd::RunIndexBuild(args);
  return pdd::RunIndexQuery(command, args);
}
