// Atomic whole-file replacement: the one way the files the tools write
// (decision-cache snapshots, pdd.index.v1 images, telemetry sidecars,
// pddserve's relation dump) reach disk.

#ifndef PDD_UTIL_FILE_UTIL_H_
#define PDD_UTIL_FILE_UTIL_H_

#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pdd {

/// `path` with its symbolic links followed: the regular file it names,
/// or the file a write creates when nothing is there (a dangling link
/// names its target). InvalidArgument when something other than a
/// regular file is there (a directory, a device, a FIFO, a pipe reached
/// through /proc/self/fd as /dev/stdout reaches one).
Result<std::string> ResolveRegularFile(const std::string& path);

/// Checks an output path before the work that fills it: OK when
/// ResolveRegularFile(path) names a regular file or nothing in a
/// directory that exists, and not the file standard output or error
/// goes to; InvalidArgument otherwise. The tools call it as they parse
/// their flags, so a bad path fails before the run.
Status CheckOutputPath(const std::string& path);

/// Stores the next piece of a file's bytes in `*piece` (valid until the
/// next call) and returns true, or returns false after the last piece.
using FilePieces = std::function<bool(std::string_view* piece)>;

/// Replaces the file ResolveRegularFile(path) names with the pieces
/// `next_piece` yields, in order, so a link stays a link: writes a
/// temporary file unique to this writer beside it, each piece as it
/// comes, fsyncs it, renames it over the old file (whose permission
/// bits it keeps) and fsyncs the directory. Readers, a mapping of the
/// old file included, see the old bytes or the new ones, and a crash
/// leaves one of them whole. Refusals come before anything is created
/// or any piece is asked for; other failures are Internal and remove
/// the temporary file, as does an exception from `next_piece`.
Status WriteFileAtomically(const std::string& path,
                           const FilePieces& next_piece);

/// The one-piece case: replaces the file with `bytes`.
Status WriteFileAtomically(const std::string& path, std::string_view bytes);

}  // namespace pdd

#endif  // PDD_UTIL_FILE_UTIL_H_
