// Atomic whole-file replacement: the one way the state files the tools
// keep (decision-cache snapshots, pdd.index.v1 images) reach disk.

#ifndef PDD_UTIL_FILE_UTIL_H_
#define PDD_UTIL_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace pdd {

/// `path` with its symbolic links followed: the regular file it names,
/// or the file a write creates when nothing is there (a dangling link
/// names its target). InvalidArgument when something other than a
/// regular file is there (a directory, a device, a FIFO).
Result<std::string> ResolveRegularFile(const std::string& path);

/// Replaces the file ResolveRegularFile(path) names with `bytes`, so a
/// link stays a link: writes a temporary file unique to this writer
/// beside it, fsyncs it, renames it over the old file (whose permission
/// bits it keeps) and fsyncs the directory. Readers, a mapping of the
/// old file included, see the old bytes or the new ones, and a crash
/// leaves one of them whole. Refusals come before anything is created;
/// other failures are Internal and remove the temporary file.
Status WriteFileAtomically(const std::string& path, std::string_view bytes);

}  // namespace pdd

#endif  // PDD_UTIL_FILE_UTIL_H_
