#pragma once
// write_file_atomically: the library's one durable file publish (internal, not
// installed; used by save_snapshot and save_shared_eval_cache).

#include <span>
#include <string>

namespace tunespace::util {

/// Publish the concatenation of `pieces` as `path`, so that a reader sees
/// either the previous file or the complete new one, also after a crash.
/// The bytes go to a temp file unique to this call (concurrent writers of one
/// path never share one), which is fsync'd and renamed over `path`; then the
/// directory entry is fsync'd.  Without the file fsync a crash can journal
/// the rename while losing the data blocks, leaving a well-formed name over
/// zeroed pages.  Throws std::runtime_error on failure and removes the temp
/// file.
void write_file_atomically(const std::string& path,
                           std::span<const std::span<const char>> pieces);

}  // namespace tunespace::util
