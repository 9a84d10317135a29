// Durable POSIX write helpers for the fleet persistence layer (checkpoint
// manifests, spools, quarantine logs), the one seal on sealed files
// (the manifest and tune-state.ckpt), plus test-only failure injection.
//
// Every byte that a resume depends on goes through write_all/fsync_fd:
// short writes are retried, EINTR is handled, and errors surface as a
// descriptive message instead of a silently truncated file. Callers follow
// the write-fsync-rename-fsync(dir) discipline so a kill at any boundary
// leaves either the old or the new file intact, never a torn one.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace vafs::fleet {

/// Test-only injection points for the durable-write paths. Production code
/// consults these before each physical write()/fsync(); tests install
/// callbacks to simulate a full disk (ENOSPC), a short write at an exact
/// byte boundary, or a failing fsync. Global and deliberately unguarded:
/// install only from single-threaded test setup and reset() afterwards.
struct IoHooks {
  /// Called with the byte count about to be written; returns how many
  /// bytes the "disk" accepts. >= n lets the write through untouched;
  /// anything less writes that many real bytes and then fails the call
  /// with ENOSPC — the truncated-at-byte-k kill/ENOSPC simulation.
  static std::function<std::size_t(std::size_t n)> write_gate;
  /// Return false to fail the next fsync() with EIO.
  static std::function<bool()> fsync_gate;

  static void reset();
};

/// Writes all n bytes to fd (retrying short writes and EINTR). On failure
/// fills `error` with the errno text and returns false; the file may hold
/// a prefix of the data — callers must treat the destination as torn.
bool write_all(int fd, const char* data, std::size_t n, std::string* error);

/// fsync with EINTR retry and hook consultation.
bool fsync_fd(int fd, std::string* error);

/// fsyncs the directory containing `path`, making a completed rename into
/// that directory durable. Failure to *open* the directory is ignored
/// (some filesystems refuse O_RDONLY on directories); a failing fsync on
/// an opened directory is reported.
bool fsync_parent_dir(const std::string& path, std::string* error);

/// Publishes `body` at `path` sealed: the body, then "end <hex>\n", where
/// the hex is FNV-1a over every byte before it, "end " included. The write
/// is atomic and durable: sibling .tmp, every write checked (write_all),
/// fsync, rename into place, directory fsync. On any failure the previous
/// file at `path` — if any — is left intact, the .tmp is unlinked and
/// `error` gets a pointed message prefixed with `what` (e.g. "checkpoint")
/// naming the untouched file as `noun` (e.g. "manifest"). The checkpoint
/// manifest and tune-state.ckpt both go through here, so both survive a
/// kill or ENOSPC at every byte boundary.
bool write_sealed(const std::string& path, std::string body, std::string_view what,
                  std::string_view noun, std::string* error);

/// Reads a write_sealed file whole and verifies its seal; on success
/// `body` holds every byte before the end line. A file that cannot be
/// opened, lacks a well-formed end line ("truncated ...") or fails the
/// checksum ("corrupt (checksum mismatch ...)") is refused with `error`
/// prefixed by `what` and the path — before a single field is read.
bool read_sealed(const std::string& path, std::string_view what, std::string* body,
                 std::string* error);

}  // namespace vafs::fleet
