#include "fleet/io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "fleet/record.h"
#include "simcore/fnv.h"

namespace vafs::fleet {

std::function<std::size_t(std::size_t)> IoHooks::write_gate;
std::function<bool()> IoHooks::fsync_gate;

void IoHooks::reset() {
  write_gate = nullptr;
  fsync_gate = nullptr;
}

bool write_all(int fd, const char* data, std::size_t n, std::string* error) {
  while (n > 0) {
    std::size_t allow = n;
    if (IoHooks::write_gate) {
      allow = IoHooks::write_gate(n);
      if (allow > n) allow = n;
    }
    const bool gated_short = allow < n;
    ssize_t wrote = 0;
    if (allow > 0) {
      wrote = ::write(fd, data, allow);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        *error = std::strerror(errno);
        return false;
      }
    }
    if (gated_short) {
      // The injected "disk" accepted a prefix and then filled up.
      *error = std::strerror(ENOSPC);
      return false;
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool fsync_fd(int fd, std::string* error) {
  if (IoHooks::fsync_gate && !IoHooks::fsync_gate()) {
    *error = std::strerror(EIO);
    return false;
  }
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    *error = std::strerror(errno);
    return false;
  }
  return true;
}

bool fsync_parent_dir(const std::string& path, std::string* error) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return true;  // not fatal: the rename itself already landed
  std::string sync_error;
  const bool ok = fsync_fd(fd, &sync_error);
  ::close(fd);
  if (!ok) {
    *error = "fsync of directory '" + dir + "': " + sync_error;
    return false;
  }
  return true;
}

namespace {

bool write_file_durable(const std::string& path, std::string_view body, std::string_view what,
                        std::string_view noun, std::string* error) {
  const std::string tag(what);
  const std::string kind(noun);
  const std::string tmp = path + ".tmp";
  const auto refuse = [&](const std::string& why) {
    ::unlink(tmp.c_str());
    *error = tag + ": " + why + "; " + kind + " left untouched at '" + path + "'";
    return false;
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    *error = tag + ": cannot open '" + tmp + "' for writing; " + kind +
             " left untouched at '" + path + "'";
    return false;
  }
  std::string io_error;
  if (!write_all(fd, body.data(), body.size(), &io_error)) {
    ::close(fd);
    return refuse("write to '" + tmp + "' failed: " + io_error);
  }
  // Data must be on disk *before* the rename publishes it, otherwise a
  // crash can leave a durable rename pointing at non-durable bytes.
  if (!fsync_fd(fd, &io_error)) {
    ::close(fd);
    return refuse("fsync of '" + tmp + "' failed: " + io_error);
  }
  if (::close(fd) != 0) {
    return refuse("close of '" + tmp + "' failed");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return refuse("rename '" + tmp + "' -> '" + path + "' failed");
  }
  if (!fsync_parent_dir(path, &io_error)) {
    // The rename itself landed; the new file is valid but its directory
    // entry may not survive a power loss. Report it.
    *error = tag + ": " + io_error;
    return false;
  }
  return true;
}

}  // namespace

bool write_sealed(const std::string& path, std::string body, std::string_view what,
                  std::string_view noun, std::string* error) {
  const std::uint64_t seal = sim::fnv1a(sim::fnv1a(sim::kFnvOffset, body), "end ");
  RecordWriter(body, "end").hex(seal).end();
  return write_file_durable(path, body, what, noun, error);
}

bool read_sealed(const std::string& path, std::string_view what, std::string* body,
                 std::string* error) {
  const std::string tag(what);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = tag + ": cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *body = std::move(buffer).str();
  const auto fail = [&](const char* why) {
    *error = tag + " '" + path + "': " + why;
    return false;
  };
  if (body->empty() || body->back() != '\n') return fail("truncated (no terminating end line)");
  const std::size_t end_at = body->rfind('\n', body->size() - 2) + 1;
  const std::string_view end_line(body->data() + end_at, body->size() - end_at - 1);
  std::uint64_t stated = 0;
  if (!RecordReader(end_line).tag("end").hex(&stated).done()) {
    return fail("truncated (malformed end line)");
  }
  if (sim::fnv1a(sim::kFnvOffset, body->data(), end_at + 4) != stated) {
    return fail("corrupt (checksum mismatch: file may be truncated or bit-flipped)");
  }
  body->resize(end_at);
  return true;
}

}  // namespace vafs::fleet
