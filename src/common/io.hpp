#pragma once

// Durable file I/O primitives shared by the artifact store and the tools:
// whole-file reads, crash-safe atomic writes (temp file + fsync + rename),
// and the CRC32 used for artifact integrity checking. Header-only so every
// layer can use it without a new library dependency.

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "common/status.hpp"

namespace ced::io {

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320, reflected), the checksum that
/// guards every artifact section. Slice-by-8: eight bytes per step through
/// eight tables, where table k advances a byte's CRC by k further zero
/// bytes. Tables built once at first use.
inline std::uint32_t crc32(std::string_view data,
                           std::uint32_t seed = 0) {
  using Table = std::array<std::uint32_t, 256>;
  static const std::array<Table, 8> t = [] {
    std::array<Table, 8> tab{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tab[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        tab[k][i] = (tab[k - 1][i] >> 8) ^ tab[0][tab[k - 1][i] & 0xFFu];
      }
    }
    return tab;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  const auto le32 = [](const unsigned char* b) {
    return std::uint32_t{b[0]} | std::uint32_t{b[1]} << 8 |
           std::uint32_t{b[2]} << 16 | std::uint32_t{b[3]} << 24;
  };
  std::uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = le32(p) ^ crc;
    const std::uint32_t hi = le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

/// Reads a whole file into a string. Missing/unreadable files yield a
/// classified status instead of an exception.
inline Result<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::invalid_input(Stage::kStore,
                                 "cannot open " + path + ": " +
                                     std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    return Status::internal(Stage::kStore, "read error on " + path);
  }
  return out;
}

/// Crash-safe whole-file write: the bytes land in `<path>.tmp.<pid>`, are
/// fsync'd, and the temp file is renamed over `path` (atomic on POSIX), so a
/// reader never observes a half-written artifact — it sees either the old
/// file or the new one. The containing directory is fsync'd afterwards so
/// the rename itself survives a power cut.
inline Status atomic_write_file(const std::string& path,
                                std::string_view bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::internal(Stage::kStore, "cannot create " + tmp + ": " +
                                               std::strerror(errno));
  }
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::internal(Stage::kStore, "write error on " + tmp + ": " +
                                                 std::strerror(err));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::internal(Stage::kStore,
                            "fsync failed on " + tmp + ": " +
                                std::strerror(err));
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::internal(Stage::kStore,
                            "close failed on " + tmp + ": " +
                                std::strerror(err));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::internal(Stage::kStore, "rename " + tmp + " -> " + path +
                                               " failed: " +
                                               std::strerror(err));
  }
  // Persist the rename: fsync the directory entry. Best-effort — some
  // filesystems reject O_RDONLY fsync on directories; the data itself is
  // already durable at this point.
  const std::string dir = [&] {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
  }();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::make_ok();
}

}  // namespace ced::io
