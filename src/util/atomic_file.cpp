#include "util/atomic_file.hpp"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace tunespace::util {

namespace {

/// fsync a file or directory by name (best effort; a no-op off POSIX).
void sync_path(const std::string& name) {
#if !defined(_WIN32)
  if (const int fd = ::open(name.c_str(), O_RDONLY); fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)name;
#endif
}

}  // namespace

void write_file_atomically(const std::string& path,
                           std::span<const std::span<const char>> pieces) {
  // The random part separates processes, the counter the threads of one.
  static std::atomic<std::uint64_t> counter{0};
  std::random_device rd;
  const std::string tmp = path + ".tmp-" + std::to_string(rd()) + "-" +
                          std::to_string(counter.fetch_add(1));
  try {
    {
      std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
      if (!file) throw std::runtime_error("cannot open for writing: " + tmp);
      for (const std::span<const char> piece : pieces) {
        file.write(piece.data(), static_cast<std::streamsize>(piece.size()));
      }
      file.flush();
      if (!file) throw std::runtime_error("write failed: " + tmp);
    }
    sync_path(tmp);
    std::filesystem::rename(tmp, path);
    const std::string dir = std::filesystem::path(path).parent_path().string();
    sync_path(dir.empty() ? "." : dir);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

}  // namespace tunespace::util
