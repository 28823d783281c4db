// Sequential binary-file output through one bounded buffer.
//
// The write-side twin of ReadBuffer: both capture writers (pcap, pcapng)
// append their records into one 64 KiB buffer, which goes to the file
// through an unbuffered stream. A buffered std::ofstream would not do:
// libstdc++'s filebuf hands every write of 1 KiB or more straight to the
// kernel, so each ≈1.2 KB frame of a capture would cost its own system
// call. A span larger than the buffer is written straight out after the
// buffered bytes.
//
// Every write to the file is at most one 4 KiB page (kWriteSize). The
// kernel sizes the page-cache folios of a buffered write by the length of
// the write: on file systems with large folios (ext4 on recent kernels) a
// 64 KiB write is cached in up to 64 KiB folios, which read back faster
// than 4 KiB pages, but only when the host has free blocks of that order
// at write time. A capture read back from the page cache then ran at a
// speed that moved with the host's memory fragmentation from one run to
// the next; page-sized writes cache it in base pages every time, as a
// writer that made one system call per frame did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>

namespace cgctx::net {

class WriteBuffer {
 public:
  static constexpr std::size_t kCapacity = 64 * 1024;
  /// The most one write to the file carries: one page.
  static constexpr std::size_t kWriteSize = 4 * 1024;

  /// Opens (truncates) `path` for writing; is_open() reports whether that
  /// worked.
  explicit WriteBuffer(const std::filesystem::path& path);

  [[nodiscard]] bool is_open() const { return out_.is_open(); }

  /// Appends `bytes`, writing the buffer out each time it fills. Throws
  /// std::runtime_error when a write fails; the file is closed then.
  void append(std::span<const std::uint8_t> bytes) {
    if (bytes.size() <= kCapacity - size_) {
      std::memcpy(buf_.get() + size_, bytes.data(), bytes.size());
      size_ += bytes.size();
    } else {
      append_past_end(bytes);
    }
  }

  /// Writes the buffered bytes out. Throws std::runtime_error on failure,
  /// after closing the file.
  void flush();

  /// Flushes and closes the file; a no-op once closed. Throws
  /// std::runtime_error when the buffered bytes cannot be written.
  void close();

 private:
  /// append() for a span that does not fit: tops the buffer up, writes it
  /// out, then buffers the rest, or writes it straight out when it would
  /// fill the buffer again.
  void append_past_end(std::span<const std::uint8_t> bytes);

  /// Writes `bytes` to the file, kWriteSize at a time; on failure closes
  /// it and throws.
  void write_out(std::span<const std::uint8_t> bytes);

  std::ofstream out_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t size_ = 0;  ///< buffered bytes not yet written
};

}  // namespace cgctx::net
