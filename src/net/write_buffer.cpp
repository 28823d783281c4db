#include "net/write_buffer.hpp"

#include <algorithm>
#include <stdexcept>

namespace cgctx::net {

WriteBuffer::WriteBuffer(const std::filesystem::path& path)
    : buf_(std::make_unique_for_overwrite<std::uint8_t[]>(kCapacity)) {
  // Unbuffered stream: every write goes from buf_ to the file in one call.
  out_.rdbuf()->pubsetbuf(nullptr, 0);
  out_.open(path, std::ios::binary | std::ios::trunc);
}

void WriteBuffer::append_past_end(std::span<const std::uint8_t> bytes) {
  const std::size_t top_up = kCapacity - size_;
  std::memcpy(buf_.get() + size_, bytes.data(), top_up);
  size_ = kCapacity;
  flush();
  const auto rest = bytes.subspan(top_up);
  if (rest.size() < kCapacity) {
    std::memcpy(buf_.get(), rest.data(), rest.size());
    size_ = rest.size();
  } else {
    write_out(rest);
  }
}

void WriteBuffer::flush() {
  const std::size_t size = size_;
  size_ = 0;
  if (size > 0) write_out({buf_.get(), size});
}

void WriteBuffer::close() {
  if (!out_.is_open()) return;
  flush();
  out_.close();
  if (!out_) throw std::runtime_error("WriteBuffer: close failed");
}

void WriteBuffer::write_out(std::span<const std::uint8_t> bytes) {
  for (std::size_t at = 0; at < bytes.size(); at += kWriteSize) {
    const std::size_t size = std::min(kWriteSize, bytes.size() - at);
    out_.write(reinterpret_cast<const char*>(bytes.data() + at),
               static_cast<std::streamsize>(size));
    if (!out_) {
      out_.close();
      throw std::runtime_error("WriteBuffer: write failed");
    }
  }
}

}  // namespace cgctx::net
