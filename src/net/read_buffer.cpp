#include "net/read_buffer.hpp"

#include <cstring>

namespace cgctx::net {

ReadBuffer::ReadBuffer(const std::filesystem::path& path) : buf_(kCapacity) {
  // Unbuffered stream: every read lands directly in buf_, in large chunks.
  in_.rdbuf()->pubsetbuf(nullptr, 0);
  in_.open(path, std::ios::binary);
}

void ReadBuffer::refill(std::size_t n) {
  const std::size_t kept = end_ - begin_;
  std::memmove(buf_.data(), buf_.data() + begin_, kept);
  begin_ = 0;
  end_ = kept;
  if (n > buf_.size()) buf_.resize(n);
  while (end_ < n && in_) {
    in_.read(reinterpret_cast<char*>(buf_.data() + end_),
             static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
  }
}

std::uint64_t ReadBuffer::skip(std::uint64_t n) {
  std::uint64_t skipped = 0;
  while (skipped < n) {
    const auto chunk = take(static_cast<std::size_t>(
        std::min<std::uint64_t>(n - skipped, kCapacity)));
    if (chunk.empty()) break;
    skipped += chunk.size();
  }
  return skipped;
}

}  // namespace cgctx::net
