#include "ml/text_reader.hpp"

#include <stdexcept>

namespace cgctx::ml {

void TextReader::fail(const std::string& what) const {
  throw std::invalid_argument(std::string(model_) + ": " + what + " at byte " +
                              std::to_string(pos_));
}

void TextReader::fail_token(std::string_view tok,
                            std::string_view expected) const {
  constexpr std::size_t kQuoted = 32;  // a hostile token can be huge
  fail("expected " + std::string(expected) + ", got '" +
       std::string(tok.substr(0, kQuoted)) +
       (tok.size() > kQuoted ? "...'" : "'"));
}

}  // namespace cgctx::ml
