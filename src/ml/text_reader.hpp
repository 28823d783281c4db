// Cursor over a model's text form: the one parser every model
// deserializer (trees, forests, SVMs, scalers, selections and the core
// classifier wrappers) reads through.
//
// Tokens come back as views into the caller's text, so nothing is copied;
// numbers parse with std::from_chars, which yields the same correctly
// rounded doubles as strtod (and so as `istream >> double`). Every
// malformed field throws std::invalid_argument naming the model and the
// byte offset. Two rules keep hostile text from doing harm:
//   * a count that sizes an allocation may not exceed the bytes not yet
//     consumed (count(), require_room()), so no allocation is larger than
//     a constant times the input that is left;
//   * every double is finite (real()): no writer produces NaN or infinity,
//     and a NaN split threshold would alias CompiledForest's NaN leaf
//     encoding.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>

namespace cgctx::ml {

class TextReader {
 public:
  /// `model` prefixes every error message ("RandomForest: ...").
  TextReader(std::string_view text, const char* model) noexcept
      : text_(text), model_(model) {}

  /// Next whitespace-delimited token. Throws at the end of the text.
  std::string_view token() {
    skip_space();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    if (pos_ == begin) fail("truncated payload");
    return text_.substr(begin, pos_ - begin);
  }

  /// Consumes the next token; throws unless it is `tag`.
  void expect(std::string_view tag) {
    const std::string_view tok = token();
    if (tok != tag) fail_token(tok, tag);
  }

  /// Next token as a finite double.
  double real() {
    const std::string_view tok = token();
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (ec != std::errc{} || end != tok.data() + tok.size() ||
        !std::isfinite(value))
      fail_token(tok, "a finite number");
    return value;
  }

  /// Next token as an integer of type T (no sign on unsigned types, no
  /// leading '+', range-checked).
  template <typename T>
  T integer() {
    const std::string_view tok = token();
    T value{};
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (ec != std::errc{} || end != tok.data() + tok.size())
      fail_token(tok, "an integer");
    return value;
  }

  /// Next token as a count of items, each at least `bytes_per_item`
  /// bytes of the text still to come (see require_room()).
  std::size_t count(std::size_t bytes_per_item = 1) {
    const auto n = integer<std::size_t>();
    require_room(n, bytes_per_item);
    return n;
  }

  /// Throws unless `n` items of `bytes_per_item` bytes each fit in the
  /// unconsumed text. Call before sizing anything by `n`.
  void require_room(std::size_t n, std::size_t bytes_per_item = 1) const {
    if (bytes_per_item != 0 && n > remaining() / bytes_per_item)
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(remaining()) + " bytes left");
  }

  /// The rest of the current line without its '\n', which is consumed.
  /// Throws when no '\n' is left.
  std::string_view line() {
    const std::size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) fail("truncated payload");
    const std::string_view out = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return out;
  }

  /// The unconsumed text (a view; nothing is copied).
  [[nodiscard]] std::string_view rest() const { return text_.substr(pos_); }
  [[nodiscard]] std::size_t remaining() const { return text_.size() - pos_; }

  /// Throws unless only whitespace is left: a model's last field ends it.
  void finish() {
    skip_space();
    if (pos_ != text_.size()) fail("unexpected trailing text");
  }

  /// Throws std::invalid_argument("<model>: <what> at byte <offset>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }
  void skip_space() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }
  /// fail() naming what was expected and quoting the token read instead.
  [[noreturn]] void fail_token(std::string_view tok,
                               std::string_view expected) const;

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* model_;
};

}  // namespace cgctx::ml
