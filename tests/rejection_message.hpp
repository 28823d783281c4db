// Shared by the deserializer tests: what a loader rejected and why.
#pragma once

#include <stdexcept>
#include <string>

namespace cgctx::testing_support {

/// The std::invalid_argument message `load` throws, or "" when it
/// returns. Any other exception escapes and fails the calling test.
template <typename Load>
std::string rejection_message(Load&& load) {
  try {
    load();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace cgctx::testing_support
