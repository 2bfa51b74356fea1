/// \file scanner.hpp
/// \brief The strict JSON-token cursor behind `parse_trace` and
///        `parse_metrics_json` (private to obs; no public header
///        includes it).
///
/// It skips no whitespace: each grammar spells out every byte its
/// renderer emits, line breaks included, so a document parses only in
/// the exact shape the renderer writes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/config.hpp"

namespace railcorr::obs {

class Scanner {
 public:
  explicit Scanner(std::string_view text) : rest_(text) {}

  bool eat(char c) {
    if (!rest_.starts_with(c)) return false;
    rest_.remove_prefix(1);
    return true;
  }

  bool eat_lit(std::string_view lit) {
    if (!rest_.starts_with(lit)) return false;
    rest_.remove_prefix(lit.size());
    return true;
  }

  /// Decimal u64: at least one digit, no sign, no overflow.
  bool parse_u64(std::uint64_t& out) {
    const auto value = util::take_decimal(rest_);
    if (!value.has_value()) return false;
    out = *value;
    return true;
  }

  /// Decimal i64 with an optional leading '-'.
  bool parse_i64(std::int64_t& out) {
    const bool negative = eat('-');
    std::uint64_t magnitude = 0;
    if (!parse_u64(magnitude)) return false;
    const std::uint64_t limit =
        static_cast<std::uint64_t>(INT64_MAX) + (negative ? 1 : 0);
    if (magnitude > limit) return false;
    out = negative ? static_cast<std::int64_t>(0 - magnitude)
                   : static_cast<std::int64_t>(magnitude);
    return true;
  }

  /// Quoted string; unescapes \" and \\ (the only escapes the renderers
  /// emit) and rejects control characters.
  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (!rest_.empty()) {
      const char c = rest_.front();
      rest_.remove_prefix(1);
      if (c == '"') return true;
      if (c == '\\') {
        if (!rest_.starts_with('"') && !rest_.starts_with('\\')) return false;
        out.push_back(rest_.front());
        rest_.remove_prefix(1);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      } else {
        out.push_back(c);
      }
    }
    return false;
  }

  [[nodiscard]] bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

}  // namespace railcorr::obs
