#include "util/config.hpp"

#include <charconv>
#include <system_error>

namespace railcorr::util {

namespace {

/// Lowercase only: the encoder's table is also the decoder's alphabet.
constexpr std::string_view kHexDigits = "0123456789abcdef";

/// `s` without leading and trailing spaces and tabs.
std::string_view trim(std::string_view s) {
  const std::size_t first = s.find_first_not_of(" \t");
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(" \t") - first + 1);
}

[[noreturn]] void raise_value_error(const SpecEntry& entry,
                                    const char* expected) {
  std::string msg = "malformed value for '" + entry.key + "'";
  if (entry.line > 0) msg += " (line " + std::to_string(entry.line) + ")";
  msg += ": expected " + std::string(expected) + ", got '" + entry.value + "'";
  throw ConfigError(msg);
}

/// from_chars wrapper requiring the whole token to be consumed.
template <typename T>
bool parse_whole(std::string_view token, T& out) {
  const char* const begin = token.data();
  const char* const end = begin + token.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

}  // namespace

std::string_view take_line(std::string_view& rest) {
  const std::size_t eol = rest.find('\n');
  const std::string_view line = rest.substr(0, eol);
  rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
  return line;
}

std::vector<std::string_view> split_list(std::string_view text,
                                         std::string_view separators) {
  std::vector<std::string_view> items;
  for (;;) {
    const std::size_t end = text.find_first_of(separators);
    items.push_back(trim(text.substr(0, end)));
    if (end == std::string_view::npos) return items;
    text.remove_prefix(end + 1);
  }
}

std::vector<SpecEntry> parse_spec(std::string_view text) {
  std::vector<SpecEntry> entries;
  int line_no = 0;
  while (!text.empty()) {
    ++line_no;
    std::string_view line = take_line(text);
    if (line.ends_with('\r')) line.remove_suffix(1);

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("spec line " + std::to_string(line_no) +
                        ": expected 'key = value', got '" + std::string(line) +
                        "'");
    }
    SpecEntry entry;
    entry.key = std::string(trim(line.substr(0, eq)));
    entry.value = std::string(trim(line.substr(eq + 1)));
    entry.line = line_no;
    if (entry.key.empty()) {
      throw ConfigError("spec line " + std::to_string(line_no) +
                        ": empty key before '='");
    }
    if (entry.value.empty()) {
      throw ConfigError("spec line " + std::to_string(line_no) +
                        ": empty value for '" + entry.key + "'");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

double parse_double(const SpecEntry& entry) {
  double v = 0.0;
  if (!parse_whole(std::string_view(entry.value), v)) {
    raise_value_error(entry, "a number");
  }
  return v;
}

int parse_int(const SpecEntry& entry) {
  int v = 0;
  if (!parse_whole(std::string_view(entry.value), v)) {
    raise_value_error(entry, "an integer");
  }
  return v;
}

std::uint64_t parse_u64(const SpecEntry& entry) {
  std::uint64_t v = 0;
  if (!parse_whole(std::string_view(entry.value), v)) {
    raise_value_error(entry, "an unsigned integer");
  }
  return v;
}

bool parse_bool(const SpecEntry& entry) {
  if (entry.value == "true") return true;
  if (entry.value == "false") return false;
  raise_value_error(entry, "'true' or 'false'");
}

std::string format_double(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string format_int(int value) {
  return std::to_string(value);
}

std::string format_u64(std::uint64_t value) {
  return std::to_string(value);
}

std::string format_bool(bool value) {
  return value ? "true" : "false";
}

namespace {
constexpr std::uint64_t kFnv1a64Prime = 0x100000001B3ULL;
}  // namespace

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  for (const char c : data) {
    seed ^= static_cast<unsigned char>(c);
    seed *= kFnv1a64Prime;
  }
  return seed;
}

void fnv1a64_each(std::string_view data, std::span<std::uint64_t> seeds) {
  std::size_t k = 0;
  for (; k + 4 <= seeds.size(); k += 4) {
    std::uint64_t a = seeds[k], b = seeds[k + 1], c = seeds[k + 2],
                  d = seeds[k + 3];
    for (const char ch : data) {
      const auto byte = static_cast<unsigned char>(ch);
      a = (a ^ byte) * kFnv1a64Prime;
      b = (b ^ byte) * kFnv1a64Prime;
      c = (c ^ byte) * kFnv1a64Prime;
      d = (d ^ byte) * kFnv1a64Prime;
    }
    seeds[k] = a;
    seeds[k + 1] = b;
    seeds[k + 2] = c;
    seeds[k + 3] = d;
  }
  for (; k < seeds.size(); ++k) seeds[k] = fnv1a64(data, seeds[k]);
}

std::string hex16(std::uint64_t value) {
  std::string out(16, '0');
  for (auto it = out.rbegin(); it != out.rend(); ++it, value >>= 4) {
    *it = kHexDigits[value & 0xF];
  }
  return out;
}

std::optional<std::uint64_t> parse_hex16(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    std::uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    value = value << 4 | nibble;
  }
  return value;
}

std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  const auto value = take_decimal(text);
  return text.empty() ? value : std::nullopt;
}

std::optional<std::uint64_t> take_decimal(std::string_view& rest) {
  // from_chars rejects signs for unsigned types and reports a digit run
  // past UINT64_MAX as out of range instead of wrapping it.
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), value);
  if (ec != std::errc{}) return std::nullopt;
  rest.remove_prefix(static_cast<std::size_t>(ptr - rest.data()));
  return value;
}

}  // namespace railcorr::util
