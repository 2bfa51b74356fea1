/// \file config.hpp
/// \brief The ScenarioSpec text format: a minimal, dependency-free
///        `key.path = value` configuration syntax plus deterministic
///        value formatting.
///
/// Grammar (one entry per line):
///
///     # comment — '#' starts a comment anywhere on a line
///     link.carrier.center_frequency_hz = 3.5e9
///     energy.hp_sleep_when_idle        = true
///
/// Keys are dot-separated paths; values are scalars (double, int,
/// bool, uint64, or a bare enum word). Blank lines are skipped. The
/// parser is purely lexical: it yields ordered (key, value, line)
/// entries and leaves typing to the consumer (core/scenario_spec.hpp
/// binds entries to `core::Scenario` fields), so the same syntax also
/// drives sweep-plan files (corridor/sweep.hpp).
///
/// Formatting is the other half of the determinism contract: every
/// double is rendered by `format_double` (std::to_chars, shortest
/// form that round-trips exactly), so serialize -> parse -> serialize
/// is byte-stable and shard CSVs produced on different processes
/// compare byte-for-byte.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace railcorr::util {

/// Error raised for any syntax, unknown-key, or malformed-value
/// problem in a spec document. The message carries the offending key
/// and 1-based line number when known.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed `key = value` entry.
struct SpecEntry {
  std::string key;
  std::string value;
  /// 1-based source line; 0 for entries built programmatically.
  int line = 0;
};

/// Parse a spec document into ordered entries. Throws ConfigError on
/// lines that are neither blank, comment, nor `key = value`. Lines may
/// end in `\r\n`; spaces and tabs around keys and values are trimmed.
std::vector<SpecEntry> parse_spec(std::string_view text);

/// \name Line and list scanning
/// The one line splitter and the one list splitter of every text
/// format (spec and plan files, shard CSVs, manifests, cache segments,
/// traces, CLI lists). Each format keeps its own grammar: whether it
/// accepts `\r\n` and how it rejects an empty item is the caller's
/// rule, never a mode of these helpers.
///@{

/// The text of `rest` before its first '\n' (all of `rest` when it has
/// none), consumed together with that newline. A '\r' before the
/// newline stays in the line.
std::string_view take_line(std::string_view& rest);

/// The items of `text` between the characters of `separators`, each
/// trimmed of spaces and tabs. Empty items are kept (an empty `text` is
/// one empty item) so that each caller rejects them by name.
std::vector<std::string_view> split_list(std::string_view text,
                                         std::string_view separators);
///@}

/// \name Typed value parsing
/// Each throws ConfigError naming the entry's key and line when the
/// value does not parse (or does not consume the whole token).
///@{
double parse_double(const SpecEntry& entry);
int parse_int(const SpecEntry& entry);
std::uint64_t parse_u64(const SpecEntry& entry);
/// Accepts `true` / `false` only.
bool parse_bool(const SpecEntry& entry);
///@}

/// \name Deterministic value formatting
/// The shortest decimal form that parses back to the identical bit
/// pattern (std::to_chars); the same function everywhere is what makes
/// spec and CSV output byte-stable across processes and shards.
///@{
std::string format_double(double value);
std::string format_int(int value);
std::string format_u64(std::uint64_t value);
std::string format_bool(bool value);
///@}

/// \name Text codecs
/// The one home of the hash and number codecs shared by every on-disk
/// and wire format: shard banners, manifests, cache segments, integrity
/// trailers, the progress protocol, trace and metrics documents. The
/// decoders are strict: a number too large for 64 bits is rejected,
/// never wrapped.
///@{
inline constexpr std::uint64_t kFnv1a64Basis = 0xCBF29CE484222325ULL;

/// FNV-1a 64 over `data`, continuing from `seed`, so
/// fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = kFnv1a64Basis);

/// `seed = fnv1a64(data, seed)` for every element of `seeds`. One FNV
/// chain waits on its multiply for every byte; this walks four chains
/// through `data` together so their multiplies overlap.
void fnv1a64_each(std::string_view data, std::span<std::uint64_t> seeds);

/// Fixed-width lowercase hex: always 16 digits.
std::string hex16(std::uint64_t value);

/// The inverse of hex16: exactly 16 digits from [0-9a-f].
std::optional<std::uint64_t> parse_hex16(std::string_view text);

/// An unsigned decimal spanning all of `text`: one or more digits, no
/// sign, no whitespace.
std::optional<std::uint64_t> parse_decimal(std::string_view text);

/// The unsigned decimal at the front of `rest`, consumed on success;
/// std::nullopt (nothing consumed) when `rest` does not start with a
/// digit or the digit run overflows.
std::optional<std::uint64_t> take_decimal(std::string_view& rest);
///@}

}  // namespace railcorr::util
