#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace railcorr::util {
namespace {

TEST(ParseSpec, KeysValuesCommentsAndBlankLines) {
  const auto entries = parse_spec(
      "# leading comment\n"
      "\n"
      "radio.hp_eirp_dbm = 64\n"
      "link.noise_model = fronthaul_aware   # trailing comment\n"
      "  timetable.trains_per_hour   =   8.5  \n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "radio.hp_eirp_dbm");
  EXPECT_EQ(entries[0].value, "64");
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(entries[1].key, "link.noise_model");
  EXPECT_EQ(entries[1].value, "fronthaul_aware");
  EXPECT_EQ(entries[2].key, "timetable.trains_per_hour");
  EXPECT_EQ(entries[2].value, "8.5");
  EXPECT_EQ(entries[2].line, 5);
}

TEST(ParseSpec, WindowsLineEndings) {
  const auto entries = parse_spec("a = 1\r\nb = 2\r\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].value, "2");
}

TEST(ParseSpec, BlanksAroundKeysAndValuesAreTrimmed) {
  const auto entries = parse_spec("\t a.b \t=\t 1 \t# note\r\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "a.b");
  EXPECT_EQ(entries[0].value, "1");
}

TEST(ParseSpec, RejectsMalformedLines) {
  EXPECT_THROW(parse_spec("no equals sign here"), ConfigError);
  EXPECT_THROW(parse_spec("= value without key"), ConfigError);
  EXPECT_THROW(parse_spec("key ="), ConfigError);
  try {
    parse_spec("ok = 1\nbroken line\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(ParseValues, TypedParsersAndErrors) {
  EXPECT_DOUBLE_EQ(parse_double({"k", "3.5e9", 1}), 3.5e9);
  EXPECT_DOUBLE_EQ(parse_double({"k", "-132", 1}), -132.0);
  EXPECT_EQ(parse_int({"k", "10", 1}), 10);
  EXPECT_EQ(parse_u64({"k", "1592639710", 1}), 1592639710ULL);
  EXPECT_TRUE(parse_bool({"k", "true", 1}));
  EXPECT_FALSE(parse_bool({"k", "false", 1}));

  EXPECT_THROW(parse_double({"k", "fast", 2}), ConfigError);
  EXPECT_THROW(parse_double({"k", "1.5x", 2}), ConfigError);
  EXPECT_THROW(parse_int({"k", "1.5", 2}), ConfigError);
  EXPECT_THROW(parse_bool({"k", "yes", 2}), ConfigError);
  try {
    parse_double({"radio.hp_eirp_dbm", "sixty-four", 7});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("radio.hp_eirp_dbm"), std::string::npos);
    EXPECT_NE(what.find("line 7"), std::string::npos);
  }
}

TEST(FormatValues, DoublesRoundTripExactly) {
  const double samples[] = {0.0,          1.0,       -132.0,  3.5e9,
                            200.0 / 3.6,  0.1,       5.84,    1e-12,
                            29.281234567, -0.5673339726684248};
  for (const double v : samples) {
    const std::string text = format_double(v);
    const double back = parse_double({"k", text, 0});
    EXPECT_EQ(back, v) << text;
  }
}

TEST(FormatValues, IntBoolU64) {
  EXPECT_EQ(format_int(-42), "-42");
  EXPECT_EQ(format_u64(0x5EEDC0DEULL), "1592639710");
  EXPECT_EQ(format_bool(true), "true");
  EXPECT_EQ(format_bool(false), "false");
}

TEST(TextCodecs, Fnv1a64KnownVectorsAndSeededChaining) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("line two\n", fnv1a64("line one\n")),
            fnv1a64("line one\nline two\n"));
}

TEST(TextCodecs, Fnv1a64EachMatchesOneChainPerSeed) {
  // Lengths around the four-chain blocking, distinct seeds per chain.
  for (std::size_t count = 0; count <= 9; ++count) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t k = 0; k < count; ++k) {
      seeds.push_back(fnv1a64(std::to_string(k)));
    }
    std::vector<std::uint64_t> expected;
    for (const std::uint64_t seed : seeds) {
      expected.push_back(fnv1a64("tail\xff bytes\n", seed));
    }
    fnv1a64_each("tail\xff bytes\n", seeds);
    EXPECT_EQ(seeds, expected) << count;
  }
}

TEST(TextCodecs, Hex16RoundTripsAtTheExtremes) {
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(UINT64_MAX), "ffffffffffffffff");
  EXPECT_EQ(parse_hex16(hex16(0)), 0u);
  EXPECT_EQ(parse_hex16(hex16(UINT64_MAX)), UINT64_MAX);
  EXPECT_EQ(parse_hex16(hex16(0x0123456789abcdefULL)), 0x0123456789abcdefULL);
}

TEST(TextCodecs, ParseHex16IsStrict) {
  EXPECT_FALSE(parse_hex16("0123456789ABCDEF").has_value());
  EXPECT_FALSE(parse_hex16("0123456789abcde").has_value());
  EXPECT_FALSE(parse_hex16("0123456789abcdef0").has_value());
  EXPECT_FALSE(parse_hex16("0123456789abcdeg").has_value());
  EXPECT_FALSE(parse_hex16("").has_value());
}

TEST(TextCodecs, DecimalRejectsOverflowAndEmptyTokens) {
  EXPECT_EQ(parse_decimal("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_decimal("18446744073709551616").has_value());
  EXPECT_FALSE(parse_decimal("18446744073709551617").has_value());
  EXPECT_FALSE(parse_decimal("").has_value());
  EXPECT_FALSE(parse_decimal("-1").has_value());
  EXPECT_FALSE(parse_decimal("+1").has_value());
  EXPECT_FALSE(parse_decimal(" 1").has_value());
  EXPECT_FALSE(parse_decimal("1x").has_value());
  EXPECT_EQ(parse_decimal("007"), 7u);
}

TEST(TextCodecs, TakeDecimalConsumesOnlyTheLeadingDigitRun) {
  std::string_view rest = "42 done=1";
  EXPECT_EQ(take_decimal(rest), 42u);
  EXPECT_EQ(rest, " done=1");
  EXPECT_FALSE(take_decimal(rest).has_value());
  EXPECT_EQ(rest, " done=1");
  rest = "18446744073709551617/2";
  EXPECT_FALSE(take_decimal(rest).has_value());
  EXPECT_EQ(rest, "18446744073709551617/2");
}

TEST(TextScanning, TakeLineConsumesOneLineAndItsNewline) {
  std::string_view rest = "a\r\n\nb";
  EXPECT_EQ(take_line(rest), "a\r");  // '\r' is the caller's to strip.
  EXPECT_EQ(rest, "\nb");
  EXPECT_EQ(take_line(rest), "");
  EXPECT_EQ(take_line(rest), "b");  // Unterminated final line.
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(take_line(rest), "");
  EXPECT_TRUE(rest.empty());

  rest = "x\n";
  EXPECT_EQ(take_line(rest), "x");
  EXPECT_TRUE(rest.empty());
}

TEST(TextScanning, SplitListTrimsBlanksAndKeepsEmptyItems) {
  using Items = std::vector<std::string_view>;
  EXPECT_EQ(split_list("2", ","), Items{"2"});
  EXPECT_EQ(split_list("2, 2", ","), (Items{"2", "2"}));
  EXPECT_EQ(split_list(" a ,\tb\t, c", ","), (Items{"a", "b", "c"}));
  EXPECT_EQ(split_list("a b, c", ","), (Items{"a b", "c"}));
  // Empty items survive so each caller can reject them by name.
  EXPECT_EQ(split_list("", ","), Items{""});
  EXPECT_EQ(split_list(" \t", ","), Items{""});
  EXPECT_EQ(split_list("2,", ","), (Items{"2", ""}));
  EXPECT_EQ(split_list(",2", ","), (Items{"", "2"}));
  EXPECT_EQ(split_list("2,,2", ","), (Items{"2", "", "2"}));
  // Every character of `separators` splits.
  EXPECT_EQ(split_list("a;b, c", ",;"), (Items{"a", "b", "c"}));
  EXPECT_EQ(split_list("a;b, c", ","), (Items{"a;b", "c"}));
}

}  // namespace
}  // namespace railcorr::util
