/// Seeded fuzz for the user-facing text parsers: `util::parse_spec`,
/// `scenario_from_spec` / `apply_override`, `SweepPlan::from_spec`, and
/// `scenario_at` on every plan that parses. Mirrors the cache-segment
/// fuzz: the registry specs and a few plan files are truncated, mutated,
/// spliced into each other and mixed with garbage. Every input must
/// either parse or throw util::ConfigError whose message names a key
/// ('...') or a line — never another exception, never a crash (CI runs
/// this under ASan/UBSan).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/scenario_registry.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/sweep.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr::core {
namespace {

/// Spec documents: each registry variant's overrides and its full
/// to_spec rendering.
std::vector<std::string> spec_corpus() {
  std::vector<std::string> docs;
  for (const auto& variant : scenario_registry()) {
    docs.push_back(variant.overrides);
    docs.push_back(to_spec(make_scenario(variant.name)));
  }
  return docs;
}

/// Plan documents in the shapes users write: comments, CRLF, `set`
/// lines, ';' lists travelling as one axis value, several axes.
std::vector<std::string> plan_corpus() {
  return {
      "base = paper\n"
      "set isd_search.sample_step_m = 20\n"
      "axis radio.lp_eirp_dbm = 37, 40, 43\n"
      "axis timetable.trains_per_hour = 8, 16\n",
      "# fleet plan\r\n"
      "base = dense-timetable\r\n"
      "axis radio.hp_eirp_dbm = 60, 61   # two powers\r\n"
      "axis timetable.night_hours = 4, 5\r\n",
      "set corridor.segments = 2\n"
      "axis sizing.locations = madrid;lyon, vienna;berlin\n"
      "axis sizing.ladder = 540:720;540:1440, 600:1440;600:2160\n",
      "axis isd_search.snr_threshold_db = 28.5, 29.28, 30\n"
      "axis link.noise_model = fronthaul_aware, literal_eq2\n"
      "axis energy.hp_sleep_when_idle = true, false\n",
  };
}

/// Either `parse` returns, or it throws ConfigError naming a key or a
/// line. Any other outcome fails the test with the offending input.
void expect_parses_or_names(const std::string& input,
                            const std::function<void()>& parse) {
  try {
    parse();
  } catch (const util::ConfigError& error) {
    const std::string what = error.what();
    const bool names_line = what.find("line ") != std::string::npos;
    const bool names_key = what.find('\'') != std::string::npos;
    EXPECT_TRUE(names_line || names_key)
        << "message names no key or line: " << what << "\ninput: " << input;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "non-ConfigError " << error.what()
                  << "\ninput: " << input;
  }
}

void check_spec(const std::string& text) {
  expect_parses_or_names(text, [&] { (void)util::parse_spec(text); });
  expect_parses_or_names(text, [&] { (void)scenario_from_spec(text); });
}

void check_plan(const std::string& text) {
  expect_parses_or_names(text, [&] {
    const auto plan = corridor::SweepPlan::from_spec(text);
    const std::size_t size = plan.size();
    ASSERT_GT(size, 0u) << "input: " << text;
    for (const std::size_t index : {std::size_t{0}, size / 2, size - 1}) {
      (void)scenario_at(plan, index);
    }
  });
}

void check_both(const std::string& text) {
  check_spec(text);
  check_plan(text);
}

/// Bytes the grammars give meaning to, plus a few they do not.
char interesting_byte(SplitMix64& rng) {
  static constexpr std::string_view kBytes = "=#,; \t\r\n.-+e0123456789:_";
  if (rng.next() % 4 == 0) return static_cast<char>(rng.next() % 256);
  return kBytes[rng.next() % kBytes.size()];
}

/// Lines of `text`, newline kept.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t before = rest.size();
    const std::string_view line = util::take_line(rest);
    lines.emplace_back(line.data(), before - rest.size());
  }
  return lines;
}

TEST(SpecFuzz, CorpusParses) {
  for (const auto& doc : spec_corpus()) EXPECT_NO_THROW(scenario_from_spec(doc));
  for (const auto& doc : plan_corpus()) {
    const auto plan = corridor::SweepPlan::from_spec(doc);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_NO_THROW(scenario_at(plan, i)) << doc;
    }
  }
}

TEST(SpecFuzz, TruncatedDocumentsParseOrNameTheirError) {
  std::vector<std::string> docs = spec_corpus();
  for (const auto& plan : plan_corpus()) docs.push_back(plan);
  for (const auto& doc : docs) {
    for (std::size_t len = 0; len <= doc.size(); ++len) {
      check_both(doc.substr(0, len));
    }
  }
}

TEST(SpecFuzz, MutatedDocumentsParseOrNameTheirError) {
  SplitMix64 rng(0x5eedc0f19001ULL);
  std::vector<std::string> docs = spec_corpus();
  for (const auto& plan : plan_corpus()) docs.push_back(plan);
  for (int round = 0; round < 3000; ++round) {
    std::string doc = docs[rng.next() % docs.size()];
    const std::size_t edits = 1 + rng.next() % 3;
    for (std::size_t e = 0; e < edits && !doc.empty(); ++e) {
      const std::size_t pos = rng.next() % doc.size();
      switch (rng.next() % 3) {
        case 0:
          doc[pos] = interesting_byte(rng);
          break;
        case 1:
          doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(pos),
                     interesting_byte(rng));
          break;
        default:
          doc.erase(pos, 1);
          break;
      }
    }
    check_both(doc);
  }
}

TEST(SpecFuzz, SplicedDocumentsParseOrNameTheirError) {
  // Lines moved between specs and plans: duplicated axes and `set`
  // lines, spec keys without `set`, axes of enum and list keys, many
  // axes at once (grids past 2^64 cells among them).
  SplitMix64 rng(0x5eedc0f19002ULL);
  std::vector<std::string> pool;
  for (const auto& doc : spec_corpus()) {
    for (auto& line : lines_of(doc)) pool.push_back(std::move(line));
  }
  for (const auto& doc : plan_corpus()) {
    for (auto& line : lines_of(doc)) pool.push_back(std::move(line));
  }
  // Axis lines of 8 and 9 values, two per field (index 2k and 2k+1).
  std::vector<std::string> axes;
  for (const auto& field : scenario_fields()) {
    const std::string key(field.key);
    pool.push_back("set " + key + " = 1\n");
    axes.push_back("axis " + key + " = 1, 2, 3, 4, 5, 6, 7, 8\n");
    axes.push_back("axis " + key + " = 1, 2, 3, 4, 5, 6, 7, 8, 9\n");
  }
  const std::size_t fields = axes.size() / 2;
  for (int round = 0; round < 1500; ++round) {
    std::string doc;
    const std::size_t lines = rng.next() % 40;
    if (round % 3 == 0) {
      // Distinct axes only, so the plan survives the duplicate check.
      const std::size_t first = rng.next() % fields;
      for (std::size_t i = 0; i < lines; ++i) {
        doc += axes[2 * ((first + i) % fields) + rng.next() % 2];
      }
    } else {
      for (std::size_t i = 0; i < lines; ++i) {
        const auto& from = rng.next() % 8 == 0 ? axes : pool;
        doc += from[rng.next() % from.size()];
      }
    }
    check_both(doc);
  }
}

TEST(SpecFuzz, GarbageParsesOrNamesItsError) {
  SplitMix64 rng(0x5eedc0f19003ULL);
  const std::vector<std::string> words = {
      "base", "set", "axis", "=", "#", ",", ";", " ", "\t", "\r", "\n",
      "paper", "radio.lp_eirp_dbm", "corridor.segments", "sizing.ladder",
      "sizing.locations", "link.noise_model", "1", "-1", "0", "1e309",
      "nan", "inf", "-inf", "18446744073709551616", "2147483648", "1:2",
      ":", "true", "madrid", "\xff", std::string(1, '\0')};
  for (int round = 0; round < 3000; ++round) {
    std::string doc;
    const std::size_t tokens = rng.next() % 24;
    for (std::size_t i = 0; i < tokens; ++i) {
      if (rng.next() % 8 == 0) {
        doc += static_cast<char>(rng.next() % 256);
      } else {
        doc += words[rng.next() % words.size()];
      }
    }
    check_both(doc);
  }
}

TEST(SpecFuzz, OverridesOfEveryKeyParseOrNameTheirError) {
  // `--set key=value` reaches apply_override without parse_spec's
  // trimming or its non-empty check, and with no line number.
  SplitMix64 rng(0x5eedc0f19004ULL);
  const std::vector<std::string> values = {
      "", " ", "1", "-1", "0", "0.5", "1e309", "-1e309", "nan", "inf",
      "18446744073709551616", "2147483648", "true", "false", "1:2",
      "540:720;600:1440", ":", ";", ",", "madrid", "madrid,,lyon",
      "fronthaul_aware", "\xff"};
  const auto& fields = scenario_fields();
  for (const auto& field : fields) {
    for (const auto& value : values) {
      const util::SpecEntry entry{std::string(field.key), value, 0};
      expect_parses_or_names(entry.key + " = " + value, [&] {
        Scenario scenario = Scenario::paper();
        apply_override(scenario, entry);
      });
    }
  }
  for (int round = 0; round < 2000; ++round) {
    std::string value;
    const std::size_t parts = 1 + rng.next() % 3;
    for (std::size_t i = 0; i < parts; ++i) {
      value += values[rng.next() % values.size()];
    }
    const util::SpecEntry entry{
        std::string(fields[rng.next() % fields.size()].key), value, 0};
    expect_parses_or_names(entry.key + " = " + value, [&] {
      Scenario scenario = Scenario::paper();
      apply_override(scenario, entry);
    });
  }
}

}  // namespace
}  // namespace railcorr::core
