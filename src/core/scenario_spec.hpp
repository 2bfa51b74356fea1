/// \file scenario_spec.hpp
/// \brief Declarative serialization of core::Scenario: every tunable of
///        the study is addressable by a dot-separated key path, so whole
///        scenarios round-trip through the ScenarioSpec text format
///        (util/config.hpp) and sweeps override fields as data, not code.
///
/// The binding is a field registry: each entry couples a key path
/// (`radio.lp_eirp_dbm`, `timetable.trains_per_hour`, ...) with a typed
/// getter/setter over Scenario. `to_spec` emits every field in registry
/// order with round-trip-exact formatting; `apply_spec` / `apply_override`
/// set any subset. Parsing starts from the paper defaults, so an empty
/// spec is exactly `Scenario::paper()` and a spec file only needs the
/// deltas.
///
/// Each entry is also tagged with the heavy cell stages that read it
/// (`Stage`); `stage_spec` renders just those fields, which is the key
/// the sweep runner shares stage results under.
///
/// Coherence rule: the paper's timetable appears twice in the aggregate
/// (`Scenario::timetable` and `Scenario::energy.timetable`); the spec
/// layer treats it as one logical object — `timetable.*` setters write
/// both copies and getters read `Scenario::timetable`. A Scenario whose
/// two copies disagree (possible programmatically) therefore does not
/// round-trip; specs cannot express that state.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "util/config.hpp"

namespace railcorr::core {

/// The heavy model stages of a sweep cell, as bits of
/// ScenarioFieldInfo::stages. The cheap rest of a row (energy, duty)
/// reads the whole scenario and is recomputed per cell.
enum class Stage : unsigned {
  /// The max-ISD search over N = 1..max_repeaters.
  kIsdSearch = 1u << 0,
  /// The whole-corridor worst case over corridor.segments segments at
  /// the searched deployment (which the caller adds to the stage key).
  kMultiSegment = 1u << 1,
  /// The off-grid PV sizing job (solar::SizingJob).
  kSizing = 1u << 2,
};

/// Public description of one registered scenario field (for docs, CLI
/// `show`, and error messages).
struct ScenarioFieldInfo {
  std::string_view key;
  /// Bit set of the Stage values whose result depends on this field.
  unsigned stages = 0;
  /// Short human description including the paper default.
  std::string_view doc;

  [[nodiscard]] bool read_by(Stage stage) const {
    return (stages & static_cast<unsigned>(stage)) != 0;
  }
};

/// All registered key paths, in emission order.
const std::vector<ScenarioFieldInfo>& scenario_fields();

/// Render every registered field as `key = value` lines (registry
/// order, deterministic formatting). parse(to_spec(s)) == s for any
/// spec-reachable Scenario.
std::string to_spec(const Scenario& scenario);

/// The to_spec lines of exactly the fields `stage` reads, in registry
/// order. Two scenarios with equal stage specs get the same result from
/// that stage (tests/core/scenario_spec_test.cpp checks every untagged
/// key), so the text is a collision-free memo key for it.
std::string stage_spec(const Scenario& scenario, Stage stage);

/// Apply one override. Throws util::ConfigError on an unknown key or a
/// malformed/invalid value (the message names key and line).
void apply_override(Scenario& scenario, const util::SpecEntry& entry);

/// Apply a whole document of overrides in order.
void apply_spec(Scenario& scenario, std::string_view spec_text);

/// Paper defaults + the document's overrides.
Scenario scenario_from_spec(std::string_view spec_text);

}  // namespace railcorr::core
