#include "corridor/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "util/contracts.hpp"
#include "util/durable_io.hpp"
#include "util/vmath.hpp"

namespace railcorr::corridor {

using util::ConfigError;
using util::SpecEntry;

SweepPlan SweepPlan::from_spec(std::string_view text) {
  SweepPlan plan;
  bool base_seen = false;
  // The key path after `set ` / `axis `. parse_spec trimmed the key's
  // end, so a non-blank character always follows the prefix.
  const auto key_path = [](const SpecEntry& entry, std::size_t prefix) {
    return entry.key.substr(entry.key.find_first_not_of(' ', prefix));
  };
  for (const auto& entry : util::parse_spec(text)) {
    if (entry.key == "base") {
      if (base_seen) {
        throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                          ": duplicate 'base'");
      }
      plan.base = entry.value;
      base_seen = true;
    } else if (entry.key.starts_with("set ")) {
      plan.fixed.push_back(
          SpecEntry{key_path(entry, 4), entry.value, entry.line});
    } else if (entry.key.starts_with("axis ")) {
      SweepAxis axis{key_path(entry, 5), {}};
      for (const auto& existing : plan.axes) {
        if (existing.key == axis.key) {
          throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                            ": duplicate axis '" + axis.key + "'");
        }
      }
      for (const std::string_view value : util::split_list(entry.value, ",")) {
        if (value.empty()) {
          throw ConfigError("sweep axis '" + entry.key + "' (line " +
                            std::to_string(entry.line) +
                            "): empty value in '" + entry.value + "'");
        }
        axis.values.emplace_back(value);
      }
      // size() must not wrap, or cell indices would decompose onto the
      // wrong axis values.
      if (plan.size() > SIZE_MAX / axis.values.size()) {
        throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                          ": axis '" + axis.key + "' makes the grid larger "
                          "than " + std::to_string(SIZE_MAX) + " cells");
      }
      plan.axes.push_back(std::move(axis));
    } else {
      throw ConfigError("sweep plan line " + std::to_string(entry.line) +
                        ": expected 'base', 'set <key>', or 'axis <key>', "
                        "got '" +
                        entry.key + "'");
    }
  }
  return plan;
}

std::size_t SweepPlan::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::string> SweepPlan::axis_values_at(std::size_t index) const {
  RAILCORR_EXPECTS(index < size());
  // Row-major decomposition: the last axis varies fastest.
  std::size_t remainder = index;
  std::vector<std::size_t> digits(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t extent = axes[a].values.size();
    digits[a] = remainder % extent;
    remainder /= extent;
  }
  std::vector<std::string> values;
  values.reserve(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    values.push_back(axes[a].values[digits[a]]);
  }
  return values;
}

std::vector<SpecEntry> SweepPlan::overrides_at(std::size_t index) const {
  std::vector<SpecEntry> overrides = fixed;
  const auto values = axis_values_at(index);
  for (std::size_t a = 0; a < axes.size(); ++a) {
    overrides.push_back(SpecEntry{axes[a].key, values[a], 0});
  }
  return overrides;
}

std::string SweepPlan::canonical_spec() const {
  std::string out = "base = " + base + "\n";
  for (const auto& entry : fixed) {
    out += "set " + entry.key + " = " + entry.value + "\n";
  }
  for (const auto& axis : axes) {
    out += "axis " + axis.key + " = ";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ", ";
      out += axis.values[i];
    }
    out += "\n";
  }
  return out;
}

std::uint64_t SweepPlan::fingerprint() const {
  return util::fnv1a64(canonical_spec());
}

ShardSpec ShardSpec::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  auto parse_part = [&](std::string_view part, const char* what) {
    if (part.empty()) {
      throw ConfigError("shard spec '" + std::string(text) + "': missing " +
                        what);
    }
    const auto value = util::parse_decimal(part);
    if (!value.has_value()) {
      throw ConfigError("shard spec '" + std::string(text) +
                        "': expected '<i>/<N>' with decimal numbers");
    }
    return *value;
  };
  if (slash == std::string_view::npos) {
    throw ConfigError("shard spec '" + std::string(text) +
                      "': expected '<i>/<N>'");
  }
  ShardSpec spec;
  spec.index = parse_part(text.substr(0, slash), "shard index");
  spec.count = parse_part(text.substr(slash + 1), "shard count");
  if (spec.count == 0 || spec.index >= spec.count) {
    throw ConfigError("shard spec '" + std::string(text) +
                      "': need 0 <= i < N");
  }
  return spec;
}

std::size_t ShardSpec::cell_count(std::size_t grid_size) const {
  return index < grid_size ? (grid_size - index - 1) / count + 1 : 0;
}

std::vector<std::size_t> ShardSpec::indices(std::size_t grid_size) const {
  std::vector<std::size_t> out;
  out.reserve(cell_count(grid_size));
  for (std::size_t i = index; i < grid_size; i += count) out.push_back(i);
  return out;
}

std::optional<std::size_t> banner_grid(std::string_view banner) {
  const std::size_t at = banner.find(" grid=");
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view rest = banner.substr(at + 6);
  return util::take_decimal(rest);
}

std::string shard_banner(const SweepPlan& plan) {
  std::string banner = "# railcorr-sweep-v1 fingerprint=" +
                       util::hex16(plan.fingerprint()) +
                       " grid=" + std::to_string(plan.size());
  // Fast-accuracy runs are deterministic but not byte-stable against
  // the default mode, so tag their documents: merge compares banners
  // for equality and therefore rejects mixed-mode grids instead of
  // reporting spurious cross-shard determinism violations. The default
  // mode's banner is unchanged (byte-compatible with earlier releases).
  // The "2" marks the fast-mode row bytes of bit-exact link kernels;
  // older builds wrote "fast-ulp" rows from a different kernel, and the
  // banner is hashed into cache keys and compared by merge and resume,
  // so the new tag keeps those rows from mixing with these.
  if (vmath::active_accuracy_mode() == vmath::AccuracyMode::kFastUlp) {
    banner += " accuracy=fast-ulp2";
  }
  return banner;
}

std::string shard_header(const SweepPlan& plan,
                         const std::vector<std::string>& metric_columns) {
  std::string header = "index";
  for (const auto& axis : plan.axes) header += "," + axis.key;
  for (const auto& column : metric_columns) header += "," + column;
  return header;
}

std::optional<ShardDocument> parse_shard(std::string_view document,
                                         std::string* error) {
  const auto trailer = util::check_integrity_trailer(document);
  if (trailer.status == util::TrailerStatus::kCorrupt) {
    *error = "integrity trailer mismatch (truncated or corrupted)";
    return std::nullopt;
  }
  ShardDocument shard;
  std::string_view rest = trailer.body;
  for (std::size_t line_no = 1; !rest.empty(); ++line_no) {
    std::string_view line = util::take_line(rest);
    if (line.ends_with('\r')) line.remove_suffix(1);
    if (line.empty()) continue;

    if (line_no == 1) {
      if (!line.starts_with("# railcorr-sweep-v1 ")) {
        *error = "missing '# railcorr-sweep-v1' banner";
        return std::nullopt;
      }
      shard.banner = line;
      continue;
    }
    if (shard.header.empty()) {
      shard.header = line;
      continue;
    }
    const std::size_t comma = line.find(',');
    const auto index = comma == std::string_view::npos
                           ? std::nullopt
                           : util::parse_decimal(line.substr(0, comma));
    if (!index.has_value()) {
      *error = "line " + std::to_string(line_no) +
               ": expected '<index>,...', got '" + std::string(line) + "'";
      return std::nullopt;
    }
    shard.rows.emplace_back(*index, line);
  }
  if (shard.banner.empty() || shard.header.empty()) {
    *error = "truncated document (banner or header missing)";
    return std::nullopt;
  }
  return shard;
}

MergeResult merge_shards(const std::vector<std::string>& shard_documents,
                         const std::vector<std::string>& shard_names) {
  MergeResult result;
  if (shard_documents.empty()) {
    result.errors.emplace_back("no shard documents to merge");
    return result;
  }
  RAILCORR_EXPECTS(shard_names.empty() ||
                   shard_names.size() == shard_documents.size());
  // Diagnostics label: the caller's file path when given (so a failed
  // merge names the file to inspect), else the document's position.
  const auto label = [&](std::size_t s) {
    return shard_names.empty() ? "shard " + std::to_string(s)
                               : "shard '" + shard_names[s] + "'";
  };

  // A malformed document — including one whose `@railcorr-crc` trailer
  // does not match its bytes, i.e. a file truncated or corrupted on
  // disk — is an input error, not a determinism-contract breach, so
  // contract_violation stays false and the orchestrator recomputes the
  // shard instead of aborting. A document with no trailer (a
  // hand-built shard, a legacy file) is parsed as-is.
  std::vector<ShardDocument> shards;
  for (std::size_t s = 0; s < shard_documents.size(); ++s) {
    std::string error;
    auto parsed = parse_shard(shard_documents[s], &error);
    if (!parsed.has_value()) {
      result.errors.push_back(label(s) + ": " + error);
      return result;
    }
    shards.push_back(std::move(*parsed));
  }

  for (std::size_t s = 1; s < shards.size(); ++s) {
    if (shards[s].banner != shards[0].banner) {
      result.errors.push_back(label(s) +
                              ": plan fingerprint/grid differs from " +
                              label(0) + " ('" + std::string(shards[s].banner) +
                              "' vs '" + std::string(shards[0].banner) + "')");
    }
    if (shards[s].header != shards[0].header) {
      result.errors.push_back(label(s) + ": column header differs from " +
                              label(0));
    }
  }
  if (!result.errors.empty()) return result;

  const auto grid = banner_grid(shards[0].banner);
  if (!grid.has_value()) {
    result.errors.emplace_back("banner lacks a parsable grid=<N> token");
    return result;
  }

  // Determinism contract: a cell evaluated by several shards must have
  // produced byte-identical rows. Each kept row remembers which shard
  // supplied it, so a violation names both sides of the disagreement.
  struct CellRow {
    std::string_view row;
    std::size_t source;
  };
  std::map<std::size_t, CellRow> cells;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const auto& [index, row] : shards[s].rows) {
      if (index >= *grid) {
        result.errors.push_back(label(s) + ": row index " +
                                std::to_string(index) + " outside grid of " +
                                std::to_string(*grid));
        continue;
      }
      const auto [it, inserted] = cells.emplace(index, CellRow{row, s});
      if (!inserted && it->second.row != row) {
        result.contract_violation = true;
        result.errors.push_back(
            "determinism violation at grid cell " + std::to_string(index) +
            ": " + label(s) + " produced '" + std::string(row) + "' but " +
            label(it->second.source) + " produced '" +
            std::string(it->second.row) + "'");
      }
    }
  }
  std::size_t missing = 0;
  for (std::size_t i = 0; i < *grid; ++i) {
    if (!cells.contains(i)) {
      result.contract_violation = true;
      result.errors.push_back("grid cell " + std::to_string(i) +
                              " missing from every shard");
      ++missing;
    }
  }
  if (missing > 0) {
    // One summary line naming every searched input, so a coverage gap
    // is traceable to the shard set actually merged.
    std::string searched = "coverage gap: " + std::to_string(missing) +
                           " cell(s) missing after searching ";
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (s > 0) searched += ", ";
      searched += label(s);
    }
    result.errors.push_back(std::move(searched));
  }
  if (!result.errors.empty()) return result;

  result.ok = true;
  result.merged = std::string(shards[0].banner) + "\n";
  result.merged += shards[0].header;
  result.merged += "\n";
  for (const auto& [index, cell] : cells) {
    (void)index;
    result.merged += cell.row;
    result.merged += "\n";
  }
  return result;
}

}  // namespace railcorr::corridor
