#include "orch/faultpoint.hpp"

#include <cstdlib>

#include "util/config.hpp"

namespace railcorr::orch {

namespace {

using util::ConfigError;

struct KindName {
  FaultKind kind;
  std::string_view name;
  bool takes_param;
};

constexpr KindName kKinds[] = {
    {FaultKind::kTornWrite, "torn-write", true},
    {FaultKind::kCorruptTrailer, "corrupt-trailer", false},
    {FaultKind::kStall, "stall", true},
    {FaultKind::kKillAfterCells, "kill", true},
    {FaultKind::kCacheTornWrite, "cache-torn-write", true},
    {FaultKind::kCacheCorruptSegment, "cache-corrupt-segment", false},
    {FaultKind::kCacheEvict, "cache-evict", false},
    {FaultKind::kLaunchRefused, "launch-refused", false},
    {FaultKind::kHostFlap, "host-flap", true},
    {FaultKind::kTransferTorn, "transfer-torn", true},
    {FaultKind::kTransferStalled, "transfer-stalled", false},
};

std::size_t parse_param(std::string_view text, std::string_view spec) {
  if (text.empty()) {
    throw ConfigError("fault spec '" + std::string(spec) + "': empty value");
  }
  const auto value = util::parse_decimal(text);
  if (!value.has_value()) {
    throw ConfigError("fault spec '" + std::string(spec) +
                      "': expected a decimal value");
  }
  return *value;
}

}  // namespace

std::string fault_spec_string(const FaultSpec& spec) {
  for (const auto& entry : kKinds) {
    if (entry.kind != spec.kind) continue;
    std::string out(entry.name);
    if (entry.takes_param) {
      out += '=';
      out += std::to_string(spec.param);
    }
    return out;
  }
  return "?";
}

FaultSpec parse_fault_spec(std::string_view text) {
  const std::size_t eq = text.find('=');
  const std::string_view name =
      eq == std::string_view::npos ? text : text.substr(0, eq);
  for (const auto& entry : kKinds) {
    if (name != entry.name) continue;
    FaultSpec spec;
    spec.kind = entry.kind;
    if (entry.takes_param) {
      if (eq == std::string_view::npos) {
        throw ConfigError("fault spec '" + std::string(text) + "': '" +
                          std::string(entry.name) + "' needs '=N'");
      }
      spec.param = parse_param(text.substr(eq + 1), text);
    } else if (eq != std::string_view::npos) {
      throw ConfigError("fault spec '" + std::string(text) + "': '" +
                        std::string(entry.name) + "' takes no value");
    }
    return spec;
  }
  throw ConfigError(
      "fault spec '" + std::string(text) +
      "': expected torn-write=N, corrupt-trailer, stall=N, kill=N, "
      "cache-torn-write=N, cache-corrupt-segment, cache-evict, "
      "launch-refused, host-flap=N, transfer-torn=N, or transfer-stalled");
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const FaultSpec& spec) { armed_.push_back(spec); }

void FaultInjector::arm_from_env() {
  const char* env = std::getenv("RAILCORR_FAULT");
  if (env == nullptr) return;
  // A test aid, so stray commas are forgiven: empty items are skipped.
  for (const std::string_view token : util::split_list(env, ",")) {
    if (!token.empty()) arm(parse_fault_spec(token));
  }
}

void FaultInjector::clear() { armed_.clear(); }

std::optional<std::size_t> FaultInjector::armed(FaultKind kind) const {
  for (const auto& spec : armed_) {
    if (spec.kind == kind) return spec.param;
  }
  return std::nullopt;
}

}  // namespace railcorr::orch
