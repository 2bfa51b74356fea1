#include "orch/remote.hpp"

#include <algorithm>

#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr::orch {

namespace {

using util::ConfigError;

/// Whitespace-separated words; runs of spaces and tabs are one break.
std::vector<std::string> split_tokens(std::string_view text) {
  std::vector<std::string> tokens;
  for (const std::string_view token : util::split_list(text, " \t")) {
    if (!token.empty()) tokens.emplace_back(token);
  }
  return tokens;
}

/// Validate every `{placeholder}` in `tokens` against `allowed`, and
/// require each of `required` to appear somewhere. Braces outside a
/// known placeholder are errors — a typo like `{hots}` must fail at
/// parse time, not launch a worker onto a literal host named "{hots}".
void validate_template(const std::vector<std::string>& tokens,
                       std::string_view what,
                       const std::vector<std::string_view>& allowed,
                       const std::vector<std::string_view>& required) {
  if (tokens.empty()) {
    throw ConfigError(std::string(what) + " template is empty");
  }
  std::vector<bool> seen(required.size(), false);
  for (const auto& token : tokens) {
    std::size_t i = 0;
    while (i < token.size()) {
      if (token[i] == '}') {
        throw ConfigError(std::string(what) + " template token '" + token +
                          "': unbalanced '}'");
      }
      if (token[i] != '{') {
        ++i;
        continue;
      }
      const std::size_t close = token.find('}', i + 1);
      if (close == std::string::npos) {
        throw ConfigError(std::string(what) + " template token '" + token +
                          "': unbalanced '{'");
      }
      const std::string_view name(token.data() + i + 1, close - i - 1);
      bool known = false;
      for (const auto candidate : allowed) {
        if (name == candidate) known = true;
      }
      if (!known) {
        std::string valid;
        for (const auto candidate : allowed) {
          if (!valid.empty()) valid += ", ";
          valid += '{';
          valid += candidate;
          valid += '}';
        }
        std::string message(what);
        message += " template: unknown placeholder '{";
        message += name;
        message += "}' (valid: ";
        message += valid;
        message += ")";
        throw ConfigError(message);
      }
      for (std::size_t r = 0; r < required.size(); ++r) {
        if (name == required[r]) seen[r] = true;
      }
      i = close + 1;
    }
  }
  for (std::size_t r = 0; r < required.size(); ++r) {
    if (!seen[r]) {
      throw ConfigError(std::string(what) + " template must contain '{" +
                        std::string(required[r]) + "}'");
    }
  }
}

std::string substitute(std::string_view token, std::string_view name,
                       std::string_view value) {
  std::string needle;
  needle += '{';
  needle += name;
  needle += '}';
  std::string out;
  std::size_t i = 0;
  while (i < token.size()) {
    const std::size_t at = token.find(needle, i);
    if (at == std::string_view::npos) {
      out.append(token.substr(i));
      break;
    }
    out.append(token.substr(i, at - i));
    out.append(value);
    i = at + needle.size();
  }
  return out;
}

}  // namespace

std::vector<std::string> parse_host_list(std::string_view text) {
  std::vector<std::string> hosts;
  for (const std::string_view token : util::split_list(text, ",")) {
    if (token.empty()) {
      throw ConfigError("--hosts: empty host name in '" + std::string(text) +
                        "'");
    }
    if (token.find_first_of(" \t") != std::string_view::npos) {
      throw ConfigError("--hosts: host name '" + std::string(token) +
                        "' contains whitespace");
    }
    if (std::find(hosts.begin(), hosts.end(), token) != hosts.end()) {
      throw ConfigError("--hosts: duplicate host name '" +
                        std::string(token) + "'");
    }
    hosts.emplace_back(token);
  }
  return hosts;
}

std::string shell_quote(std::string_view word) {
  std::string out = "'";
  for (const char c : word) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

std::string shell_join(const std::vector<std::string>& argv) {
  std::string out;
  for (const auto& word : argv) {
    if (!out.empty()) out += ' ';
    out += shell_quote(word);
  }
  return out;
}

LaunchTemplate LaunchTemplate::parse(std::string_view text) {
  LaunchTemplate tmpl;
  tmpl.tokens_ = split_tokens(text);
  validate_template(tmpl.tokens_, "--launcher", {"host", "cmd"}, {"cmd"});
  return tmpl;
}

std::vector<std::string> LaunchTemplate::build(
    std::string_view host, const std::vector<std::string>& worker_argv)
    const {
  std::vector<std::string> argv;
  argv.reserve(tokens_.size());
  for (const auto& token : tokens_) {
    if (token == "{cmd}") {
      // The whole worker command as one shell word — what `ssh host
      // 'cmd'` (and any sh-like remote shell) expects.
      argv.push_back(shell_join(worker_argv));
      continue;
    }
    argv.push_back(substitute(substitute(token, "host", host), "cmd",
                              shell_join(worker_argv)));
  }
  return argv;
}

FetchTemplate FetchTemplate::parse(std::string_view text) {
  FetchTemplate tmpl;
  tmpl.tokens_ = split_tokens(text);
  validate_template(tmpl.tokens_, "--fetch", {"host", "remote", "local"},
                    {"remote", "local"});
  return tmpl;
}

std::vector<std::string> FetchTemplate::build(std::string_view host,
                                              std::string_view remote,
                                              std::string_view local) const {
  std::vector<std::string> argv;
  argv.reserve(tokens_.size());
  for (const auto& token : tokens_) {
    argv.push_back(substitute(
        substitute(substitute(token, "host", host), "remote", remote),
        "local", local));
  }
  return argv;
}

FleetHealth::FleetHealth(std::vector<std::string> hosts,
                         FleetHealthOptions options)
    : options_(options) {
  hosts_.reserve(hosts.size());
  for (auto& name : hosts) {
    Host host;
    host.name = std::move(name);
    hosts_.push_back(std::move(host));
  }
}

std::optional<std::size_t> FleetHealth::acquire(double now_s,
                                                std::size_t shard,
                                                std::size_t attempt) {
  // A due re-probe first: one attempt at a time onto a quarantined
  // host whose backoff has expired (earliest due date wins; ties break
  // by list order for determinism).
  std::size_t probe = hosts_.size();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const Host& host = hosts_[i];
    if (!host.quarantined || host.dead || host.inflight > 0) continue;
    if (host.probe_at_s > now_s) continue;
    if (probe == hosts_.size() || host.probe_at_s < hosts_[probe].probe_at_s) {
      probe = i;
    }
  }
  if (probe < hosts_.size()) {
    hosts_[probe].probing = true;
    ++hosts_[probe].inflight;
    events_.push_back({hosts_[probe].name, "probe"});
    return probe;
  }

  std::size_t best = hosts_.size();
  if (options_.placement_seed.has_value()) {
    // The k-th host accepting work, in list order, for a draw keyed on
    // (seed, shard, attempt) alone; its own salt keeps it independent
    // of the chaos schedule's fault draw over the same triple.
    std::size_t eligible = 0;
    for (const Host& host : hosts_) {
      if (!host.quarantined && !host.dead) ++eligible;
    }
    if (eligible == 0) return std::nullopt;
    SplitMix64 rng(*options_.placement_seed ^ 0x94d049bb133111ebULL ^
                   (0x9e3779b97f4a7c15ULL * (shard + 1)) ^
                   (0xbf58476d1ce4e5b9ULL * (attempt + 1)));
    std::size_t k = static_cast<std::size_t>(rng.next() % eligible);
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (hosts_[i].quarantined || hosts_[i].dead) continue;
      if (k-- == 0) {
        best = i;
        break;
      }
    }
  } else {
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      const Host& host = hosts_[i];
      if (host.quarantined || host.dead) continue;
      if (best == hosts_.size() || host.inflight < hosts_[best].inflight) {
        best = i;
      }
    }
  }
  if (best == hosts_.size()) return std::nullopt;
  ++hosts_[best].inflight;
  return best;
}

void FleetHealth::quarantine(Host& host, double now_s) {
  ++host.quarantines;
  host.consecutive_failures = 0;
  if (host.quarantines >= options_.dead_after) {
    host.quarantined = true;
    host.dead = true;
    events_.push_back({host.name, "dead"});
    return;
  }
  host.quarantined = true;
  const double factor = static_cast<double>(
      1ULL << std::min<std::size_t>(host.quarantines - 1, 16));
  host.probe_at_s =
      now_s + std::min(options_.probe_cap_s, options_.probe_base_s * factor);
  events_.push_back({host.name, "quarantine"});
}

void FleetHealth::release(std::size_t host_index, bool transport_failure,
                          double now_s) {
  Host& host = hosts_[host_index];
  if (host.inflight > 0) --host.inflight;
  const bool was_probe = host.probing;
  host.probing = false;
  if (host.dead) return;

  if (!transport_failure) {
    host.consecutive_failures = 0;
    if (host.quarantined) {
      // The probe attempt proved the transport (even if the worker
      // then failed for compute reasons — launch + streaming is what a
      // probe tests).
      host.quarantined = false;
      events_.push_back({host.name, "recover"});
    }
    return;
  }

  ++host.consecutive_failures;
  if (was_probe) {
    // A failed probe re-quarantines immediately with a longer backoff.
    quarantine(host, now_s);
    return;
  }
  if (!host.quarantined &&
      host.consecutive_failures >= options_.quarantine_after) {
    quarantine(host, now_s);
  }
}

bool FleetHealth::all_dead() const {
  for (const auto& host : hosts_) {
    if (!host.dead) return false;
  }
  return !hosts_.empty();
}

std::size_t FleetHealth::healthy() const {
  std::size_t n = 0;
  for (const auto& host : hosts_) {
    if (!host.quarantined && !host.dead) ++n;
  }
  return n;
}

std::optional<double> FleetHealth::next_probe_s() const {
  std::optional<double> earliest;
  for (const auto& host : hosts_) {
    if (!host.quarantined || host.dead || host.inflight > 0) continue;
    if (!earliest.has_value() || host.probe_at_s < *earliest) {
      earliest = host.probe_at_s;
    }
  }
  return earliest;
}

std::vector<HostEvent> FleetHealth::drain_events() {
  std::vector<HostEvent> events = std::move(events_);
  events_.clear();
  return events;
}

}  // namespace railcorr::orch
