#include "cache/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orch/faultpoint.hpp"
#include "util/config.hpp"
#include "util/durable_io.hpp"

namespace railcorr::cache {

namespace {

namespace fs = std::filesystem;
using util::fnv1a64;
using util::hex16;

constexpr std::string_view kMagicPrefix = "# railcorr-cache-v1 schema=";

/// Evictors (and corrupt-segment droppers) must not race each other on
/// the same file: the first to create `<path>.lock` owns the unlink.
/// The lock is removed right after, so the crash window leaving a
/// stale lock is one unlink wide; orphaned locks (no segment left) are
/// swept by list_segments.
bool try_lock_segment(const std::string& path) {
  int fd;
  do {
    fd = ::open((path + ".lock").c_str(),
                O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

void unlock_segment(const std::string& path) {
  ::unlink((path + ".lock").c_str());
}

/// Remove a segment under its lock. False when another process holds
/// the lock (it is handling this segment); the unlink itself tolerates
/// the file already being gone.
bool remove_segment(const std::string& path) {
  if (!try_lock_segment(path)) return false;
  ::unlink(path.c_str());
  unlock_segment(path);
  return true;
}

/// Every `*.seg` path in `dir`, sorted, plus a sweep of orphaned
/// `*.lock` files whose segment no longer exists (a crashed evictor's
/// leftovers — without the sweep such a segment name would be locked
/// forever).
std::vector<std::string> list_segments(const std::string& dir) {
  std::vector<std::string> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const fs::path& path = entry.path();
    if (path.extension() == ".lock") {
      fs::path owner = path;
      owner.replace_extension();
      if (!fs::exists(owner, ec)) fs::remove(path, ec);
      continue;
    }
    if (path.extension() == ".seg") segments.push_back(path.string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

struct SegmentFile {
  std::string path;
  std::size_t size = 0;
  /// Mtime as the filesystem reports it; the LRU eviction order key.
  fs::file_time_type mtime{};
};

/// The segments of `dir` with their sizes, least recently used first.
std::vector<SegmentFile> segments_by_age(const std::string& dir) {
  std::vector<SegmentFile> segments;
  std::error_code ec;
  for (auto& path : list_segments(dir)) {
    SegmentFile segment;
    segment.size = static_cast<std::size_t>(fs::file_size(path, ec));
    if (ec) continue;  // Vanished under a concurrent evictor.
    segment.mtime = fs::last_write_time(path, ec);
    if (ec) continue;
    segment.path = std::move(path);
    segments.push_back(std::move(segment));
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.mtime < b.mtime;
            });
  return segments;
}

}  // namespace

std::uint64_t cell_key(std::string_view banner, std::size_t index,
                       std::string_view header,
                       std::uint32_t schema_version) {
  // Hash the tuple as length-unambiguous framed fields: each component
  // ends with '\n' (none of them can contain one), so no two distinct
  // tuples serialize to the same byte stream.
  std::uint64_t hash = fnv1a64(banner);
  hash = fnv1a64("\n", hash);
  hash = fnv1a64(std::to_string(index), hash);
  hash = fnv1a64("\n", hash);
  hash = fnv1a64(header, hash);
  hash = fnv1a64("\n", hash);
  hash = fnv1a64(std::to_string(schema_version), hash);
  return hash;
}

std::vector<std::uint64_t> cell_keys(std::string_view banner,
                                     std::span<const std::size_t> indices,
                                     std::string_view header,
                                     std::uint32_t schema_version) {
  // cell_key's framing: the banner part is common to every cell, and
  // the part after the index is hashed for all cells together.
  const std::uint64_t prefix = fnv1a64("\n", fnv1a64(banner));
  std::vector<std::uint64_t> keys;
  keys.reserve(indices.size());
  for (const std::size_t index : indices) {
    keys.push_back(fnv1a64(std::to_string(index), prefix));
  }
  std::string tail = "\n";
  tail += header;
  tail += '\n';
  tail += std::to_string(schema_version);
  util::fnv1a64_each(tail, keys);
  return keys;
}

std::string render_segment(const std::vector<SegmentEntry>& entries) {
  std::string body(kMagicPrefix);
  body += std::to_string(kResultSchemaVersion);
  body += '\n';
  for (const auto& entry : entries) {
    body += "entry ";
    body += hex16(entry.key);
    body += ' ';
    body += std::to_string(entry.row.size());
    body += '\n';
    body += entry.row;
    body += '\n';
  }
  return util::with_integrity_trailer(body);
}

SegmentParse parse_segment(std::string_view document) {
  SegmentParse parse;
  const auto trailer = util::check_integrity_trailer(document);
  if (trailer.status != util::TrailerStatus::kVerified) {
    // A cache segment is always published with a trailer, so "missing"
    // means truncated before the trailer line — the same torn-write
    // damage a mismatch means.
    parse.error = trailer.status == util::TrailerStatus::kMissing
                      ? "missing integrity trailer (truncated segment)"
                      : "integrity trailer mismatch (corrupt segment)";
    return parse;
  }
  std::string_view rest = trailer.body;
  // Every line of a segment (magic, entry headers, payload separators)
  // ends in '\n', so a body that does not is truncated, and every line
  // taken below had its newline.
  if (!rest.ends_with('\n')) {
    parse.error = "truncated segment (no final newline)";
    return parse;
  }

  const std::string_view magic = util::take_line(rest);
  if (!magic.starts_with(kMagicPrefix)) {
    parse.error = "bad magic line '" + std::string(magic) + "'";
    return parse;
  }
  if (util::parse_decimal(magic.substr(kMagicPrefix.size())) !=
      kResultSchemaVersion) {
    // A foreign schema is not corruption, but its rows mean something
    // else; dropping the segment is the only safe read.
    parse.error = "unsupported schema in '" + std::string(magic) + "'";
    return parse;
  }

  while (!rest.empty()) {
    const std::string_view line = util::take_line(rest);
    if (!line.starts_with("entry ")) {
      parse.error = "malformed entry line '" + std::string(line) + "'";
      return parse;
    }
    const std::string_view fields = line.substr(6);
    const std::size_t space = fields.find(' ');
    if (space == std::string_view::npos) {
      parse.error = "malformed entry line '" + std::string(line) + "'";
      return parse;
    }
    const auto key = util::parse_hex16(fields.substr(0, space));
    const auto length = util::parse_decimal(fields.substr(space + 1));
    if (!key.has_value() || !length.has_value()) {
      parse.error = "malformed entry key/length in '" + std::string(line) +
                    "'";
      return parse;
    }
    // The payload is length-prefixed raw bytes plus one separator
    // newline; anything shorter is truncation.
    if (rest.size() <= *length || rest[*length] != '\n') {
      parse.error = "truncated entry payload";
      return parse;
    }
    parse.entries.push_back(
        SegmentEntry{*key, std::string(rest.substr(0, *length))});
    rest.remove_prefix(*length + 1);
  }
  parse.ok = true;
  return parse;
}

DirReport scan_dir(const std::string& dir, bool drop_corrupt) {
  DirReport report;
  for (const auto& path : list_segments(dir)) {
    const auto document = util::read_file_fully(path);
    if (!document.has_value()) continue;  // Evicted under us.
    const auto parse = parse_segment(*document);
    if (!parse.ok) {
      report.corrupt_files.push_back(path);
      if (drop_corrupt) remove_segment(path);
      continue;
    }
    ++report.segments;
    report.entries += parse.entries.size();
    report.bytes += document->size();
  }
  return report;
}

std::size_t gc_dir(const std::string& dir, std::size_t max_bytes) {
  const auto segments = segments_by_age(dir);
  std::size_t total = 0;
  for (const auto& segment : segments) total += segment.size;
  std::size_t evicted = 0;
  for (const auto& segment : segments) {
    if (total <= max_bytes) break;
    if (remove_segment(segment.path)) {
      total -= segment.size;
      ++evicted;
    }
  }
  return evicted;
}

bool ResultCache::open(const Options& options, std::string* error) {
  const obs::ObsSpan span("open", "cache");
  open_ = false;
  options_ = options;
  stats_ = {};
  index_.clear();
  segments_.clear();
  segment_hit_.clear();
  staged_.clear();

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create cache dir '" + options_.dir + "': " +
               ec.message();
    }
    return false;
  }

  for (auto& path : list_segments(options_.dir)) {
    const auto document = util::read_file_fully(path);
    if (!document.has_value()) continue;  // Evicted under us.
    auto parse = parse_segment(*document);
    if (!parse.ok) {
      // Verified-then-dropped, like a damaged shard: the segment is
      // recomputable by definition, so the only wrong move would be
      // trusting any part of it.
      remove_segment(path);
      ++stats_.dropped_segments;
      continue;
    }
    const std::size_t segment_id = segments_.size();
    segments_.push_back(std::move(path));
    index_.reserve(index_.size() + parse.entries.size());
    for (auto& entry : parse.entries) {
      index_[entry.key] = IndexedRow{std::move(entry.row), segment_id};
    }
    ++stats_.segments;
  }
  segment_hit_.assign(segments_.size(), false);
  stats_.entries = index_.size();
  open_ = true;
  return true;
}

std::optional<std::string_view> ResultCache::lookup(std::uint64_t key) {
  if (!open_) return std::nullopt;
  auto& metrics = obs::MetricsRegistry::instance();
  static obs::Counter& hits_counter = metrics.counter("cache.hits");
  static obs::Counter& misses_counter = metrics.counter("cache.misses");
  static obs::Histogram& hit_hist = metrics.histogram("cache.hit_usec");
  static obs::Histogram& miss_hist = metrics.histogram("cache.miss_usec");
  const bool timed = metrics.enabled();
  const std::uint64_t start = timed ? obs::usec_now() : 0;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    misses_counter.add();
    if (timed) miss_hist.record(obs::usec_now() - start);
    return std::nullopt;
  }
  ++stats_.hits;
  hits_counter.add();
  if (it->second.segment != npos) segment_hit_[it->second.segment] = true;
  if (timed) hit_hist.record(obs::usec_now() - start);
  return std::string_view(it->second.row);
}

void ResultCache::insert(std::uint64_t key, std::string_view row) {
  if (!open_) return;
  // The byte-identity contract makes a duplicate's bytes identical to
  // the indexed ones, so re-staging an already-known key only bloats
  // the store.
  if (index_.find(key) != index_.end()) return;
  index_[key] = IndexedRow{std::string(row), npos};
  staged_.push_back(SegmentEntry{key, std::string(row)});
  ++stats_.inserted;
  static obs::Counter& inserts_counter =
      obs::MetricsRegistry::instance().counter("cache.inserts");
  inserts_counter.add();
}

bool ResultCache::flush(std::string* error) {
  if (!open_) return true;
  const obs::ObsSpan span("flush", "cache", "staged", staged_.size());
  static obs::Histogram& flush_hist =
      obs::MetricsRegistry::instance().histogram("cache.flush_usec");
  const obs::ScopedUsecTimer flush_timer(flush_hist);
  auto& faults = orch::FaultInjector::instance();

  std::string published_path;
  if (!staged_.empty()) {
    std::string document = render_segment(staged_);
    published_path =
        options_.dir + "/seg_" + hex16(fnv1a64(document)) + ".seg";
    if (const auto torn =
            faults.armed(orch::FaultKind::kCacheTornWrite)) {
      // A torn publish: only a prefix of the document lands under the
      // final name — the state a crashed writer without the atomic
      // staging discipline leaves. Readers must verify-and-drop it.
      document.resize(
          std::min(document.size(), std::max<std::size_t>(1, *torn)));
      std::string write_error;
      if (!util::atomic_write_file(published_path, document, &write_error)) {
        if (error != nullptr) *error = write_error;
        return false;
      }
      staged_.clear();
      return true;
    }
    if (faults.armed(orch::FaultKind::kCacheCorruptSegment).has_value()) {
      // Bit rot after the trailer was computed: the file is full
      // length and structurally plausible, only the checksum can
      // reject it.
      const std::size_t digit = document.size() - 2;
      document[digit] = document[digit] == '0' ? '1' : '0';
    }
    std::string write_error;
    if (!util::atomic_write_file(published_path, document, &write_error)) {
      if (error != nullptr) *error = write_error;
      return false;
    }
    staged_.clear();
  }

  // Recency: a segment that answered hits since the last flush is
  // "recently used" — bump its mtime so the eviction pass below (and
  // any concurrent process's) ranks it young.
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (!segment_hit_[i]) continue;
    ::utimensat(AT_FDCWD, segments_[i].c_str(), nullptr, 0);
    segment_hit_[i] = false;
  }

  const bool evict_all =
      faults.armed(orch::FaultKind::kCacheEvict).has_value();
  if (options_.max_bytes == 0 && !evict_all) return true;

  const auto segments = segments_by_age(options_.dir);
  std::size_t total = 0;
  for (const auto& segment : segments) total += segment.size;
  for (const auto& segment : segments) {
    if (!evict_all && total <= options_.max_bytes) break;
    // The segment just published carries this flush's fresh rows;
    // evicting it immediately would make an over-budget store a
    // write-only device.
    if (segment.path == published_path) continue;
    if (remove_segment(segment.path)) {
      total -= segment.size;
      ++stats_.evicted_segments;
    }
  }
  return true;
}

}  // namespace railcorr::cache
