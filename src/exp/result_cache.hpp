// In-process memoization of sweep results, keyed by config fingerprint.
//
// Every paper scenario is a deterministic function of its configuration
// (app kind, placement strategy, every PaperScenarioOptions field — the
// seed included), so two jobs with the same `Fingerprint` produce
// field-identical `RunReport`s.  A `ResultCache` exploits that: the sweep
// runner consults it before dispatching a job and serves repeated cells —
// within one grid or across grids of the same process — from the cache
// instead of re-simulating them.  Ablation drivers that re-run a shared
// baseline (e.g. the scale-0.2 real-time run) pay for it once.
//
// The cache is a bounded LruCache (common/lru_cache.hpp — the same store
// core::TemplateStore uses): at most `max_entries()` results are retained,
// with least-recently-used eviction (a lookup hit or re-insert refreshes
// the entry).  The default cap is generous — today's full ablation suite
// is a few dozen cells — but it means a long-lived service sweeping
// millions of configurations cannot grow the cache without bound.
// `evictions()` counts the entries discarded, and the sweep runner mirrors
// the delta into its `sweep.cache_evictions` metric.
//
// Thread safety: all members are mutex-synchronized; values are returned
// *by copy* so a cached report can never be mutated or invalidated under a
// concurrent reader (or by eviction).  Jobs whose configuration cannot be
// fingerprinted (ad-hoc callables, options with `arrange`/tracer/metrics
// hooks) never reach the cache — see exp::scenario_fingerprint.
//
// Persistence (FRIEDA_RESULT_CACHE_FILE): a cache with codecs attached via
// `set_persistence` can load a versioned entry file at startup and
// checkpoint itself atomically (temp file + rename) when a sweep
// completes, so an interrupted CI sweep resumes from its surviving cells
// instead of re-simulating them.  Loading inserts only keys the cache does
// not already hold — in-process entries win on conflict — and entries
// whose payload fails to decode (or whose length field is corrupt) are
// skipped with a warning, never trusted.  The file format is:
//
//   frieda-result-cache v1
//   <32-hex fingerprint> <payload bytes>\n<payload>\n     (one per entry)
//
// Entries are written LRU-first so reloading reproduces the recency order.
// Fingerprints carry the config-hash version salt (exp/cost.cpp), so a
// file from an incompatible build simply never hits.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/lru_cache.hpp"

namespace frieda::exp {

template <typename R>
class ResultCache : public LruCache<Fingerprint, R> {
 public:
  /// Default entry cap — far above today's grid sizes (the full ablation
  /// suite is < 100 cells) while bounding a runaway sweep's footprint.
  static constexpr std::size_t kDefaultMaxEntries = 4096;

  explicit ResultCache(std::size_t max_entries = kDefaultMaxEntries)
      : LruCache<Fingerprint, R>(max_entries) {}

  /// Value codec for persistence.  The serializer must render a value that
  /// `deserialize` restores field-identically (see frieda/report_io.hpp);
  /// the deserializer throws on malformed payloads.
  using Serializer = std::function<std::string(const R&)>;
  using Deserializer = std::function<R(const std::string&)>;

  /// Attach a checkpoint path and the value codec.  `save_if_persistent`
  /// becomes a real save; pass an empty path to detach.
  void set_persistence(std::string path, Serializer serialize, Deserializer deserialize) {
    std::lock_guard<std::mutex> lock(persist_mutex_);
    persist_path_ = std::move(path);
    serialize_ = std::move(serialize);
    deserialize_ = std::move(deserialize);
  }

  /// The attached checkpoint path (empty = persistence off).
  std::string persist_path() const {
    std::lock_guard<std::mutex> lock(persist_mutex_);
    return persist_path_;
  }

  /// Load entries from `path`, inserting only keys not already cached
  /// (in-process entries win on conflict).  Returns false when the file
  /// exists but carries the wrong header, or when the codec is missing; a
  /// missing file is the normal cold start and returns false quietly.
  /// Malformed or undecodable entries are skipped with a warning.
  bool load_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;  // cold start
    std::string line;
    if (!std::getline(in, line) || line != kPersistHeader) {
      FLOG(kWarn, "sweep",
           "ignoring result-cache file '" << path << "': missing '" << kPersistHeader
                                          << "' header");
      return false;
    }
    Deserializer deserialize;
    {
      std::lock_guard<std::mutex> lock(persist_mutex_);
      deserialize = deserialize_;
    }
    if (!deserialize) {
      FLOG(kWarn, "sweep",
           "result-cache file '" << path << "' present but no deserializer attached");
      return false;
    }
    std::size_t loaded = 0;
    std::size_t skipped = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto sep = line.find(' ');
      Fingerprint key;
      std::uint64_t bytes = 0;
      bool ok = sep == 32 && parse_hex_key(line.substr(0, sep), key) &&
                parse_decimal(line.substr(sep + 1), bytes) && bytes <= kMaxPayloadBytes;
      std::string payload;
      if (ok) {
        payload.resize(static_cast<std::size_t>(bytes));
        ok = static_cast<bool>(in.read(payload.data(),
                                       static_cast<std::streamsize>(payload.size()))) &&
             in.get() == '\n';
      }
      if (ok) {
        try {
          this->insert(key, deserialize(payload));  // first insert wins: in-process stays
          ++loaded;
          continue;
        } catch (const std::exception&) {
          ok = false;
        }
      }
      if (!ok) {
        ++skipped;
        if (!in) break;  // stream is gone (truncated file): stop, keep what loaded
      }
    }
    if (skipped > 0) {
      FLOG(kWarn, "sweep",
           "result-cache file '" << path << "': skipped " << skipped
                                 << " malformed entr" << (skipped == 1 ? "y" : "ies"));
    }
    return loaded > 0 || skipped == 0;
  }

  /// Write every cached entry to `path` atomically (temp + rename).
  /// Requires an attached serializer; returns whether the file landed.
  bool save_file(const std::string& path) const {
    Serializer serialize;
    {
      std::lock_guard<std::mutex> lock(persist_mutex_);
      serialize = serialize_;
    }
    if (!serialize) {
      FLOG(kWarn, "sweep", "result cache has no serializer; cannot save '" << path << "'");
      return false;
    }
    std::ostringstream body;
    body << kPersistHeader << "\n";
    // LRU-first: reloading insert()s in file order, leaving the last
    // written (most recent) entries at the front of the new cache.
    this->for_each_lru_first([&](const Fingerprint& key, const R& value) {
      const std::string payload = serialize(value);
      body << key.to_hex() << " " << payload.size() << "\n" << payload << "\n";
    });
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out || !(out << body.str()) || !out.flush()) {
        FLOG(kWarn, "sweep", "could not write result-cache file '" << tmp << "'");
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      FLOG(kWarn, "sweep",
           "could not move result-cache file into place at '" << path << "'");
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  }

  /// Checkpoint to the attached path; no-op (false) when persistence is
  /// off.  The sweep runner calls this when a sweep completes.
  bool save_if_persistent() const {
    const auto path = persist_path();
    if (path.empty()) return false;
    return save_file(path);
  }

  /// The process-wide cache for result type R — the default every
  /// SweepRunner<R> consults, which is what makes memoization work *across*
  /// the independent grids of one driver.  Use `SweepRunner::set_cache`
  /// with a local instance (or nullptr) to isolate or disable.
  static ResultCache& global() {
    static ResultCache cache;
    return cache;
  }

 private:
  static constexpr const char* kPersistHeader = "frieda-result-cache v1";
  /// Payloads above this are a corrupted length field, not a real report.
  static constexpr std::uint64_t kMaxPayloadBytes = 1ull << 32;

  static bool parse_hex_key(const std::string& hex, Fingerprint& key) {
    if (hex.size() != 32) return false;
    std::uint64_t words[2] = {0, 0};
    for (int w = 0; w < 2; ++w) {
      for (int i = 0; i < 16; ++i) {
        const char c = hex[static_cast<std::size_t>(w * 16 + i)];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a' + 10);
        else return false;
        words[w] = (words[w] << 4) | digit;
      }
    }
    key.hi = words[0];
    key.lo = words[1];
    return true;
  }

  /// Plain unsigned decimal; false on empty input, non-digits, or a value
  /// above 2^64-1 (which would otherwise wrap to a small, plausible length).
  static bool parse_decimal(const std::string& s, std::uint64_t& out) {
    if (s.empty()) return false;
    out = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      const auto digit = static_cast<std::uint64_t>(c - '0');
      if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) return false;
      out = out * 10 + digit;
    }
    return true;
  }

  mutable std::mutex persist_mutex_;  ///< guards the three fields below
  std::string persist_path_;
  Serializer serialize_;
  Deserializer deserialize_;
};

}  // namespace frieda::exp
