// ParseCache: corpus-wide memoization of scan artifacts (HTML tokens,
// CSS references, JS programs).
//
// The evaluation grid re-runs the same immutable page snapshots under
// every scheme and round (§7), so each content string is tokenized many
// times — on the client engine and again on the proxy engine — with
// bit-identical results. This cache parses each distinct content once and
// shares the artifact read-only across every run and every
// ParallelRunner worker.
//
// Keying. An entry is addressed by the *content identity* of the scanned
// text: the (data pointer, length) of the string_view handed to the
// scanner. Corpus content lives in immutable std::shared_ptr<const
// std::string>s created once (generator / replay store), so a stable
// data pointer uniquely names the bytes; inline <script> bodies — views
// into the middle of a document — get distinct keys the same way. Every
// entry stores the owning shared_ptr ("pin"), which both keeps the
// borrowed string_views inside the artifact valid and guarantees the
// keyed address can never be recycled for different bytes while the
// entry exists.
//
// Concurrency. A fixed array of shards, each a mutex-guarded map of
// once-init slots: the first requester parses (outside the shard lock,
// guarded by the slot's once_flag), every later requester — on any
// thread — gets the same immutable artifact. Determinism is by
// construction: scanners are pure functions of the content bytes, so a
// cached artifact is byte-for-byte the artifact a fresh scan would
// produce; cache on/off and any --jobs value yield bitwise-identical
// RunResults.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "web/html.hpp"
#include "web/js.hpp"

namespace parcel::web {

class ParseCache {
 public:
  /// Process-wide cache instance shared by every engine.
  static ParseCache& instance();

  /// Global toggle (default on). With the cache off every call scans
  /// fresh — results are bitwise identical either way.
  static void set_enabled(bool enabled);
  [[nodiscard]] static bool enabled();

  /// Memoized MiniHtml::scan. `pin` is the shared string the scanned view
  /// borrows from (usually the whole string); it is retained by the cache
  /// entry so token views stay valid. With a null pin or the cache
  /// disabled, the text is scanned fresh and the caller must keep the
  /// backing string alive while the artifact is in use.
  std::shared_ptr<const std::vector<HtmlToken>> html(
      std::string_view doc, const std::shared_ptr<const std::string>& pin);

  /// Memoized MiniCss::scan (same pinning contract as html()).
  std::shared_ptr<const std::vector<Reference>> css(
      std::string_view sheet, const std::shared_ptr<const std::string>& pin);

  /// Memoized MiniJs::run reference-extraction (same pinning contract).
  /// Also serves inline <script> bodies: the view into the surrounding
  /// document is the key, the document string is the pin.
  std::shared_ptr<const JsProgram> js(
      std::string_view code, const std::shared_ptr<const std::string>& pin);

  struct Stats {
    std::uint64_t html_hits = 0, html_misses = 0;
    std::uint64_t css_hits = 0, css_misses = 0;
    std::uint64_t js_hits = 0, js_misses = 0;
    [[nodiscard]] std::uint64_t hits() const {
      return html_hits + css_hits + js_hits;
    }
    [[nodiscard]] std::uint64_t misses() const {
      return html_misses + css_misses + js_misses;
    }
    [[nodiscard]] double hit_rate() const {
      std::uint64_t total = hits() + misses();
      return total == 0 ? 0.0 : static_cast<double>(hits()) /
                                    static_cast<double>(total);
    }
  };
  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// Drop every entry (and the content pins they hold). Outstanding
  /// artifact shared_ptrs stay valid — entries release, artifacts don't.
  void clear();

  /// Drop dead entries: those where this cache holds the *only* reference
  /// to the slot, the artifact, and the content pin. Such an entry can
  /// never hit again — its backing string is unreachable to any future
  /// caller, kept alive solely by the pin — so it is pure retained memory.
  /// Transient content (a generated document whose owner was dropped)
  /// lands here the moment its owner lets go; corpus content stays cached
  /// because its generator/replay-store owner still pins it. Bundle parts
  /// are the proxy's own strings (web/mhtml.hpp), so they are never
  /// transient.
  /// Releasing the pin may let the allocator recycle the keyed address,
  /// which is safe exactly because the entry is erased in the same step: a
  /// recycled address misses and re-inserts. Streaming fleet runs sweep
  /// once per epoch to keep memory bounded in K (DESIGN.md §12). Returns
  /// the number of entries dropped. Thread-safe; concurrent lookups hold
  /// slot/pin references and are skipped.
  /// Locks every shard through a std::unique_lock vector, a pattern the
  /// static lock analysis cannot express — hence the opt-out.
  std::size_t sweep_transient() PARCEL_NO_THREAD_SAFETY_ANALYSIS;

  /// Number of cached artifacts across all kinds (for tests/benches).
  [[nodiscard]] std::size_t size() const;

 private:
  ParseCache() = default;

  struct Key {
    const char* data = nullptr;
    std::size_t size = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // Pointer identity already distributes well; fold in the length so
      // nested views starting at the same byte separate.
      return std::hash<const void*>{}(k.data) ^ (k.size * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// One once-init slot per distinct content. `artifact` is written
  /// exactly once under `once`; `pin` keeps the scanned bytes (and the
  /// keyed address) alive for the entry's lifetime.
  template <typename T>
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const T> artifact;
    std::shared_ptr<const std::string> pin;
  };

  template <typename T>
  struct Table {
    std::unordered_map<Key, std::shared_ptr<Slot<T>>, KeyHash> slots;
  };

  struct Shard {
    mutable util::Mutex mutex;
    Table<std::vector<HtmlToken>> html PARCEL_GUARDED_BY(mutex);
    Table<std::vector<Reference>> css PARCEL_GUARDED_BY(mutex);
    Table<JsProgram> js PARCEL_GUARDED_BY(mutex);
  };

  static constexpr std::size_t kShards = 16;

  [[nodiscard]] Shard& shard_for(const Key& key) {
    return shards_[KeyHash{}(key) % kShards];
  }

  template <typename T, typename Scan>
  std::shared_ptr<const T> lookup(Table<T> Shard::*table, std::string_view text,
                                  const std::shared_ptr<const std::string>& pin,
                                  std::atomic<std::uint64_t>& hits,
                                  std::atomic<std::uint64_t>& misses,
                                  Scan scan);

  Shard shards_[kShards];
  std::atomic<std::uint64_t> html_hits_{0}, html_misses_{0};
  std::atomic<std::uint64_t> css_hits_{0}, css_misses_{0};
  std::atomic<std::uint64_t> js_hits_{0}, js_misses_{0};
};

}  // namespace parcel::web
