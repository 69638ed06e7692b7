#include "web/parse_cache.hpp"

#include <mutex>

#include "web/css.hpp"

namespace parcel::web {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}

}  // namespace

ParseCache& ParseCache::instance() {
  static ParseCache cache;
  return cache;
}

void ParseCache::set_enabled(bool enabled) {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

bool ParseCache::enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

template <typename T, typename Scan>
std::shared_ptr<const T> ParseCache::lookup(
    Table<T> Shard::*table, std::string_view text,
    const std::shared_ptr<const std::string>& pin,
    std::atomic<std::uint64_t>& hits, std::atomic<std::uint64_t>& misses,
    Scan scan) {
  if (!enabled() || pin == nullptr) {
    // Uncached scan: the artifact still borrows from `text`; the caller
    // keeps the backing string alive.
    misses.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const T>(scan(text));
  }

  Key key{text.data(), text.size()};
  Shard& shard = shard_for(key);
  std::shared_ptr<Slot<T>> slot;
  bool inserted = false;
  {
    util::MutexLock lock(shard.mutex);
    auto& slots = (shard.*table).slots;
    auto it = slots.find(key);
    if (it == slots.end()) {
      it = slots.emplace(key, std::make_shared<Slot<T>>()).first;
      it->second->pin = pin;  // pins the keyed bytes for the entry's life
      inserted = true;
    }
    slot = it->second;
  }
  // Parse outside the shard lock; call_once makes concurrent requesters
  // for the *same* content wait for one scan instead of racing duplicates,
  // and orders the store before every later read of the artifact.
  std::call_once(slot->once, [&] {
    slot->artifact = std::make_shared<const T>(scan(text));
  });
  if (inserted) {
    misses.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits.fetch_add(1, std::memory_order_relaxed);
  }
  return slot->artifact;
}

std::shared_ptr<const std::vector<HtmlToken>> ParseCache::html(
    std::string_view doc, const std::shared_ptr<const std::string>& pin) {
  return lookup(&Shard::html, doc, pin, html_hits_, html_misses_,
                [](std::string_view text) { return MiniHtml::scan(text); });
}

std::shared_ptr<const std::vector<Reference>> ParseCache::css(
    std::string_view sheet, const std::shared_ptr<const std::string>& pin) {
  return lookup(&Shard::css, sheet, pin, css_hits_, css_misses_,
                [](std::string_view text) { return MiniCss::scan(text); });
}

std::shared_ptr<const JsProgram> ParseCache::js(
    std::string_view code, const std::shared_ptr<const std::string>& pin) {
  return lookup(&Shard::js, code, pin, js_hits_, js_misses_,
                [](std::string_view text) { return MiniJs::run(text); });
}

ParseCache::Stats ParseCache::stats() const {
  Stats s;
  s.html_hits = html_hits_.load(std::memory_order_relaxed);
  s.html_misses = html_misses_.load(std::memory_order_relaxed);
  s.css_hits = css_hits_.load(std::memory_order_relaxed);
  s.css_misses = css_misses_.load(std::memory_order_relaxed);
  s.js_hits = js_hits_.load(std::memory_order_relaxed);
  s.js_misses = js_misses_.load(std::memory_order_relaxed);
  return s;
}

void ParseCache::reset_stats() {
  html_hits_ = 0;
  html_misses_ = 0;
  css_hits_ = 0;
  css_misses_ = 0;
  js_hits_ = 0;
  js_misses_ = 0;
}

void ParseCache::clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    shard.html.slots.clear();
    shard.css.slots.clear();
    shard.js.slots.clear();
  }
}

std::size_t ParseCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    n += shard.html.slots.size() + shard.css.slots.size() +
         shard.js.slots.size();
  }
  return n;
}

}  // namespace parcel::web
