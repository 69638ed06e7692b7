#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "net/url.hpp"
#include "replay/replay_store.hpp"
#include "web/css.hpp"
#include "web/generator.hpp"
#include "web/html.hpp"
#include "web/js.hpp"
#include "web/parse_cache.hpp"

namespace parcel::web {
namespace {

std::shared_ptr<const std::string> shared(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

/// Every test starts from an empty cache with zeroed counters; the cache
/// is a process-wide singleton, so tests sharing a binary invocation must
/// not depend on each other's entries.
class ParseCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ParseCache::instance().clear();
    ParseCache::instance().reset_stats();
    ParseCache::set_enabled(true);
  }
  void TearDown() override {
    ParseCache::instance().clear();
    ParseCache::set_enabled(true);
  }
};

TEST_F(ParseCacheTest, SecondScanOfSameContentIsAHit) {
  auto doc = shared("<img src=\"/a.png\"><script src=\"/a.js\"></script>");
  auto first = ParseCache::instance().html(*doc, doc);
  auto second = ParseCache::instance().html(*doc, doc);
  EXPECT_EQ(first.get(), second.get());  // shared artifact, not a copy
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_misses, 1u);
  EXPECT_EQ(s.html_hits, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST_F(ParseCacheTest, CachedArtifactEqualsFreshScan) {
  auto doc = shared(
      "<link rel=\"stylesheet\" href=\"/s.css\">"
      "<script>fetch(\"/x.json\");</script>"
      "<img src=\"http://cdn.example/i.png\">");
  auto cached = ParseCache::instance().html(*doc, doc);
  std::vector<HtmlToken> fresh = MiniHtml::scan(*doc);
  ASSERT_EQ(cached->size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ((*cached)[i].kind, fresh[i].kind);
    EXPECT_EQ((*cached)[i].ref, fresh[i].ref);
    EXPECT_EQ((*cached)[i].script, fresh[i].script);
  }
}

TEST_F(ParseCacheTest, DistinctContentGetsDistinctEntries) {
  auto a = shared("<img src=\"/a.png\">");
  auto b = shared("<img src=\"/b.png\">");
  auto ta = ParseCache::instance().html(*a, a);
  auto tb = ParseCache::instance().html(*b, b);
  EXPECT_NE(ta.get(), tb.get());
  EXPECT_EQ(ParseCache::instance().size(), 2u);
  EXPECT_EQ(ParseCache::instance().stats().html_misses, 2u);
}

TEST_F(ParseCacheTest, DisabledCacheScansFreshAndStoresNothing) {
  ParseCache::set_enabled(false);
  auto doc = shared("<img src=\"/a.png\">");
  auto first = ParseCache::instance().html(*doc, doc);
  auto second = ParseCache::instance().html(*doc, doc);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(ParseCache::instance().size(), 0u);
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_hits, 0u);
  EXPECT_EQ(s.html_misses, 2u);
  // Off or on, the scan result is identical.
  EXPECT_EQ(*first, *second);
}

TEST_F(ParseCacheTest, NullPinScansFreshWithoutInsert) {
  std::string local = "url(/bg.png)";
  auto refs = ParseCache::instance().css(local, nullptr);
  ASSERT_EQ(refs->size(), 1u);
  EXPECT_EQ(ParseCache::instance().size(), 0u);
}

TEST_F(ParseCacheTest, InlineScriptViewsKeyIndependentlyOfDocument) {
  auto doc = shared(
      "<script>fetch(\"/one.json\");</script>"
      "<script>fetch(\"/two.json\");</script>");
  auto tokens = ParseCache::instance().html(*doc, doc);
  ASSERT_EQ(tokens->size(), 2u);
  // Each inline body is a view into the middle of the document; both get
  // their own cache entry keyed by (pointer, length).
  auto p1 = ParseCache::instance().js((*tokens)[0].script, doc);
  auto p2 = ParseCache::instance().js((*tokens)[1].script, doc);
  ASSERT_EQ(p1->references.size(), 1u);
  ASSERT_EQ(p2->references.size(), 1u);
  EXPECT_EQ(p1->references[0].target, "/one.json");
  EXPECT_EQ(p2->references[0].target, "/two.json");
  // Re-requesting the first body hits.
  auto again = ParseCache::instance().js((*tokens)[0].script, doc);
  EXPECT_EQ(again.get(), p1.get());
  EXPECT_EQ(ParseCache::instance().stats().js_hits, 1u);
}

TEST_F(ParseCacheTest, EntryPinsContentAfterCallerDropsIt) {
  auto js = shared("fetch(\"/pinned.png\");");
  const std::string* raw = js.get();
  auto prog = ParseCache::instance().js(*js, js);
  js.reset();  // cache entry keeps the string alive
  ASSERT_EQ(prog->references.size(), 1u);
  EXPECT_EQ(prog->references[0].target, "/pinned.png");
  // The borrowed view still points into the original buffer.
  const char* t = prog->references[0].target.data();
  EXPECT_GE(t, raw->data());
  EXPECT_LT(t, raw->data() + raw->size());
}

TEST_F(ParseCacheTest, ClearReleasesEntriesButNotOutstandingArtifacts) {
  auto css = shared("body { background: url(\"/bg.png\"); }");
  auto refs = ParseCache::instance().css(*css, css);
  ASSERT_EQ(ParseCache::instance().size(), 1u);
  ParseCache::instance().clear();
  EXPECT_EQ(ParseCache::instance().size(), 0u);
  // The artifact (and, via our own `css` pointer, its backing string)
  // remains usable.
  ASSERT_EQ(refs->size(), 1u);
  EXPECT_EQ((*refs)[0].target, "/bg.png");
}

TEST_F(ParseCacheTest, RepeatPassOverReplayedCorpusAddsOnlyHits) {
  // Entries live until clear(): every string a load scans is owned by the
  // corpus (or by the proxy's bundle parts), so a second pass over the
  // same corpus finds every artifact already cached and inserts nothing.
  replay::ReplayStore store;
  std::vector<const WebPage*> pages;
  for (std::uint64_t seed = 31; seed <= 32; ++seed) {
    PageSpec spec;
    spec.site = "cache" + std::to_string(seed) + ".example.com";
    spec.object_count = 12;
    spec.total_bytes = util::kib(160);
    spec.seed = seed;
    store.record(PageGenerator::generate(spec));
    pages.push_back(store.find("http://" + spec.site + "/"));
    ASSERT_NE(pages.back(), nullptr);
  }
  const core::Scheme schemes[] = {
      core::Scheme::kDir,        core::Scheme::kHttpProxy,
      core::Scheme::kSpdyProxy,  core::Scheme::kParcelInd,
      core::Scheme::kParcelOnld, core::Scheme::kParcel512K,
      core::Scheme::kParcel1M,   core::Scheme::kParcel2M,
      core::Scheme::kCloudBrowser, core::Scheme::kParcelAdaptive};
  auto pass = [&] {
    for (core::Scheme scheme : schemes) {
      for (const WebPage* page : pages) {
        core::RunConfig cfg;
        cfg.seed = 7;
        EXPECT_TRUE(core::ExperimentRunner::run(scheme, *page, cfg).ok);
      }
    }
  };
  pass();
  const std::size_t entries = ParseCache::instance().size();
  const ParseCache::Stats first = ParseCache::instance().stats();
  ASSERT_GT(entries, 0u);
  pass();
  const ParseCache::Stats second = ParseCache::instance().stats();
  EXPECT_EQ(ParseCache::instance().size(), entries);
  EXPECT_EQ(second.misses(), first.misses());
  EXPECT_GT(second.hits(), first.hits());
}

TEST_F(ParseCacheTest, CssCommentPathReturnsViewsIntoOriginal) {
  auto css = shared(
      "/* lead */ .a { background: url(/one.png); }\n"
      ".b { background: url(/two.png); } /* tail */");
  auto refs = ParseCache::instance().css(*css, css);
  ASSERT_EQ(refs->size(), 2u);
  for (const Reference& r : *refs) {
    // Comment stripping works on a local copy; the returned views must
    // be mapped back into the cached original, never the scratch copy.
    EXPECT_GE(r.target.data(), css->data());
    EXPECT_LT(r.target.data(), css->data() + css->size());
  }
  EXPECT_EQ((*refs)[0].target, "/one.png");
  EXPECT_EQ((*refs)[1].target, "/two.png");
}

TEST_F(ParseCacheTest, ConcurrentRequestsShareOneScan) {
  auto doc = shared(
      "<img src=\"/a.png\"><script src=\"/s.js\"></script>"
      "<link rel=\"stylesheet\" href=\"/s.css\">");
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const std::vector<HtmlToken>>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        results[static_cast<std::size_t>(i)] =
            ParseCache::instance().html(*doc, doc);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(i)].get());
  }
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_misses, 1u);
  EXPECT_EQ(s.html_hits, static_cast<std::uint64_t>(kThreads - 1));
}

// --- URL interning ----------------------------------------------------

TEST(UrlInterning, IdsAreDeterministicAndComponentSensitive) {
  net::Url a = net::Url::parse("http://site.example/p/q?x=1");
  net::Url b = net::Url::parse("http://site.example/p/q?x=1");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.normalized_id(), b.normalized_id());
  // Query participates in id() but not normalized_id().
  net::Url c = net::Url::parse("http://site.example/p/q?x=2");
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(a.normalized_id(), c.normalized_id());
  // Scheme participates in id().
  net::Url d = net::Url::parse("https://site.example/p/q?x=1");
  EXPECT_NE(a.id(), d.id());
  // Component boundaries matter: host "site.example/p" + path "/q" must
  // not collide with host "site.example" + path "/p/q".
  net::Url e = net::Url::parse("http://site.example/pq?x=1");
  EXPECT_NE(a.id(), e.id());
}

TEST(UrlInterning, ResolveRefreshesIds) {
  net::Url base = net::Url::parse("http://site.example/dir/page.html");
  net::Url rel = base.resolve("../img/i.png?r=7");
  net::Url direct = net::Url::parse("http://site.example/img/i.png?r=7");
  EXPECT_EQ(rel.id(), direct.id());
  EXPECT_EQ(rel.normalized_id(), direct.normalized_id());
  EXPECT_EQ(net::Url{}.id(), net::Url{}.id());
}

TEST(UrlInterning, NormalizedIdMatchesWithoutQueryIntern) {
  net::Url u = net::Url::parse("http://site.example/a/b?r=123");
  EXPECT_EQ(u.normalized_id().v, net::intern_key(u.without_query()));
}

}  // namespace
}  // namespace parcel::web
