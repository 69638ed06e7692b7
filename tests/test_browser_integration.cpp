#include <gtest/gtest.h>

#include "browser/cloud_browser.hpp"
#include "browser/dir_browser.hpp"
#include "core/testbed.hpp"
#include "replay/replay_store.hpp"
#include "trace/trace_analyzer.hpp"
#include "web/generator.hpp"

namespace parcel::browser {
namespace {

using core::Testbed;
using core::TestbedConfig;

const web::WebPage& fixture_page() {
  static web::WebPage* page = [] {
    web::PageSpec spec;
    spec.site = "integ.example.com";
    spec.object_count = 30;
    spec.total_bytes = util::kib(400);
    spec.seed = 23;
    static replay::ReplayStore store;
    store.record(web::PageGenerator::generate(spec));
    return const_cast<web::WebPage*>(store.find("http://integ.example.com/"));
  }();
  return *page;
}

TEST(DirBrowserIntegration, LoadsEveryObjectWithClassicPattern) {
  Testbed testbed{TestbedConfig{}};
  testbed.host_page(fixture_page());
  DirConfig cfg;
  DirBrowser dir(testbed.network(), cfg, util::Rng(1));

  bool onload = false, complete = false;
  BrowserEngine::Callbacks cbs;
  cbs.on_onload = [&](util::TimePoint) { onload = true; };
  cbs.on_complete = [&](util::TimePoint) { complete = true; };
  dir.load(fixture_page().main_url(), std::move(cbs));
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));

  EXPECT_TRUE(onload);
  EXPECT_TRUE(complete);
  EXPECT_EQ(dir.engine().ledger().count(), fixture_page().object_count());
  EXPECT_EQ(dir.fetcher().requests_issued(), fixture_page().object_count());
  EXPECT_EQ(dir.fetcher().dns_lookups(), fixture_page().domain_names().size());
  // Connection count bounded by per-domain and global caps.
  EXPECT_LE(dir.fetcher().connections_opened(),
            fixture_page().domain_names().size() * 6);
  // All transfers delivered the page's bytes over the radio.
  EXPECT_GE(testbed.client_trace().downlink_bytes(),
            static_cast<util::Bytes>(fixture_page().total_bytes()));
}

TEST(DirBrowserIntegration, PoolCountersPinnedOnMultiDomainPage) {
  // Exact connection-pool counters for the fixture page, which spreads its
  // objects over several domains: how many connections the pool opened and
  // how many were ever busy at once.
  Testbed testbed{TestbedConfig{}};
  testbed.host_page(fixture_page());
  DirBrowser dir(testbed.network(), DirConfig{}, util::Rng(1));
  dir.load(fixture_page().main_url(), BrowserEngine::Callbacks{});
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
  ASSERT_GT(fixture_page().domain_names().size(), 1u);
  EXPECT_EQ(fixture_page().domain_names().size(), 8u);
  EXPECT_EQ(dir.fetcher().requests_issued(), fixture_page().object_count());
  EXPECT_EQ(dir.fetcher().connections_opened(), 15u);
  EXPECT_EQ(dir.fetcher().peak_concurrency(), 9u);
}

TEST(DirBrowserIntegration, EngineOltMatchesTraceDerivedOlt) {
  Testbed testbed{TestbedConfig{}};
  testbed.host_page(fixture_page());
  DirConfig cfg;
  DirBrowser dir(testbed.network(), cfg, util::Rng(2));
  double onload_at = -1;
  BrowserEngine::Callbacks cbs;
  cbs.on_onload = [&](util::TimePoint t) { onload_at = t.sec(); };
  dir.load(fixture_page().main_url(), std::move(cbs));
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
  ASSERT_GT(onload_at, 0);

  auto onload_ids = dir.engine().ledger().onload_ids();
  auto metrics =
      trace::TraceAnalyzer::latency_metrics(testbed.client_trace(), onload_ids);
  ASSERT_TRUE(metrics.has_value());
  // The onload event fires shortly after the last blocking object's final
  // ACK (residual parse/exec time only).
  EXPECT_NEAR(metrics->olt.sec(), onload_at, 1.0);
  EXPECT_LE(metrics->olt.sec(), onload_at);
}

TEST(CloudBrowserIntegration, LoadAndInteract) {
  Testbed testbed{TestbedConfig{}};
  web::PageSpec spec = web::PageGenerator::interactive_spec(9);
  spec.object_count = 40;
  spec.total_bytes = util::kib(600);
  web::WebPage shop = web::PageGenerator::generate(spec);
  replay::ReplayStore store;
  store.record(shop);
  const web::WebPage& page = *store.find(shop.main_url().str());
  testbed.host_page(page);

  CloudBrowserConfig cfg;
  cfg.proxy_fetch.engine.parse_bytes_per_sec = 40e6;
  cfg.proxy_fetch.engine.js_units_per_sec = 500;
  CloudBrowserProxy proxy(testbed.network(), cfg, util::Rng(1));
  testbed.register_proxy_endpoint("cb.proxy.example", proxy);
  CloudBrowserClient client(testbed.network(), "cb.proxy.example", cfg);

  bool loaded = false;
  client.load(page.main_url(), [&](util::TimePoint) { loaded = true; });
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
  ASSERT_TRUE(loaded);

  // Snapshot is compressed: fewer bytes over the radio than page bytes.
  EXPECT_LT(testbed.client_trace().downlink_bytes(),
            static_cast<util::Bytes>(page.total_bytes()));

  // A click crosses the radio: trace grows (unlike PARCEL/DIR).
  std::size_t before = testbed.client_trace().size();
  bool clicked = false;
  client.click(0, [&] { clicked = true; });
  testbed.scheduler().run_until(util::TimePoint::at_seconds(120));
  EXPECT_TRUE(clicked);
  EXPECT_GT(testbed.client_trace().size(), before);
  EXPECT_EQ(client.ledger().count(), 2u);  // snapshot + click delta
}

TEST(CloudBrowserIntegration, ClientCpuIsThin) {
  Testbed testbed{TestbedConfig{}};
  testbed.host_page(fixture_page());
  CloudBrowserConfig cfg;
  cfg.proxy_fetch.engine.parse_bytes_per_sec = 40e6;
  cfg.proxy_fetch.engine.js_units_per_sec = 500;
  CloudBrowserProxy proxy(testbed.network(), cfg, util::Rng(1));
  testbed.register_proxy_endpoint("cb.proxy.example", proxy);
  CloudBrowserClient client(testbed.network(), "cb.proxy.example", cfg);
  client.load(fixture_page().main_url(), [](util::TimePoint) {});
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));

  // Compare against a DIR load of the same page: the thin client does a
  // small fraction of the CPU work (no JS).
  Testbed testbed2{TestbedConfig{}};
  testbed2.host_page(fixture_page());
  DirConfig dir_cfg;
  dir_cfg.engine.parse_bytes_per_sec = 0.35e6;
  dir_cfg.engine.js_units_per_sec = 12;
  DirBrowser dir(testbed2.network(), dir_cfg, util::Rng(1));
  dir.load(fixture_page().main_url(), {});
  testbed2.scheduler().run_until(util::TimePoint::at_seconds(60));

  EXPECT_LT(client.cpu_busy().sec(), dir.engine().cpu_busy().sec() * 0.5);
}

}  // namespace
}  // namespace parcel::browser
