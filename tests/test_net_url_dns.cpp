#include <gtest/gtest.h>

#include "net/dns.hpp"
#include "net/url.hpp"
#include "sim/scheduler.hpp"

namespace parcel::net {
namespace {

TEST(Url, ParsesFullUrl) {
  Url u = Url::parse("https://www.example.com/a/b.js?x=1&r=9");
  EXPECT_EQ(u.scheme(), "https");
  EXPECT_EQ(u.host(), "www.example.com");
  EXPECT_EQ(u.path(), "/a/b.js");
  EXPECT_EQ(u.query(), "x=1&r=9");
  EXPECT_TRUE(u.is_https());
  EXPECT_EQ(u.str(), "https://www.example.com/a/b.js?x=1&r=9");
  EXPECT_EQ(u.without_query(), "www.example.com/a/b.js");
}

TEST(Url, DefaultsSchemeAndPath) {
  Url u = Url::parse("example.com");
  EXPECT_EQ(u.scheme(), "http");
  EXPECT_EQ(u.path(), "/");
  EXPECT_FALSE(u.is_https());
}

TEST(Url, EmptyHostThrows) {
  EXPECT_THROW(Url::parse("http:///path"), std::invalid_argument);
}

TEST(Url, ResolveAbsolute) {
  Url base = Url::parse("http://a.example/dir/page.html");
  EXPECT_EQ(base.resolve("http://b.example/x").str(), "http://b.example/x");
  EXPECT_EQ(base.resolve("//c.example/y").str(), "http://c.example/y");
}

TEST(Url, ResolveAbsolutePath) {
  Url base = Url::parse("http://a.example/dir/page.html");
  EXPECT_EQ(base.resolve("/img/z.png?k=1").str(),
            "http://a.example/img/z.png?k=1");
}

TEST(Url, ResolveRelativePath) {
  Url base = Url::parse("http://a.example/dir/page.html");
  EXPECT_EQ(base.resolve("pic.png").str(), "http://a.example/dir/pic.png");
}

TEST(Url, ResolveDotSegments) {
  Url base = Url::parse("http://a.example/css/deep/style.css");
  EXPECT_EQ(base.resolve("../img.png").str(),
            "http://a.example/css/img.png");
  EXPECT_EQ(base.resolve("../../top.png").str(), "http://a.example/top.png");
  EXPECT_EQ(base.resolve("./here.png").str(),
            "http://a.example/css/deep/here.png");
  // Escaping past the root clamps at the root.
  EXPECT_EQ(base.resolve("../../../../x.png").str(),
            "http://a.example/x.png");
}

TEST(Url, EqualityAndHash) {
  Url a = Url::parse("http://x.example/p");
  Url b = Url::parse("http://x.example/p");
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<Url>{}(a), std::hash<Url>{}(b));
}

TEST(Url, DefaultIdsMatchRecomputedIds) {
  // The default Url's ids are constants; they must equal what hashing the
  // same components produces.
  Url def;
  Url recomputed = Url{}.resolve("/");
  EXPECT_EQ(recomputed, def);
  EXPECT_EQ(def.id(), recomputed.id());
  EXPECT_EQ(def.normalized_id(), recomputed.normalized_id());
  EXPECT_EQ(def.host_id(), recomputed.host_id());
  EXPECT_EQ(def.host_id().v, intern_key(""));
}

struct DnsFixture : ::testing::Test {
  sim::Scheduler sched;
  DuplexLink link{sched, "l", util::BitRate::mbps(10), util::BitRate::mbps(10),
                  util::Duration::millis(20)};
  Path path{{&link}};
};

TEST_F(DnsFixture, LookupCostsRttPlusServerLatency) {
  DnsClient dns(sched, path, util::Duration::millis(25), util::Rng(1),
                [] { return 1u; });
  double resolved_at = -1;
  dns.resolve("example.com", [&] { resolved_at = sched.now().sec(); });
  sched.run();
  EXPECT_GT(resolved_at, 0.040);  // at least one RTT
  EXPECT_EQ(dns.lookups_issued(), 1u);
}

TEST_F(DnsFixture, CacheHitIsSynchronousSecondTime) {
  DnsClient dns(sched, path, util::Duration::millis(25), util::Rng(1),
                [] { return 1u; });
  dns.resolve("example.com", [] {});
  sched.run();
  bool hit = false;
  dns.resolve("example.com", [&] { hit = true; });
  EXPECT_TRUE(hit);  // immediate, no event needed
  EXPECT_EQ(dns.cache_hits(), 1u);
  EXPECT_EQ(dns.lookups_issued(), 1u);
}

TEST_F(DnsFixture, DistinctDomainsEachLookedUp) {
  DnsClient dns(sched, path, util::Duration::millis(5), util::Rng(1),
                [] { return 1u; });
  int resolved = 0;
  dns.resolve("a.example", [&] { ++resolved; });
  dns.resolve("b.example", [&] { ++resolved; });
  sched.run();
  EXPECT_EQ(resolved, 2);
  EXPECT_EQ(dns.lookups_issued(), 2u);
}

}  // namespace
}  // namespace parcel::net
