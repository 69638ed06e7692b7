#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/http.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace parcel::net {
namespace {

using util::BitRate;
using util::Duration;
using util::TimePoint;

/// Endpoint answering every GET with a fixed-size body after a delay.
class FixedEndpoint final : public HttpEndpoint {
 public:
  FixedEndpoint(sim::Scheduler& sched, util::Bytes body, Duration think)
      : sched_(sched), body_(body), think_(think) {}

  void handle(const HttpRequest& request,
              std::function<void(HttpResponse)> respond) override {
    ++requests_;
    last_request = request;
    HttpResponse resp;
    resp.status = request.method == HttpMethod::kPost ? 204 : 200;
    resp.url = request.url;
    resp.body_bytes = request.method == HttpMethod::kPost ? 0 : body_;
    sched_.schedule_after(think_, [resp, respond = std::move(respond)] {
      respond(resp);
    });
  }

  int requests_ = 0;
  HttpRequest last_request;

 private:
  sim::Scheduler& sched_;
  util::Bytes body_;
  Duration think_;
};

struct HttpFixture : ::testing::Test {
  sim::Scheduler sched;
  DuplexLink link{sched, "l", BitRate::mbps(80), BitRate::mbps(80),
                  Duration::millis(10)};
  Path path{{&link}};
  TcpParams params;
};

TEST_F(HttpFixture, RequestResponseRoundTrip) {
  FixedEndpoint endpoint(sched, 50'000, Duration::millis(30));
  HttpConnection conn(sched, path, endpoint, params, 1);
  HttpRequest req;
  req.url = Url::parse("http://a.example/x.bin");
  int responses = 0;
  conn.fetch(req, 1, [&](const HttpResponse& resp) {
    ++responses;
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body_bytes, 50'000);
    EXPECT_GT(resp.wire_size(), resp.body_bytes);
  });
  sched.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(endpoint.requests_, 1);
}

TEST_F(HttpFixture, ResponsesReturnInRequestOrder) {
  FixedEndpoint endpoint(sched, 1'000, Duration::millis(5));
  HttpConnection conn(sched, path, endpoint, params, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    HttpRequest req;
    req.url = Url::parse("http://a.example/" + std::to_string(i));
    conn.fetch(req, static_cast<std::uint32_t>(i + 1),
               [&order, i](const HttpResponse&) { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(HttpFixture, PostCarriesBodyAndGets204) {
  FixedEndpoint endpoint(sched, 1'000, Duration::millis(5));
  HttpConnection conn(sched, path, endpoint, params, 1);
  HttpRequest req;
  req.method = HttpMethod::kPost;
  req.url = Url::parse("http://a.example/form");
  req.body_bytes = 2'000;
  int status = 0;
  conn.fetch(req, 1, [&](const HttpResponse& resp) { status = resp.status; });
  sched.run();
  EXPECT_EQ(status, 204);
  EXPECT_EQ(endpoint.last_request.body_bytes, 2'000);
  EXPECT_GT(endpoint.last_request.wire_size(), 2'000);
}

TEST_F(HttpFixture, PoolOpensUpToPerDomainCap) {
  FixedEndpoint endpoint(sched, 10'000, Duration::millis(50));
  Network network(sched);
  network.register_endpoint("a.example", endpoint);
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params,
      /*max_conns_per_domain=*/6, /*max_total=*/17);
  int responses = 0;
  for (int i = 0; i < 12; ++i) {
    HttpRequest req;
    req.url = Url::parse("http://a.example/" + std::to_string(i));
    pool.fetch(req, static_cast<std::uint32_t>(i + 1),
               [&](const HttpResponse&) { ++responses; });
  }
  sched.run();
  EXPECT_EQ(responses, 12);
  EXPECT_EQ(pool.connections_opened(), 6u);
  EXPECT_EQ(pool.requests_issued(), 12u);
}

TEST_F(HttpFixture, PoolHonorsGlobalCap) {
  FixedEndpoint endpoint(sched, 10'000, Duration::millis(50));
  Network network(sched);
  std::vector<std::string> domains{"a.example", "b.example", "c.example"};
  for (const auto& d : domains) network.register_endpoint(d, endpoint);
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params,
      /*max_conns_per_domain=*/6, /*max_total=*/4);
  int responses = 0;
  for (int i = 0; i < 18; ++i) {
    HttpRequest req;
    req.url = Url::parse("http://" + domains[static_cast<size_t>(i) % 3] +
                         "/" + std::to_string(i));
    pool.fetch(req, static_cast<std::uint32_t>(i + 1),
               [&](const HttpResponse&) { ++responses; });
  }
  sched.run();
  EXPECT_EQ(responses, 18);
  // The cap bounds *concurrency*; lifetime connection count may exceed it
  // as domains take turns, but never the per-domain x domain-count bound.
  EXPECT_LE(pool.peak_concurrency(), 4u);
  EXPECT_LE(pool.connections_opened(), 12u);
}

TEST_F(HttpFixture, FreedConnectionServesNameFirstBacklog) {
  // Under a global cap of one connection, every later request waits in its
  // domain's backlog. A freed connection goes to the backlogged domain
  // whose name sorts first, not to the one that asked first.
  FixedEndpoint endpoint(sched, 1'000, Duration::millis(5));
  Network network(sched);
  const std::vector<std::string> domains{"m.example", "z.example",
                                         "a.example", "k.example"};
  for (const auto& d : domains) network.register_endpoint(d, endpoint);
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params,
      /*max_conns_per_domain=*/6, /*max_total=*/1);
  std::vector<std::string> order;
  std::uint32_t object_id = 0;
  for (const auto& d : domains) {
    HttpRequest req;
    req.url = Url::parse("http://" + d + "/x");
    pool.fetch(req, ++object_id, [&order](const HttpResponse& resp) {
      order.push_back(resp.url.host());
    });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<std::string>{"m.example", "a.example",
                                             "k.example", "z.example"}));
  EXPECT_EQ(pool.peak_concurrency(), 1u);
  EXPECT_EQ(pool.connections_opened(), 4u);
}

TEST_F(HttpFixture, PoolCountersPinnedOnMultiDomainPage) {
  // A page-like request mix: waves of subresources spread over five
  // domains, two server speeds, discovered over time and partly from
  // inside response callbacks. The lifetime connection count, the
  // concurrency peak and the completion order are pinned exactly: any
  // change to how the pool picks connections or orders backlogs moves
  // them.
  FixedEndpoint fast(sched, 4'000, Duration::millis(20));
  FixedEndpoint slow(sched, 60'000, Duration::millis(80));
  Network network(sched);
  const std::vector<std::string> domains{"www.example", "cdn.example",
                                         "img.example", "ads.example",
                                         "api.example"};
  for (std::size_t i = 0; i < domains.size(); ++i) {
    network.register_endpoint(domains[i], i % 2 == 0 ? fast : slow);
  }
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params,
      /*max_conns_per_domain=*/6, /*max_total=*/9);
  std::vector<std::uint32_t> completed;
  std::uint32_t next_id = 0;
  std::function<void(std::size_t)> issue = [&](std::size_t domain) {
    const std::uint32_t id = ++next_id;
    HttpRequest req;
    req.url = Url::parse("http://" + domains[domain % domains.size()] + "/o" +
                         std::to_string(id));
    pool.fetch(req, id, [&, id, domain](const HttpResponse&) {
      completed.push_back(id);
      // Every third response discovers one more object on another domain.
      if (id % 3 == 0 && next_id < 60) issue(domain + 2);
    });
  };
  for (int wave = 0; wave < 4; ++wave) {
    sched.schedule_at(TimePoint::at_seconds(0.15 * wave), [&, wave] {
      for (std::size_t i = 0; i < 12; ++i) {
        issue(i * 7 + static_cast<std::size_t>(wave));
      }
    });
  }
  sched.run();
  ASSERT_EQ(completed.size(), static_cast<std::size_t>(next_id));
  std::uint64_t order_digest = 0;
  for (std::uint32_t id : completed) order_digest = order_digest * 131 + id;
  EXPECT_EQ(pool.requests_issued(), static_cast<std::size_t>(next_id));
  EXPECT_EQ(next_id, 61u);
  EXPECT_EQ(pool.connections_opened(), 21u);
  EXPECT_EQ(pool.peak_concurrency(), 9u);
  EXPECT_EQ(order_digest, 327870282252647433ull);
}

TEST_F(HttpFixture, PoolUnknownDomainThrows) {
  Network network(sched);
  HttpClientPool pool(
      sched, [this](const std::string&) { return path; },
      [&](const std::string& d) { return network.endpoint(d); },
      [&network]() { return network.next_conn_id(); }, params, 6, 17);
  HttpRequest req;
  req.url = Url::parse("http://nowhere.example/");
  EXPECT_THROW(pool.fetch(req, 1, [](const HttpResponse&) {}),
               std::runtime_error);
}

TEST(HttpMessage, NoContentHasNoBody) {
  HttpResponse resp;
  resp.status = 204;
  resp.body_bytes = 0;
  EXPECT_FALSE(resp.has_body());
  EXPECT_GT(resp.wire_size(), 0);
}

}  // namespace
}  // namespace parcel::net
