// HTTP/1.1 semantics over the TCP model.
//
// HttpConnection is a client-side persistent connection: requests are
// serialized FIFO (no pipelining, matching deployed HTTP/1.1), responses
// stream back through TcpConnection's windowed sender. HttpClientPool
// implements the browser rule of at most N parallel connections per
// domain (the paper observes 6 for the DIR browser).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/tcp.hpp"
#include "net/url.hpp"
#include "sim/scheduler.hpp"

namespace parcel::net {

class HttpClientPool;

enum class HttpMethod : std::uint8_t { kGet, kPost };

struct HttpRequest {
  HttpMethod method = HttpMethod::kGet;
  Url url;
  /// Client attributes PARCEL forwards so the proxy can emulate the device
  /// (user-agent, screen size — §4.5 "Client properties").
  std::string user_agent = "ParcelSim/1.0";
  std::string screen_info;
  Bytes body_bytes = 0;  // POST payload

  /// Approximate on-the-wire size of the request head.
  [[nodiscard]] Bytes wire_size() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/octet-stream";
  Bytes body_bytes = 0;
  /// Actual text for parseable types (HTML/CSS/JS); null for opaque bodies
  /// (images), whose bytes only matter as transfer volume.
  std::shared_ptr<const std::string> content;
  Url url;  // final URL (after server-side routing)

  [[nodiscard]] Bytes wire_size() const;
  [[nodiscard]] bool has_body() const { return status != 204 && body_bytes > 0; }
};

/// Server application interface. Implementations (origin servers, the
/// PARCEL proxy, the replay server) receive the request and respond via
/// callback, possibly after simulated processing time.
class HttpEndpoint {
 public:
  virtual ~HttpEndpoint() = default;
  virtual void handle(const HttpRequest& request,
                      std::function<void(HttpResponse)> respond) = 0;
};

/// One persistent client connection to an endpoint.
///
/// `max_in_flight` is the number of concurrently outstanding requests:
/// 1 models HTTP/1.1 (no pipelining); larger values model SPDY-style
/// stream multiplexing over the single connection (requests issued
/// without waiting, response bytes interleaving on the wire).
class HttpConnection {
 public:
  using ResponseCallback = std::function<void(const HttpResponse&)>;

  HttpConnection(sim::Scheduler& sched, Path path, HttpEndpoint& endpoint,
                 TcpParams params, std::uint32_t conn_id,
                 int max_in_flight = 1);

  /// Issue a request; `object_id` tags the trace records of the response
  /// body.
  void fetch(HttpRequest request, std::uint32_t object_id,
             ResponseCallback on_response);

  [[nodiscard]] bool busy() const {
    return in_flight_ > 0 || !queue_.empty();
  }
  [[nodiscard]] std::uint32_t id() const { return tcp_.id(); }
  [[nodiscard]] TcpConnection& tcp() { return tcp_; }
  [[nodiscard]] const TcpConnection& tcp() const { return tcp_; }

 private:
  friend class HttpClientPool;

  /// One request's state from fetch() to its response callback: a single
  /// shared record that every continuation of the exchange captures.
  struct Flight {
    HttpRequest request;
    std::uint32_t object_id;
    ResponseCallback on_response;
    std::optional<HttpResponse> response;
  };

  void pump();

  sim::Scheduler& sched_;
  HttpEndpoint& endpoint_;
  TcpConnection tcp_;
  int max_in_flight_;
  bool connected_ = false;
  bool connecting_ = false;
  int in_flight_ = 0;
  std::deque<std::shared_ptr<Flight>> queue_;
  // The pool that opened this connection, if any: it counts busy
  // connections and re-dispatches its backlogs after each response.
  HttpClientPool* pool_ = nullptr;
};

/// Browser-style per-domain connection pool.
class HttpClientPool {
 public:
  using PathFactory = std::function<Path(const std::string& domain)>;
  using EndpointResolver = std::function<HttpEndpoint*(const std::string&)>;
  using ConnIdAllocator = std::function<std::uint32_t()>;

  HttpClientPool(sim::Scheduler& sched, PathFactory path_factory,
                 EndpointResolver endpoint_resolver, ConnIdAllocator conn_ids,
                 TcpParams params, int max_conns_per_domain,
                 int max_total_connections = 17);

  void fetch(HttpRequest request, std::uint32_t object_id,
             HttpConnection::ResponseCallback on_response);

  /// Total connections opened over the pool's lifetime (Table 1 metric).
  [[nodiscard]] std::size_t connections_opened() const {
    return connections_opened_;
  }
  [[nodiscard]] std::size_t requests_issued() const {
    return requests_issued_;
  }
  /// High-water mark of concurrently busy connections; bounded by
  /// max_total_connections.
  [[nodiscard]] std::size_t peak_concurrency() const {
    return peak_concurrency_;
  }

  /// Sum of TCP retransmissions across every connection the pool opened
  /// (zero unless the run enables loss recovery).
  [[nodiscard]] std::uint64_t retransmits() const;

 private:
  friend class HttpConnection;

  struct Queued {
    HttpRequest request;
    std::uint32_t object_id;
    HttpConnection::ResponseCallback on_response;
  };
  struct DomainState {
    std::string name;
    std::vector<std::unique_ptr<HttpConnection>> conns;
    std::deque<Queued> backlog;
  };

  DomainState& domain_state(const Url& url);
  void dispatch(DomainState& state);
  void dispatch_all();
  [[nodiscard]] bool at_global_cap() const {
    return busy_connections_ >=
           static_cast<std::size_t>(max_total_connections_);
  }

  sim::Scheduler& sched_;
  PathFactory path_factory_;
  EndpointResolver endpoint_resolver_;
  ConnIdAllocator conn_ids_;
  TcpParams params_;
  int max_conns_per_domain_;
  int max_total_connections_;
  std::size_t connections_opened_ = 0;
  std::size_t requests_issued_ = 0;
  std::size_t peak_concurrency_ = 0;
  // Connections whose busy() is true, kept by HttpConnection on every
  // idle<->busy transition.
  std::size_t busy_connections_ = 0;
  // Domains whose backlog is non-empty.
  std::size_t backlogged_domains_ = 0;
  // Domain states in name order. dispatch_all() visits backlogs in this
  // order, and it decides which backlog a freed connection serves.
  std::vector<std::unique_ptr<DomainState>> by_name_;
  // Index by Url::host_id(); a hit counts only if the name matches.
  std::unordered_map<UrlId, DomainState*, UrlIdHash> by_host_;
};

}  // namespace parcel::net
