#include "net/http.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace parcel::net {

namespace {
// Typical mobile request head: method line, host, user-agent, accept,
// cookies. The constant matters only as uplink radio payload.
constexpr Bytes kRequestBaseBytes = 420;
constexpr Bytes kResponseHeaderBytes = 320;
}  // namespace

Bytes HttpRequest::wire_size() const {
  return kRequestBaseBytes + static_cast<Bytes>(url.str_size()) +
         static_cast<Bytes>(user_agent.size()) +
         static_cast<Bytes>(screen_info.size()) + body_bytes;
}

Bytes HttpResponse::wire_size() const {
  return kResponseHeaderBytes + (has_body() ? body_bytes : 0);
}

HttpConnection::HttpConnection(sim::Scheduler& sched, Path path,
                               HttpEndpoint& endpoint, TcpParams params,
                               std::uint32_t conn_id, int max_in_flight)
    : sched_(sched),
      endpoint_(endpoint),
      tcp_(sched, std::move(path), params, conn_id),
      max_in_flight_(max_in_flight) {
  if (max_in_flight_ < 1) {
    throw std::invalid_argument("HttpConnection: max_in_flight must be >= 1");
  }
}

void HttpConnection::fetch(HttpRequest request, std::uint32_t object_id,
                           ResponseCallback on_response) {
  if (pool_ != nullptr && !busy()) ++pool_->busy_connections_;
  queue_.push_back(std::make_shared<Flight>(
      Flight{std::move(request), object_id, std::move(on_response), {}}));
  pump();
}

void HttpConnection::pump() {
  if (in_flight_ >= max_in_flight_ || queue_.empty()) return;
  if (!connected_) {
    if (!connecting_) {
      connecting_ = true;
      tcp_.connect([this] {
        connected_ = true;
        connecting_ = false;
        pump();
      });
    }
    return;
  }

  ++in_flight_;
  std::shared_ptr<Flight> flight = std::move(queue_.front());
  queue_.pop_front();

  const Bytes req_bytes = flight->request.wire_size();
  const std::uint32_t object_id = flight->object_id;
  tcp_.send_to_server(req_bytes, object_id, [this, flight](TimePoint) {
    endpoint_.handle(flight->request, [this, flight](HttpResponse response) {
      flight->response.emplace(std::move(response));
      tcp_.stream_to_client(
          flight->response->wire_size(), flight->object_id,
          [this, flight](TimePoint) {
            --in_flight_;
            if (pool_ != nullptr && !busy()) --pool_->busy_connections_;
            flight->on_response(*flight->response);
            if (pool_ != nullptr) pool_->dispatch_all();
            pump();
          });
    });
  });
  // Multiplexed mode issues further requests without waiting.
  pump();
}

HttpClientPool::HttpClientPool(sim::Scheduler& sched, PathFactory path_factory,
                               EndpointResolver endpoint_resolver,
                               ConnIdAllocator conn_ids, TcpParams params,
                               int max_conns_per_domain,
                               int max_total_connections)
    : sched_(sched),
      path_factory_(std::move(path_factory)),
      endpoint_resolver_(std::move(endpoint_resolver)),
      conn_ids_(std::move(conn_ids)),
      params_(params),
      max_conns_per_domain_(max_conns_per_domain),
      max_total_connections_(max_total_connections) {
  if (max_conns_per_domain_ < 1 || max_total_connections_ < 1) {
    throw std::invalid_argument("HttpClientPool: need at least 1 connection");
  }
}

std::uint64_t HttpClientPool::retransmits() const {
  std::uint64_t n = 0;
  for (const auto& state : by_name_) {
    for (const auto& c : state->conns) {
      n += c->tcp().retransmits();
    }
  }
  return n;
}

HttpClientPool::DomainState& HttpClientPool::domain_state(const Url& url) {
  auto hit = by_host_.find(url.host_id());
  if (hit != by_host_.end() && hit->second->name == url.host()) {
    return *hit->second;
  }
  // A new domain, or one whose host id collides with a known domain's.
  auto pos = std::lower_bound(
      by_name_.begin(), by_name_.end(), url.host(),
      [](const auto& state, const std::string& name) {
        return state->name < name;
      });
  if (pos != by_name_.end() && (*pos)->name == url.host()) return **pos;
  DomainState& state = **by_name_.insert(
      pos, std::make_unique<DomainState>(DomainState{url.host(), {}, {}}));
  by_host_.emplace(url.host_id(), &state);  // a collision keeps the first
  return state;
}

void HttpClientPool::dispatch_all() {
  // Indexed rather than range-for: safe even if a dispatch added a domain.
  for (std::size_t i = 0; i < by_name_.size(); ++i) {
    // Past the global cap every dispatch() would return at once.
    if (backlogged_domains_ == 0 || at_global_cap()) return;
    if (!by_name_[i]->backlog.empty()) dispatch(*by_name_[i]);
  }
}

void HttpClientPool::fetch(HttpRequest request, std::uint32_t object_id,
                           HttpConnection::ResponseCallback on_response) {
  DomainState& state = domain_state(request.url);
  if (state.backlog.empty()) ++backlogged_domains_;
  state.backlog.push_back(
      Queued{std::move(request), object_id, std::move(on_response)});
  dispatch(state);
}

void HttpClientPool::dispatch(DomainState& state) {
  while (!state.backlog.empty()) {
    // Browsers cap concurrent connections globally as well as per domain.
    if (at_global_cap()) return;
    // Prefer an idle existing connection.
    HttpConnection* conn = nullptr;
    for (auto& c : state.conns) {
      if (!c->busy()) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr &&
        state.conns.size() < static_cast<std::size_t>(max_conns_per_domain_)) {
      HttpEndpoint* endpoint = endpoint_resolver_(state.name);
      if (endpoint == nullptr) {
        throw std::runtime_error("HttpClientPool: unknown domain " +
                                 state.name);
      }
      state.conns.push_back(std::make_unique<HttpConnection>(
          sched_, path_factory_(state.name), *endpoint, params_, conn_ids_()));
      state.conns.back()->pool_ = this;
      ++connections_opened_;
      conn = state.conns.back().get();
    }
    if (conn == nullptr) {
      // All connections busy and at the cap; requests wait in the backlog
      // and are re-dispatched as responses complete.
      return;
    }
    Queued next = std::move(state.backlog.front());
    state.backlog.pop_front();
    if (state.backlog.empty()) --backlogged_domains_;
    ++requests_issued_;
    peak_concurrency_ = std::max(peak_concurrency_, busy_connections_ + 1);
    conn->fetch(std::move(next.request), next.object_id,
                std::move(next.on_response));
  }
}

}  // namespace parcel::net
