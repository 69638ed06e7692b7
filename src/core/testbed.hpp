// Testbed: the experiment topology (paper §7).
//
//   client ==radio(LTE/RRC/fade)== EPC ==core== internet ==slink(d)== origin d
//            \== proxy_access == PARCEL/CB proxy ==egress==/
//            \== dns_link == resolver
//
// The proxy sits just behind the EPC ("deployed similar to middle-boxes
// within the cellular network"); origins are one configurable "dummynet"
// delay away (default 10 ms one-way = the paper's 20 ms RTT), or
// heterogeneous per-domain delays for the real-web-server experiments
// (§8.4). Every burst crossing the radio is tapped into a PacketTrace —
// the phone-side capture all metrics derive from.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lte/radio_link.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scheduler.hpp"
#include "trace/packet_trace.hpp"
#include "web/origin_server.hpp"
#include "web/page.hpp"

namespace parcel::core {

struct TestbedConfig {
  lte::RadioParams radio;
  /// Signal fading; disabled (std::nullopt) for controlled replay runs.
  std::optional<lte::FadeProcess::Params> fade;
  std::uint64_t fade_seed = 1;
  /// Deterministic fade trajectory (ISSUE 10): takes precedence over the
  /// seeded AR(1) `fade` when set, so the adaptive-bundling sweeps pit
  /// every scheme against the *same* bandwidth timeline.
  std::optional<lte::FadeSpec> fade_profile;

  util::BitRate core_rate = util::BitRate::mbps(1000);
  util::Duration core_delay = util::Duration::millis(5);
  util::BitRate server_rate = util::BitRate::mbps(200);
  /// One-way proxy/core <-> origin delay (the dummynet knob; 10 ms
  /// one-way = the paper's default 20 ms RTT).
  util::Duration server_delay = util::Duration::millis(10);
  /// §8.4 real-server mode: per-domain one-way delays drawn uniformly
  /// from this range instead of the fixed `server_delay`.
  bool heterogeneous_server_delays = false;
  util::Duration server_delay_min = util::Duration::millis(5);
  util::Duration server_delay_max = util::Duration::millis(60);
  std::uint64_t topology_seed = 7;

  util::Duration proxy_access_delay = util::Duration::millis(5);
  util::BitRate proxy_access_rate = util::BitRate::mbps(1000);
  util::Duration dns_access_delay = util::Duration::millis(3);

  /// Injected faults (validated in the Testbed constructor). Disabled by
  /// default: no injector state is consulted and runs stay byte-identical
  /// to a fault-free build.
  sim::FaultPlan faults;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  /// Host all of a page's domains on origin servers (callable multiple
  /// times for multi-page sessions). The page must outlive the testbed.
  void host_page(const web::WebPage& page);

  /// Register a proxy-style endpoint (the CB proxy) reachable from the
  /// client at `domain`, colocated with the PARCEL proxy.
  void register_proxy_endpoint(const std::string& domain,
                               net::HttpEndpoint& endpoint);

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] trace::PacketTrace& client_trace() { return trace_; }
  [[nodiscard]] const lte::RrcMachine& rrc() const { return *radio_.rrc; }
  [[nodiscard]] const lte::FadeProcess* fade() const {
    return radio_.fade.get();
  }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }
  [[nodiscard]] web::OriginServer* origin(const std::string& domain);
  /// Null when the run's fault plan is disabled.
  [[nodiscard]] net::FaultInjector* faults() { return faults_.get(); }

  /// Domain name under which the PARCEL proxy is routed from the client.
  static constexpr const char* kProxyDomain = "parcel.proxy";

 private:
  net::DuplexLink& server_link(net::UrlId id, const std::string& domain);

  TestbedConfig config_;
  sim::Scheduler sched_;
  net::Network network_;
  trace::PacketTrace trace_;
  util::Rng topo_rng_;
  std::unique_ptr<net::FaultInjector> faults_;

  lte::RadioLink radio_{};
  net::DuplexLink* radio_link_ = nullptr;
  net::DuplexLink* core_ = nullptr;
  net::DuplexLink* proxy_access_ = nullptr;
  net::DuplexLink* proxy_egress_ = nullptr;
  net::DuplexLink* dns_link_ = nullptr;
  net::DuplexLink* proxy_dns_link_ = nullptr;

  // Keyed by interned domain id (ISSUE 7 satellite): the hosting loop
  // walks page.domain_ids() and probes these without rebuilding host
  // strings. Never iterated — lookup/insert only — so the unordered
  // bucket order cannot reach any result.
  std::unordered_map<net::UrlId, net::DuplexLink*, net::UrlIdHash>
      server_links_;
  std::unordered_map<net::UrlId, std::unique_ptr<web::OriginServer>,
                     net::UrlIdHash>
      origins_;
};

}  // namespace parcel::core
