#include "core/client.hpp"

#include <stdexcept>

#include "util/logging.hpp"

namespace parcel::core {

ParcelClientFetcher::ParcelClientFetcher(sim::Scheduler& sched, util::Rng rng,
                                         Duration local_lookup_delay)
    : sched_(sched),
      rng_(std::move(rng)),
      local_lookup_delay_(local_lookup_delay) {}

void ParcelClientFetcher::deliver(
    const web::MhtmlPart& part, web::ObjectType hint,
    std::function<void(browser::FetchResult)> on_result) {
  ++cache_hits_;
  browser::FetchResult result;
  result.url = part.location;
  result.size = part.body_size;
  result.content = part.content;
  result.status = 200;
  web::ObjectType mime_based = web::type_from_mime(part.content_type);
  bool both_js = (mime_based == web::ObjectType::kJs ||
                  mime_based == web::ObjectType::kJsAsync) &&
                 (hint == web::ObjectType::kJs ||
                  hint == web::ObjectType::kJsAsync);
  result.type = both_js ? hint : mime_based;
  sched_.schedule_after(local_lookup_delay_,
                        [result = std::move(result),
                         on_result = std::move(on_result)]() mutable {
                          on_result(std::move(result));
                        });
}

void ParcelClientFetcher::fetch(
    const net::Url& url, web::ObjectType hint, bool randomized,
    std::uint32_t object_id,
    std::function<void(browser::FetchResult)> on_result) {
  net::Url final_url = url;
  if (randomized) {
    // The client executes the same JS as the proxy; its random draw need
    // not match the proxy's (§4.5: "the object URL as determined by the
    // PARCEL browser [can] differ from that by the proxy").
    final_url = net::Url::parse(
        url.str() + (url.query().empty() ? "?r=" : "&r=") +
        std::to_string(rng_.uniform_int(100000, 999999)));
  }
  auto it = cache_.find(final_url.id());
  if (it != cache_.end()) {
    deliver(it->second, hint, std::move(on_result));
    return;
  }
  Parked parked{final_url, hint, object_id, std::move(on_result)};
  if (degraded_) {
    request_direct(std::move(parked));
  } else if (complete_noted_ || !suppression_) {
    request_fallback(std::move(parked));
  } else {
    ++suppressed_;
    parked_.push_back(std::move(parked));
  }
}

void ParcelClientFetcher::on_bundle_parts(
    std::vector<web::MhtmlPart> parts) {
  for (auto& part : parts) {
    cache_.try_emplace(part.location.id(), std::move(part));
  }
  // Release any parked request the new parts satisfy.
  for (std::size_t i = 0; i < parked_.size();) {
    auto hit = cache_.find(parked_[i].url.id());
    if (hit == cache_.end()) {
      ++i;
      continue;
    }
    Parked parked = std::move(parked_[i]);
    parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
    deliver(hit->second, parked.hint, std::move(parked.on_result));
  }
}

void ParcelClientFetcher::on_new_page() {
  if (!parked_.empty()) {
    throw std::logic_error(
        "ParcelClientFetcher::on_new_page with requests still parked");
  }
  complete_noted_ = false;
}

void ParcelClientFetcher::on_completion_note() {
  complete_noted_ = true;
  std::vector<Parked> stragglers = std::move(parked_);
  parked_.clear();
  for (auto& parked : stragglers) request_fallback(std::move(parked));
}

void ParcelClientFetcher::degrade_to_direct() {
  if (degraded_) return;
  degraded_ = true;
  // Whatever the proxy still owed us is now our own job.
  std::vector<Parked> stranded = std::move(parked_);
  parked_.clear();
  for (auto& parked : stranded) request_direct(std::move(parked));
}

void ParcelClientFetcher::request_direct(Parked parked) {
  if (!direct_fetch_) {
    throw std::logic_error("ParcelClientFetcher: direct fetch not wired");
  }
  ++direct_fetches_;
  util::log_debug("core.client", "direct fetch: " + parked.url.str());
  direct_fetch_(parked.url, parked.hint, parked.object_id,
                std::move(parked.on_result));
}

void ParcelClientFetcher::request_fallback(Parked parked) {
  if (degraded_) {
    // The proxy is presumed dead; relaying through it would hang forever.
    request_direct(std::move(parked));
    return;
  }
  if (!fallback_) {
    throw std::logic_error("ParcelClientFetcher: fallback not wired");
  }
  ++fallbacks_;
  util::log_debug("core.client", "fallback request: " + parked.url.str());
  // The response arrives as a single-part bundle whose location matches
  // the exact URL, releasing the parked entry via on_bundle_parts.
  parked_.push_back(std::move(parked));
  const Parked& p = parked_.back();
  fallback_(p.url, p.hint);
}

}  // namespace parcel::core
