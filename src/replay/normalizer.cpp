#include "replay/normalizer.hpp"

#include <algorithm>
#include <functional>

#include "util/strings.hpp"

namespace parcel::replay {

namespace {

constexpr std::string_view kFetchRand = "fetchRand(";

// First "fetchRand(" at or after `pos`, or npos. Boyer-Moore-Horspool
// skips ahead by up to the needle length per probe; std::string::find
// restarts at every 'f', and page padding is mostly "filler ".
std::size_t find_fetch_rand(const std::string& content, std::size_t pos) {
  static const std::boyer_moore_horspool_searcher searcher(kFetchRand.begin(),
                                                           kFetchRand.end());
  auto hit = std::search(content.begin() + static_cast<std::ptrdiff_t>(pos),
                         content.end(), searcher);
  return hit == content.end()
             ? std::string::npos
             : static_cast<std::size_t>(hit - content.begin());
}

}  // namespace

net::Url UrlNormalizer::normalize(const net::Url& url) {
  if (url.query().empty()) return url;
  std::string kept;
  for (std::string_view param : util::split(url.query(), '&')) {
    if (param.starts_with("r=")) continue;
    if (!kept.empty()) kept += "&";
    kept += std::string(param);
  }
  std::string rebuilt = url.scheme() + "://" + url.host() + url.path();
  if (!kept.empty()) rebuilt += "?" + kept;
  return net::Url::parse(rebuilt);
}

std::string UrlNormalizer::normalize_js(const std::string& content) {
  static constexpr std::string_view kTo = "fetch(";
  std::string out;
  out.reserve(content.size());
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t hit = find_fetch_rand(content, pos);
    if (hit == std::string::npos) {
      out.append(content, pos, content.size() - pos);
      break;
    }
    out.append(content, pos, hit - pos);
    out.append(kTo);
    pos = hit + kFetchRand.size();
  }
  // Preserve the wire size: replacing shrinks the text, pad with spaces.
  if (out.size() < content.size()) out.append(content.size() - out.size(), ' ');
  return out;
}

bool UrlNormalizer::has_randomized_fetch(const std::string& content) {
  return find_fetch_rand(content, 0) != std::string::npos;
}

}  // namespace parcel::replay
