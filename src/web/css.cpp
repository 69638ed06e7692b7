#include "web/css.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace parcel::web {

namespace {

std::string_view unquote(std::string_view s) {
  s = util::trim(s);
  if (s.size() >= 2 && (s.front() == '"' || s.front() == '\'') &&
      s.back() == s.front()) {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

}  // namespace

std::vector<Reference> MiniCss::scan(std::string_view css_raw) {
  // Comments are treated as whitespace so url(...) inside them is never
  // matched. Most corpus stylesheets carry none, so the raw text is
  // scanned directly — zero copies. Otherwise a same-length blanked copy
  // drives the matching, and every extracted target is mapped back to its
  // byte range in `css_raw`: the returned views always alias the caller's
  // string, never scanner-local storage.
  std::string cleaned;
  std::string_view css = css_raw;
  if (css_raw.find("/*") != std::string_view::npos) {
    cleaned.assign(css_raw);
    std::size_t c = 0;
    while ((c = cleaned.find("/*", c)) != std::string::npos) {
      std::size_t end = cleaned.find("*/", c + 2);
      std::size_t stop = end == std::string::npos ? cleaned.size() : end + 2;
      std::fill(cleaned.begin() + c, cleaned.begin() + stop, ' ');
      c = stop;
    }
    css = cleaned;
  }
  auto original = [&](std::string_view target) {
    return css_raw.substr(
        static_cast<std::size_t>(target.data() - css.data()), target.size());
  };

  // Each token's next match is cached and searched for again only once
  // `pos` has passed it: ifind returns the first match at or after its
  // start, so a cached match at or past `pos` is still the first one.
  // Searching both from every `pos` would rescan the tail once per url(
  // on a sheet with no @import, which is quadratic.
  constexpr std::size_t npos = std::string_view::npos;
  std::vector<Reference> refs;
  std::size_t pos = 0;
  std::size_t imp = util::ifind(css, "@import");
  std::size_t url = util::ifind(css, "url(");
  while (pos < css.size()) {
    if (imp != npos && imp < pos) imp = util::ifind(css, "@import", pos);
    if (url != npos && url < pos) url = util::ifind(css, "url(", pos);
    if (imp != std::string_view::npos && (url == std::string_view::npos || imp < url)) {
      std::size_t semi = css.find(';', imp);
      if (semi == std::string_view::npos) break;
      std::string_view clause = css.substr(imp + 7, semi - imp - 7);
      // Either @import "x.css" or @import url("x.css").
      std::size_t u = util::ifind(clause, "url(");
      std::string_view target;
      if (u != std::string_view::npos) {
        std::size_t close = clause.find(')', u);
        if (close != std::string_view::npos) {
          target = unquote(clause.substr(u + 4, close - u - 4));
        }
      } else {
        target = unquote(clause);
      }
      if (!target.empty()) {
        refs.push_back(Reference{original(target), ObjectType::kCss,
                                 false, false});
      }
      pos = semi + 1;
      continue;
    }
    if (url == std::string_view::npos) break;
    std::size_t close = css.find(')', url);
    if (close == std::string_view::npos) break;
    std::string_view target = unquote(css.substr(url + 4, close - url - 4));
    if (!target.empty()) {
      refs.push_back(Reference{original(target),
                               infer_type(target, ObjectType::kImage), false,
                               false});
    }
    pos = close + 1;
  }
  return refs;
}

}  // namespace parcel::web
