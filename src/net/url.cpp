#include "net/url.hpp"

#include <stdexcept>
#include <vector>

namespace parcel::net {

namespace {

/// Collapse "." and ".." segments (the parts of RFC 3986
/// remove_dot_segments relevant to our URLs). Absolute paths only.
std::string normalize_path(std::string_view path) {
  std::vector<std::string_view> kept;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t next = path.find('/', pos);
    std::string_view seg = next == std::string_view::npos
                               ? path.substr(pos)
                               : path.substr(pos, next - pos);
    if (seg == "..") {
      if (!kept.empty()) kept.pop_back();
    } else if (!seg.empty() && seg != ".") {
      kept.push_back(seg);
    }
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  std::string out;
  for (std::string_view seg : kept) {
    out += "/";
    out += std::string(seg);
  }
  // push_back, not = "/": assigning a literal here trips a GCC 12
  // -Wrestrict false positive (PR105329) once inlined into resolve().
  if (out.empty()) out.push_back('/');
  return out;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Component separator: a byte that cannot occur inside a component, so
/// ("ab","c") and ("a","bc") intern differently.
constexpr std::uint64_t fnv1a_sep(std::uint64_t h) {
  h ^= 0xffU;
  h *= kFnvPrime;
  return h;
}

struct Ids {
  UrlId id;
  UrlId norm_id;
  UrlId host_id;
};

constexpr Ids intern_ids(std::string_view scheme, std::string_view host,
                         std::string_view path, std::string_view query) {
  std::uint64_t h = fnv1a(kFnvOffset, scheme);
  h = fnv1a(fnv1a_sep(h), host);
  std::uint64_t host_path = fnv1a(fnv1a_sep(h), path);
  // without_query() is host + path: intern exactly that text so lookups
  // built from either side agree. host_id is the same text-interning as
  // intern_key(host()), so both probes agree.
  std::uint64_t host_only = fnv1a(kFnvOffset, host);
  return Ids{UrlId{fnv1a(fnv1a_sep(host_path), query)},
             UrlId{fnv1a(host_only, path)}, UrlId{host_only}};
}

// Ids of the default Url: the member initializers in url.hpp ("http", no
// host, "/", no query). A page load builds about a thousand default Urls,
// so these are constants rather than hashed per construction.
constexpr Ids kDefaultIds = intern_ids("http", "", "/", "");

}  // namespace

std::uint64_t intern_key(std::string_view text) {
  return fnv1a(kFnvOffset, text);
}

Url::Url()
    : id_(kDefaultIds.id),
      norm_id_(kDefaultIds.norm_id),
      host_id_(kDefaultIds.host_id) {}

void Url::refresh_ids() {
  const Ids ids = intern_ids(scheme_, host_, path_, query_);
  id_ = ids.id;
  norm_id_ = ids.norm_id;
  host_id_ = ids.host_id;
}

Url Url::parse(std::string_view text) {
  Url u;
  auto scheme_end = text.find("://");
  if (scheme_end != std::string_view::npos) {
    u.scheme_ = std::string(text.substr(0, scheme_end));
    text.remove_prefix(scheme_end + 3);
  }
  auto path_start = text.find('/');
  std::string_view host_part =
      path_start == std::string_view::npos ? text : text.substr(0, path_start);
  if (host_part.empty()) {
    throw std::invalid_argument("Url::parse: empty host in '" +
                                std::string(text) + "'");
  }
  u.host_ = std::string(host_part);
  std::string_view rest =
      path_start == std::string_view::npos ? "/" : text.substr(path_start);
  auto query_start = rest.find('?');
  if (query_start == std::string_view::npos) {
    u.path_ = std::string(rest);
  } else {
    u.path_ = std::string(rest.substr(0, query_start));
    u.query_ = std::string(rest.substr(query_start + 1));
  }
  // push_back, not = "/": see normalize_path (GCC 12 -Wrestrict FP).
  if (u.path_.empty()) u.path_.push_back('/');
  u.refresh_ids();
  return u;
}

Url Url::resolve(std::string_view ref) const {
  if (ref.find("://") != std::string_view::npos) return parse(ref);
  if (ref.starts_with("//")) return parse(scheme_ + ":" + std::string(ref));
  Url u = *this;
  u.query_.clear();
  if (ref.starts_with('/')) {
    auto q = ref.find('?');
    u.path_ = std::string(ref.substr(0, q));
    if (q != std::string_view::npos) u.query_ = std::string(ref.substr(q + 1));
    u.refresh_ids();
    return u;
  }
  // Relative path: resolve against the base directory, collapsing any
  // "./" and "../" segments.
  auto dir_end = path_.rfind('/');
  std::string dir = dir_end == std::string::npos ? "/" : path_.substr(0, dir_end + 1);
  auto q = ref.find('?');
  u.path_ = normalize_path(dir + std::string(ref.substr(0, q)));
  if (q != std::string_view::npos) u.query_ = std::string(ref.substr(q + 1));
  u.refresh_ids();
  return u;
}

std::string Url::str() const {
  std::string s = scheme_ + "://" + host_ + path_;
  if (!query_.empty()) s += "?" + query_;
  return s;
}

std::string Url::without_query() const { return host_ + path_; }

}  // namespace parcel::net
