#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace parcel::util {

namespace {

// ASCII-only case folding: bytes >= 0x80 never fold. This is what
// std::tolower does in the "C" locale, minus the per-byte libc call and
// the dependence on whatever locale the process happens to run under.
constexpr unsigned char fold(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u >= 'A' && u <= 'Z' ? static_cast<unsigned char>(u + 32) : u;
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool starts_with_ignore_case(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  return iequals(s.substr(0, prefix.size()), prefix);
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(fold(c));
  return out;
}

std::size_t ifind(std::string_view hay, std::string_view needle,
                  std::size_t pos) {
  constexpr std::size_t npos = std::string_view::npos;
  const std::size_t n = needle.size();
  if (n == 0) return pos <= hay.size() ? pos : npos;
  if (hay.size() < n || pos > hay.size() - n) return npos;
  // Candidates are the positions of either case of the needle's first
  // byte; memchr finds them, and each case's next hit is cached until the
  // scan passes it, so every byte is searched once per case.
  const char* base = hay.data();
  const std::size_t end = hay.size() - n + 1;  // one past the last start
  const unsigned char lower = fold(needle[0]);
  const unsigned char upper =
      lower >= 'a' && lower <= 'z' ? static_cast<unsigned char>(lower - 32)
                                   : lower;
  auto next = [&](unsigned char c, std::size_t from) {
    const void* hit = std::memchr(base + from, c, end - from);
    return hit == nullptr ? npos
                          : static_cast<std::size_t>(
                                static_cast<const char*>(hit) - base);
  };
  std::size_t lo = next(lower, pos);
  std::size_t up = upper == lower ? npos : next(upper, pos);
  const std::string_view rest = needle.substr(1);
  while (lo != npos || up != npos) {
    const std::size_t i = std::min(lo, up);
    if (iequals(hay.substr(i + 1, n - 1), rest)) return i;
    if (i == lo) lo = next(lower, i + 1);
    if (i == up) up = next(upper, i + 1);
  }
  return npos;
}

std::string format_bytes(long long bytes) {
  char buf[64];
  double b = static_cast<double>(bytes);
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%lld B", bytes);
  } else if (bytes < 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / (1024.0 * 1024.0));
  }
  return buf;
}

std::string ssprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace parcel::util
