#include "web/mhtml.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/strings.hpp"

namespace parcel::web {

namespace {
constexpr std::string_view kDelim = "------=_ParcelBundleBoundary";
constexpr std::string_view kHeader =
    "MIME-Version: 1.0\r\n"
    "Content-Type: multipart/related; boundary=\"----=_ParcelBundleBoundary\"\r\n"
    "\r\n";
static_assert(kHeader.find(kDelim.substr(2)) != std::string_view::npos);

// Boundary line and headers of one part, through the blank line that
// precedes its body.
void append_part_head(std::string& out, const MhtmlPart& p) {
  char digits[24];
  const auto len = std::to_chars(digits, digits + sizeof digits, p.body_size);
  out += kDelim;
  out += "\r\nContent-Location: ";
  out += p.location.str();
  out += "\r\nContent-Type: ";
  out += p.content_type;
  out += "\r\nContent-Length: ";
  out.append(digits, len.ptr);
  out += p.content ? "\r\nX-Parcel-Body: text\r\n\r\n"
                   : "\r\nX-Parcel-Body: opaque\r\n\r\n";
}

// Writes the document, calling `body(out, part)` where each part's body
// goes.
template <typename Body>
std::string write(const std::vector<MhtmlPart>& parts, Body&& body) {
  std::string out(kHeader);
  for (const auto& p : parts) {
    append_part_head(out, p);
    body(out, p);
    out += "\r\n";
  }
  out += kDelim;
  out += "--\r\n";
  return out;
}

// A Content-Length value: a plain decimal, no sign, no trailing junk
// (from_chars into an unsigned type takes no sign and no whitespace).
Bytes parse_length(std::string_view value) {
  std::uint64_t n = 0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), n);
  if (ec != std::errc{} || end != value.data() + value.size() ||
      n > static_cast<std::uint64_t>(std::numeric_limits<Bytes>::max())) {
    throw std::invalid_argument("MhtmlReader: bad Content-Length '" +
                                std::string(value) + "'");
  }
  return static_cast<Bytes>(n);
}

// The one header walker behind both reader forms. For each part it parses
// the headers, then hands the part, whether its body is text, and the
// position after the blank line to `body`, which returns the position
// where the body's terminating CRLF must follow.
template <typename Body>
std::vector<MhtmlPart> walk(std::string_view text, Body&& body) {
  std::vector<MhtmlPart> parts;
  std::size_t pos = text.find(kDelim);
  if (pos == std::string_view::npos) {
    throw std::invalid_argument("MhtmlReader: no boundary found");
  }
  while (true) {
    pos += kDelim.size();
    if (text.compare(pos, 2, "--") == 0) break;  // terminator
    if (text.compare(pos, 2, "\r\n") != 0) {
      throw std::invalid_argument("MhtmlReader: malformed boundary line");
    }
    pos += 2;
    // Headers until blank line.
    MhtmlPart part;
    bool text_body = false;
    bool has_length = false;
    while (true) {
      std::size_t eol = text.find("\r\n", pos);
      if (eol == std::string_view::npos) {
        throw std::invalid_argument("MhtmlReader: truncated headers");
      }
      std::string_view line = text.substr(pos, eol - pos);
      pos = eol + 2;
      if (line.empty()) break;
      auto colon = line.find(':');
      if (colon == std::string_view::npos) {
        throw std::invalid_argument("MhtmlReader: bad header line");
      }
      std::string_view name = line.substr(0, colon);
      std::string_view value = util::trim(line.substr(colon + 1));
      if (util::iequals(name, "Content-Location")) {
        part.location = net::Url::parse(value);
      } else if (util::iequals(name, "Content-Type")) {
        part.content_type = std::string(value);
      } else if (util::iequals(name, "Content-Length")) {
        part.body_size = parse_length(value);
        has_length = true;
      } else if (util::iequals(name, "X-Parcel-Body")) {
        text_body = !util::iequals(value, "opaque");
      }
    }
    if (!has_length) {
      throw std::invalid_argument("MhtmlReader: part without Content-Length");
    }
    pos = body(part, text_body, pos);
    if (text.compare(pos, 2, "\r\n") != 0) {
      throw std::invalid_argument("MhtmlReader: missing body terminator");
    }
    pos += 2;
    std::size_t next = text.find(kDelim, pos);
    if (next == std::string_view::npos) {
      throw std::invalid_argument("MhtmlReader: missing next boundary");
    }
    pos = next;
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace

void MhtmlWriter::add(const WebObject& object) {
  add_raw(object.url, std::string(mime_type(object.type)), object.size,
          object.content);
}

void MhtmlWriter::add_raw(const net::Url& location,
                          const std::string& content_type, Bytes body_size,
                          std::shared_ptr<const std::string> content) {
  MhtmlPart part;
  part.location = location;
  part.content_type = content_type;
  part.body_size = body_size;
  part.content = std::move(content);
  parts_.push_back(std::move(part));
}

Bytes MhtmlWriter::payload_bytes() const {
  Bytes n = 0;
  for (const auto& p : parts_) n += p.body_size;
  return n;
}

MhtmlBundle MhtmlWriter::encode() && {
  MhtmlBundle bundle;
  bundle.framing = write(parts_, [](std::string&, const MhtmlPart&) {});
  bundle.content_length_sum = payload_bytes();
  for (auto& p : parts_) {
    if (p.content) bundle.text_bodies.push_back(std::move(p.content));
  }
  parts_.clear();
  return bundle;
}

std::string MhtmlWriter::serialize() const {
  return write(parts_, [](std::string& out, const MhtmlPart& p) {
    if (p.content) {
      out += *p.content;
    } else {
      out.append(static_cast<std::size_t>(p.body_size), 'x');
    }
  });
}

std::vector<MhtmlPart> MhtmlReader::decode(MhtmlBundle bundle) {
  std::size_t next = 0;
  Bytes length_sum = 0;
  auto parts = walk(bundle.framing, [&](MhtmlPart& part, bool text_body,
                                        std::size_t pos) {
    if (part.body_size > std::numeric_limits<Bytes>::max() - length_sum) {
      throw std::invalid_argument("MhtmlReader: Content-Length sum overflows");
    }
    length_sum += part.body_size;
    if (!text_body) return pos;
    if (next == bundle.text_bodies.size() || !bundle.text_bodies[next]) {
      throw std::invalid_argument("MhtmlReader: text part without a body");
    }
    auto& content = bundle.text_bodies[next++];
    if (static_cast<Bytes>(content->size()) != part.body_size) {
      throw std::invalid_argument(
          "MhtmlReader: body size differs from Content-Length");
    }
    part.content = std::move(content);
    return pos;
  });
  if (next != bundle.text_bodies.size()) {
    throw std::invalid_argument("MhtmlReader: bodies left over");
  }
  if (length_sum != bundle.content_length_sum) {
    throw std::invalid_argument(
        "MhtmlReader: content_length_sum disagrees with the framing");
  }
  return parts;
}

std::vector<MhtmlPart> MhtmlReader::parse(const std::string& text) {
  const std::string_view doc = text;
  return walk(doc, [&](MhtmlPart& part, bool text_body, std::size_t pos) {
    const auto size = static_cast<std::size_t>(part.body_size);
    if (size > doc.size() || pos + 2 > doc.size() - size) {
      throw std::invalid_argument("MhtmlReader: truncated body");
    }
    if (text_body) {
      part.content = std::make_shared<const std::string>(doc.substr(pos, size));
    }
    return pos + size;
  });
}

}  // namespace parcel::web
