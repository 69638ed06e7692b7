// MHTML bundle codec (paper §5.1).
//
// PARCEL transfers objects from proxy to client as MHTML: a multipart
// document where each part carries the object's HTTP headers
// (Content-Location, Content-Type, Content-Length, X-Parcel-Body)
// followed by its body.
//
// A bundle crosses the simulated radio as an MhtmlBundle: the framing
// (MIME header, boundary lines and every part's headers) is real bytes,
// and each text body travels by reference — the proxy's own
// shared_ptr<const std::string>, moved through in part order, never
// copied. Opaque bodies (images) are never built: only their
// Content-Length counts, as only their size matters. The wire size is
// framing plus the sum of Content-Lengths, which is byte for byte the
// size of the full document serialize() writes. The client therefore
// receives the very strings the proxy engine scanned, so its parse cache
// hits (DESIGN.md §6).
//
// serialize()/parse(std::string) are the reference full-document form of
// the same format (text inline, opaque bodies as filler of the right
// length), walked by the same header code. They exist for perfbench's
// web.mhtml_* probes and for the test that pins the two forms equal.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/url.hpp"
#include "web/object.hpp"

namespace parcel::web {

struct MhtmlPart {
  net::Url location;
  std::string content_type;
  Bytes body_size = 0;
  /// Body text for parseable types; null for opaque bodies.
  std::shared_ptr<const std::string> content;
};

/// A bundle as it crosses the radio: framing bytes plus text bodies by
/// reference (see the file comment).
struct MhtmlBundle {
  /// The full document minus every body's bytes.
  std::string framing;
  /// One body per text part, in part order.
  std::vector<std::shared_ptr<const std::string>> text_bodies;
  /// Sum of every part's Content-Length, opaque parts included.
  Bytes content_length_sum = 0;

  /// The exact wire size: equals serialize().size() of the same parts.
  [[nodiscard]] Bytes wire_size() const {
    return static_cast<Bytes>(framing.size()) + content_length_sum;
  }
};

class MhtmlWriter {
 public:
  void add(const WebObject& object);
  void add_raw(const net::Url& location, const std::string& content_type,
               Bytes body_size, std::shared_ptr<const std::string> content);

  [[nodiscard]] std::size_t part_count() const { return parts_.size(); }
  [[nodiscard]] bool empty() const { return parts_.empty(); }

  /// Total payload bytes (bodies only, before MHTML framing).
  [[nodiscard]] Bytes payload_bytes() const;

  /// The bundle as sent: the text bodies move out of this writer.
  [[nodiscard]] MhtmlBundle encode() &&;

  /// Reference full-document form; the string's size is the wire size.
  [[nodiscard]] std::string serialize() const;

  void clear() { parts_.clear(); }

 private:
  std::vector<MhtmlPart> parts_;
};

class MhtmlReader {
 public:
  /// Unpack an encoded bundle, pairing each text part with the next body.
  /// Throws std::invalid_argument on framing errors, on a Content-Length
  /// that is missing, negative or not a plain decimal, on a text part
  /// without a body, on a body whose size is not its Content-Length, on
  /// bodies left over, and on a content_length_sum the framing disagrees
  /// with.
  static std::vector<MhtmlPart> decode(MhtmlBundle bundle);

  /// Parse a serialized full document. Throws std::invalid_argument on
  /// framing errors (missing boundary / truncated part) and on a bad
  /// Content-Length, as decode() does.
  static std::vector<MhtmlPart> parse(const std::string& text);
};

}  // namespace parcel::web
