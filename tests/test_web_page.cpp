#include <gtest/gtest.h>

#include <limits>

#include "net/url.hpp"
#include "web/mhtml.hpp"
#include "web/page.hpp"

namespace parcel::web {
namespace {

WebObject make_object(const std::string& url, ObjectType type, Bytes size,
                      const char* content = nullptr) {
  WebObject obj;
  obj.url = net::Url::parse(url);
  obj.type = type;
  obj.size = size;
  if (content != nullptr) {
    obj.content = std::make_shared<const std::string>(content);
    obj.size = static_cast<Bytes>(obj.content->size());
  }
  return obj;
}

TEST(WebPage, AddAndFind) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/", ObjectType::kHtml, 0, "<html>"));
  page.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 1000));
  EXPECT_EQ(page.object_count(), 2u);
  EXPECT_NE(page.find(net::Url::parse("http://a.example/x.jpg")), nullptr);
  EXPECT_EQ(page.find(net::Url::parse("http://a.example/missing.jpg")),
            nullptr);
  EXPECT_EQ(page.main().type, ObjectType::kHtml);
}

TEST(WebPage, DuplicateUrlThrows) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 10));
  EXPECT_THROW(
      page.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 10)),
      std::invalid_argument);
}

TEST(WebPage, FindIgnoresQueryOnMiss) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/api.json", ObjectType::kJson, 500));
  const WebObject* hit =
      page.find(net::Url::parse("http://a.example/api.json?r=12345"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->url.str(), "http://a.example/api.json");
}

TEST(WebPage, AggregatesSizesAndDomains) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/", ObjectType::kHtml, 100));
  page.add(make_object("http://cdn.example/i.jpg", ObjectType::kImage, 900));
  WebObject late = make_object("http://ads.example/ad.js", ObjectType::kJsAsync,
                               50, "compute(0.1);");
  late.post_onload = true;
  Bytes late_size = late.size;
  page.add(std::move(late));
  EXPECT_EQ(page.total_bytes(), 1000 + late_size);
  EXPECT_EQ(page.onload_bytes(), 1000);
  EXPECT_EQ(page.count_of(ObjectType::kImage), 1u);
  EXPECT_EQ(page.domain_names().size(), 3u);
  EXPECT_EQ(page.objects_on("cdn.example").size(), 1u);
}

TEST(WebPage, MissingMainThrows) {
  WebPage page(net::Url::parse("http://a.example/"));
  EXPECT_THROW((void)page.main(), std::logic_error);
}

TEST(WebObject, TextRequiresContent) {
  WebObject obj = make_object("http://a.example/i.jpg", ObjectType::kImage, 9);
  EXPECT_THROW((void)obj.text(), std::logic_error);
  WebObject js = make_object("http://a.example/a.js", ObjectType::kJs, 0,
                             "compute(1);");
  EXPECT_EQ(js.text(), "compute(1);");
}

TEST(ObjectType, MimeRoundTrip) {
  for (ObjectType t : {ObjectType::kHtml, ObjectType::kCss, ObjectType::kJs,
                       ObjectType::kImage, ObjectType::kFont,
                       ObjectType::kJson, ObjectType::kMedia}) {
    EXPECT_EQ(type_from_mime(mime_type(t)), t) << to_string(t);
  }
  // Async JS shares the JS MIME type; the hint disambiguates elsewhere.
  EXPECT_EQ(type_from_mime(mime_type(ObjectType::kJsAsync)), ObjectType::kJs);
}

TEST(Mhtml, WriterRoundTripsTextAndOpaque) {
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/app.js", ObjectType::kJs, 0,
                         "compute(2);\nfetch(\"http://a.example/d.json\");"));
  writer.add(make_object("http://cdn.example/pic.jpg", ObjectType::kImage,
                         5000));
  EXPECT_EQ(writer.part_count(), 2u);
  EXPECT_GT(writer.payload_bytes(), 5000);

  std::string wire = writer.serialize();
  auto parts = MhtmlReader::parse(wire);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].location.str(), "http://a.example/app.js");
  ASSERT_NE(parts[0].content, nullptr);
  EXPECT_NE(parts[0].content->find("compute(2);"), std::string::npos);
  EXPECT_EQ(parts[1].content, nullptr);  // opaque body
  EXPECT_EQ(parts[1].body_size, 5000);
  EXPECT_EQ(parts[1].content_type, "image/jpeg");
}

TEST(Mhtml, WireSizeIsSerializedLength) {
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 1234));
  std::string wire = writer.serialize();
  // Framing overhead exists but is modest.
  EXPECT_GT(wire.size(), 1234u);
  EXPECT_LT(wire.size(), 1234u + 400u);
}

TEST(Mhtml, EmptyBundleSerializesTerminatorOnly) {
  MhtmlWriter writer;
  auto parts = MhtmlReader::parse(writer.serialize());
  EXPECT_TRUE(parts.empty());
}

TEST(Mhtml, MalformedInputThrows) {
  EXPECT_THROW(MhtmlReader::parse("no boundary here"), std::invalid_argument);
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 100));
  std::string wire = writer.serialize();
  EXPECT_THROW(MhtmlReader::parse(wire.substr(0, wire.size() / 2)),
               std::invalid_argument);
}

// One text part and one opaque part, both ways: the encoded bundle and
// the full document.
struct TwoForms {
  MhtmlBundle wire;
  std::string doc;
};

TwoForms two_part_bundle() {
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/a.css", ObjectType::kCss, 0,
                         "body{}"));
  writer.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 300));
  TwoForms forms;
  forms.doc = writer.serialize();
  forms.wire = std::move(writer).encode();
  return forms;
}

// Replaces the header line "Content-Length: <from>" in `text` with
// `line` (which may be empty, dropping the header). The text part's
// length is 6, the opaque part's 300.
void rewrite_length(std::string& text, const std::string& from,
                    const std::string& line) {
  const std::string old = "Content-Length: " + from + "\r\n";
  const auto at = text.find(old);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, old.size(), line);
}

TEST(Mhtml, EncodedBundleDecodesByReference) {
  auto body = std::make_shared<const std::string>("body{}");
  MhtmlWriter writer;
  writer.add_raw(net::Url::parse("http://a.example/a.css"), "text/css", 6,
                 body);
  writer.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 300));
  const std::string doc = writer.serialize();
  MhtmlBundle wire = std::move(writer).encode();
  EXPECT_EQ(wire.wire_size(), static_cast<Bytes>(doc.size()));
  EXPECT_EQ(wire.framing.find(std::string(300, 'x')),
            std::string::npos);  // no filler built
  auto parts = MhtmlReader::decode(std::move(wire));
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].content.get(), body.get());  // the writer's own string
  EXPECT_EQ(parts[1].content, nullptr);
  EXPECT_EQ(parts[1].body_size, 300);
}

TEST(Mhtml, RejectsNonNumericContentLength) {
  TwoForms forms = two_part_bundle();
  rewrite_length(forms.doc, "6", "Content-Length: 6abc\r\n");
  rewrite_length(forms.wire.framing, "6", "Content-Length: 6abc\r\n");
  EXPECT_THROW(MhtmlReader::parse(forms.doc), std::invalid_argument);
  EXPECT_THROW(MhtmlReader::decode(std::move(forms.wire)),
               std::invalid_argument);
}

TEST(Mhtml, RejectsNegativeContentLength) {
  TwoForms forms = two_part_bundle();
  rewrite_length(forms.doc, "6", "Content-Length: -6\r\n");
  rewrite_length(forms.wire.framing, "6", "Content-Length: -6\r\n");
  EXPECT_THROW(MhtmlReader::parse(forms.doc), std::invalid_argument);
  EXPECT_THROW(MhtmlReader::decode(std::move(forms.wire)),
               std::invalid_argument);
}

TEST(Mhtml, RejectsMissingContentLength) {
  TwoForms forms = two_part_bundle();
  rewrite_length(forms.doc, "6", "");
  rewrite_length(forms.wire.framing, "6", "");
  EXPECT_THROW(MhtmlReader::parse(forms.doc), std::invalid_argument);
  EXPECT_THROW(MhtmlReader::decode(std::move(forms.wire)),
               std::invalid_argument);
}

TEST(Mhtml, RejectsTextPartWithoutBody) {
  TwoForms forms = two_part_bundle();
  forms.wire.text_bodies.clear();
  EXPECT_THROW(MhtmlReader::decode(std::move(forms.wire)),
               std::invalid_argument);
  TwoForms null_body = two_part_bundle();
  null_body.wire.text_bodies[0] = nullptr;
  EXPECT_THROW(MhtmlReader::decode(std::move(null_body.wire)),
               std::invalid_argument);
}

TEST(Mhtml, RejectsBodySizeMismatch) {
  TwoForms forms = two_part_bundle();
  forms.wire.text_bodies[0] = std::make_shared<const std::string>("body{ }");
  EXPECT_THROW(MhtmlReader::decode(std::move(forms.wire)),
               std::invalid_argument);
}

TEST(Mhtml, RejectsContentLengthSumTheFramingDisagreesWith) {
  TwoForms forms = two_part_bundle();
  forms.wire.content_length_sum += 1;
  EXPECT_THROW(MhtmlReader::decode(std::move(forms.wire)),
               std::invalid_argument);
  TwoForms huge = two_part_bundle();
  const std::string max = std::to_string(std::numeric_limits<Bytes>::max());
  // 6 + INT64_MAX: the sum of the two lengths overflows.
  rewrite_length(huge.wire.framing, "300", "Content-Length: " + max + "\r\n");
  EXPECT_THROW(MhtmlReader::decode(std::move(huge.wire)),
               std::invalid_argument);
}

TEST(Mhtml, RejectsBodiesLeftOver) {
  TwoForms forms = two_part_bundle();
  forms.wire.text_bodies.push_back(
      std::make_shared<const std::string>("extra"));
  EXPECT_THROW(MhtmlReader::decode(std::move(forms.wire)),
               std::invalid_argument);
}

}  // namespace
}  // namespace parcel::web
