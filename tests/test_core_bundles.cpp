#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "core/bundle_scheduler.hpp"
#include "core/experiment.hpp"

namespace parcel::core {
namespace {

struct Capture {
  std::vector<web::MhtmlWriter> bundles;
  BundleScheduler::Sink sink() {
    return [this](web::MhtmlWriter b) { bundles.push_back(std::move(b)); };
  }
  std::size_t total_parts() const {
    std::size_t n = 0;
    for (const auto& b : bundles) n += b.part_count();
    return n;
  }
};

void feed(BundleScheduler& sched, const std::string& url, util::Bytes size) {
  sched.on_object(net::Url::parse(url), web::ObjectType::kImage, size,
                  nullptr);
}

TEST(BundleScheduler, IndFlushesEveryObjectImmediately) {
  Capture cap;
  BundleScheduler sched(BundleConfig::ind(), cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  feed(sched, "http://a.example/2.jpg", 1000);
  EXPECT_EQ(cap.bundles.size(), 2u);
  EXPECT_EQ(cap.total_parts(), 2u);
  sched.on_page_complete();
  EXPECT_EQ(cap.bundles.size(), 2u);  // nothing pending
}

TEST(BundleScheduler, OnloadHoldsUntilOnloadEvent) {
  Capture cap;
  BundleScheduler sched(BundleConfig::onload(), cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  feed(sched, "http://a.example/2.jpg", 1000);
  EXPECT_TRUE(cap.bundles.empty());
  EXPECT_EQ(sched.pending_bytes(), 2000);
  sched.on_proxy_onload();
  ASSERT_EQ(cap.bundles.size(), 1u);
  EXPECT_EQ(cap.bundles[0].part_count(), 2u);
  // Post-onload stragglers wait for the completion flush.
  feed(sched, "http://a.example/late.jpg", 500);
  EXPECT_EQ(cap.bundles.size(), 1u);
  sched.on_page_complete();
  ASSERT_EQ(cap.bundles.size(), 2u);
  EXPECT_EQ(cap.bundles[1].part_count(), 1u);
}

TEST(BundleScheduler, ThresholdFlushesAtX) {
  Capture cap;
  BundleScheduler sched(BundleConfig::with_threshold(2500), cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  feed(sched, "http://a.example/2.jpg", 1000);
  EXPECT_TRUE(cap.bundles.empty());
  feed(sched, "http://a.example/3.jpg", 1000);  // crosses 2500
  ASSERT_EQ(cap.bundles.size(), 1u);
  EXPECT_EQ(cap.bundles[0].part_count(), 3u);
}

TEST(BundleScheduler, ThresholdAlsoFlushesAtOnload) {
  Capture cap;
  BundleScheduler sched(BundleConfig::with_threshold(1'000'000), cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  sched.on_proxy_onload();
  EXPECT_EQ(cap.bundles.size(), 1u);
}

TEST(BundleScheduler, CompleteFlushesRemainderOnce) {
  Capture cap;
  BundleScheduler sched(BundleConfig::with_threshold(10'000), cap.sink());
  feed(sched, "http://a.example/1.jpg", 1000);
  sched.on_page_complete();
  EXPECT_EQ(cap.bundles.size(), 1u);
  sched.on_page_complete();  // idempotent on empty
  EXPECT_EQ(cap.bundles.size(), 1u);
  EXPECT_EQ(sched.bundles_sent(), 1u);
}

TEST(BundleScheduler, ValidatesConfig) {
  Capture cap;
  EXPECT_THROW(BundleScheduler(BundleConfig::with_threshold(0), cap.sink()),
               std::invalid_argument);
  EXPECT_THROW(BundleScheduler(BundleConfig::ind(), nullptr),
               std::invalid_argument);
}

TEST(BundleConfig, Names) {
  EXPECT_EQ(BundleConfig::ind().name(), "PARCEL(IND)");
  EXPECT_EQ(BundleConfig::onload().name(), "PARCEL(ONLD)");
  EXPECT_EQ(BundleConfig::with_threshold(util::kib(512)).name(),
            "PARCEL(512K)");
  EXPECT_EQ(BundleConfig::with_threshold(util::mib(2)).name(), "PARCEL(2M)");
}

// Every bundle the proxy's scheduler cuts from the alexa34 corpus and the
// large-object mix, under every fixed bundling policy: the encoded form's
// wire size is the full document's size byte for byte, and decoding it
// yields what parsing the full document yields, part for part.
TEST(MhtmlEquivalence, EncodedBundlesMatchSerializedDocumentsAcrossCorpus) {
  const bench::Corpus corpora[] = {
      bench::build_corpus(34),
      bench::build_corpus(16, 2014, web::PageMix::kLargeObject)};
  std::size_t bundles = 0;
  std::size_t text_parts = 0;
  for (const auto& corpus : corpora) {
    for (Scheme scheme : {Scheme::kParcelInd, Scheme::kParcelOnld,
                          Scheme::kParcel512K, Scheme::kParcel1M,
                          Scheme::kParcel2M}) {
      for (const web::WebPage* page : corpus.replayed) {
        Capture cap;
        BundleScheduler sched(bundle_for(scheme), cap.sink());
        for (bool post : {false, true}) {
          for (const web::WebObject* o : page->objects()) {
            if (o->post_onload != post) continue;
            sched.on_object(o->url, o->type, o->size, o->content);
          }
          if (!post) sched.on_proxy_onload();
        }
        sched.on_page_complete();
        for (auto& writer : cap.bundles) {
          const std::string doc = writer.serialize();
          const auto reference = web::MhtmlReader::parse(doc);
          web::MhtmlBundle wire = std::move(writer).encode();
          ASSERT_EQ(wire.wire_size(), static_cast<util::Bytes>(doc.size()));
          const auto parts = web::MhtmlReader::decode(std::move(wire));
          ASSERT_EQ(parts.size(), reference.size());
          for (std::size_t i = 0; i < parts.size(); ++i) {
            EXPECT_EQ(parts[i].location.str(), reference[i].location.str());
            EXPECT_EQ(parts[i].content_type, reference[i].content_type);
            EXPECT_EQ(parts[i].body_size, reference[i].body_size);
            ASSERT_EQ(parts[i].content == nullptr,
                      reference[i].content == nullptr);
            if (parts[i].content) {
              EXPECT_EQ(*parts[i].content, *reference[i].content);
              ++text_parts;
            }
          }
          ++bundles;
        }
      }
    }
  }
  EXPECT_GT(bundles, 1000u);
  EXPECT_GT(text_parts, 1000u);
}

}  // namespace
}  // namespace parcel::core
