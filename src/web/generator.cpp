#include "web/generator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "util/strings.hpp"
#include "web/css.hpp"
#include "web/js.hpp"

namespace parcel::web {

namespace {

using util::Rng;
using util::ssprintf;

/// Internal build-time descriptor; index into the descriptor vector is the
/// object's identity while wiring the dependency tree.
struct Node {
  ObjectType type = ObjectType::kImage;
  std::string url;
  int parent = -1;  // index of the referencing object; -1 = main HTML
  bool async_subtree = false;
  bool randomized = false;
  Bytes size = 0;
  double js_work = 0.0;
  std::vector<int> children;
};

Bytes sample_size(Rng& rng, ObjectType type) {
  // Mixture tuned so that, after the per-page rescale to the page byte
  // budget, corpus-wide object sizes roughly track the paper's
  // p50/p80/p95 of 18/107/386 KB.
  switch (type) {
    case ObjectType::kHtml:
      return static_cast<Bytes>(rng.lognormal(std::log(100e3), 0.5));
    case ObjectType::kCss:
      return static_cast<Bytes>(rng.lognormal(std::log(45e3), 0.7));
    case ObjectType::kJs:
    case ObjectType::kJsAsync:
      return static_cast<Bytes>(rng.lognormal(std::log(55e3), 0.9));
    case ObjectType::kImage: {
      double r = rng.uniform(0.0, 1.0);
      if (r < 0.62) return static_cast<Bytes>(rng.lognormal(std::log(22e3), 0.9));
      if (r < 0.92) return static_cast<Bytes>(rng.lognormal(std::log(170e3), 0.6));
      return static_cast<Bytes>(rng.lognormal(std::log(600e3), 0.5));
    }
    case ObjectType::kFont:
      return static_cast<Bytes>(rng.lognormal(std::log(70e3), 0.4));
    case ObjectType::kJson:
      return static_cast<Bytes>(rng.lognormal(std::log(12e3), 0.8));
    case ObjectType::kMedia:
      return static_cast<Bytes>(rng.lognormal(std::log(1200e3), 0.5));
  }
  return 10'000;
}

std::string pad_block(std::string_view open, std::string_view fill,
                      std::string_view close, std::size_t target) {
  std::string out(open);
  if (out.size() + close.size() < target) {
    // `fill` repeated, the last copy cut short, up to target - close.size().
    // Doubling the run already written takes O(log n) copies, not one
    // append per fill (hundreds of thousands on a multi-MB object).
    const std::size_t len = target - close.size() - open.size();
    out.reserve(target);
    out.resize(open.size() + len);
    char* run = out.data() + open.size();
    std::size_t done = std::min(fill.size(), len);
    std::copy_n(fill.data(), done, run);
    while (done < len) {
      const std::size_t n = std::min(done, len - done);
      std::copy_n(run, n, run + done);
      done += n;
    }
  }
  out += close;
  return out;
}

}  // namespace

PageSpec PageGenerator::interactive_spec(std::uint64_t seed) {
  PageSpec spec;
  spec.site = "shop.example.com";
  spec.object_count = 120;
  spec.total_bytes = mib(2.4);
  spec.extra_domains = 8;
  spec.gallery_items = 8;
  spec.seed = seed;
  return spec;
}

PageSpec PageGenerator::heavyweight_spec(std::uint64_t seed) {
  PageSpec spec;
  spec.site = "megamart.example.com";
  spec.object_count = 400;
  spec.total_bytes = mib(3.5);
  spec.extra_domains = 12;
  spec.seed = seed;
  return spec;
}

PageSpec PageGenerator::sample_spec(int index) {
  PageSpec spec;
  spec.site = ssprintf("site%02d.example.com", index);
  double z_count = corpus_rng_.normal(0.0, 1.0);
  spec.object_count = static_cast<int>(
      std::clamp(88.0 * std::exp(0.62 * z_count), 15.0, 450.0));
  double z_size =
      0.7 * z_count + 0.714 * corpus_rng_.normal(0.0, 1.0);
  spec.total_bytes = static_cast<Bytes>(std::clamp(
      1.04e6 * std::exp(0.85 * z_size), 60e3, 5.0e6));
  spec.extra_domains =
      static_cast<int>(corpus_rng_.uniform_int(3, 12));
  spec.sync_js_fraction = corpus_rng_.uniform(0.45, 0.7);
  spec.seed = corpus_rng_.next_u64();
  return spec;
}

PageSpec PageGenerator::live_variant(const PageSpec& base, int reload) {
  PageSpec spec = base;
  util::Rng rng(base.seed ^ (0x9e3779b97f4a7c15ULL * (reload + 1)));
  // Ads/widgets rotate: the object census swings around the base census
  // hard enough to reproduce the paper's CoV >= 0.5 observation.
  double count_factor = std::exp(rng.normal(0.0, 0.5));
  double size_factor = std::exp(rng.normal(0.0, 0.45));
  spec.object_count = std::clamp(
      static_cast<int>(base.object_count * count_factor), 10, 600);
  spec.total_bytes = std::clamp<Bytes>(
      static_cast<Bytes>(static_cast<double>(base.total_bytes) * size_factor),
      50'000, 8'000'000);
  spec.seed = rng.next_u64();
  return spec;
}

WebPage PageGenerator::follow_page(const WebPage& first, std::uint64_t seed,
                                   int index) {
  Rng rng(seed ^ (0xabcdef1234567ULL + static_cast<std::uint64_t>(index)));
  std::string site = first.main_url().host();
  net::Url main_url =
      net::Url::parse(ssprintf("http://%s/p%d.html", site.c_str(), index));
  WebPage page(main_url);

  // Framework assets carried over from the landing page, plus their
  // transitive dependencies (a shared stylesheet pulls its images and
  // fonts; a shared script pulls what it loads).
  std::vector<const WebObject*> roots;
  for (const WebObject* obj : first.objects()) {
    if (obj->type == ObjectType::kCss ||
        (obj->type == ObjectType::kJs && rng.bernoulli(0.7))) {
      roots.push_back(obj);
    }
  }
  std::vector<const WebObject*> work(roots);
  std::set<std::string> included;
  while (!work.empty()) {
    const WebObject* obj = work.back();
    work.pop_back();
    if (!included.insert(obj->url.str()).second) continue;
    page.add(*obj);
    std::vector<Reference> refs;
    if (obj->type == ObjectType::kCss) {
      refs = MiniCss::scan(obj->text());
    } else if (obj->type == ObjectType::kJs ||
               obj->type == ObjectType::kJsAsync) {
      refs = MiniJs::run(obj->text()).references;
    }
    for (const Reference& ref : refs) {
      const WebObject* child = first.find(obj->url.resolve(ref.target));
      if (child != nullptr) work.push_back(child);
    }
  }

  // Fresh content unique to this page: article images (modest sizes —
  // interior pages are lighter than landing pages).
  std::vector<std::string> new_imgs;
  int image_count = 6 + static_cast<int>(rng.uniform_int(0, 10));
  for (int i = 0; i < image_count; ++i) {
    WebObject img;
    img.url = net::Url::parse(
        ssprintf("http://%s/p%d/img%02d.jpg", site.c_str(), index, i));
    img.type = ObjectType::kImage;
    img.size = std::clamp<Bytes>(sample_size(rng, ObjectType::kImage), 3'000,
                                 kib(35));
    img.server_think =
        Duration::millis(std::clamp(rng.exponential(45.0), 5.0, 250.0));
    new_imgs.push_back(img.url.str());
    page.add(std::move(img));
  }

  // The new main document referencing shared assets + fresh images.
  std::string text = "<!DOCTYPE html>\n<html>\n<head>\n";
  text += ssprintf("<title>%s page %d</title>\n", site.c_str(), index);
  int head_scripts = 0;
  for (const WebObject* obj : roots) {
    if (obj->type == ObjectType::kCss) {
      text += ssprintf("<link rel=\"stylesheet\" href=\"%s\">\n",
                       obj->url.str().c_str());
    } else if (head_scripts < 3) {
      text += ssprintf("<script src=\"%s\"></script>\n",
                       obj->url.str().c_str());
      ++head_scripts;
    }
  }
  text += "</head>\n<body>\n";
  for (const std::string& img : new_imgs) {
    text += ssprintf("<img src=\"%s\">\n", img.c_str());
  }
  int body_scripts = 0;
  for (const WebObject* obj : roots) {
    if (obj->type != ObjectType::kCss && body_scripts++ >= head_scripts &&
        // Only re-reference top-level scripts; chained ones arrive via
        // their parents' loadScript calls.
        obj->url.path().find("/js/") == 0) {
      text += ssprintf("<script src=\"%s\"></script>\n",
                       obj->url.str().c_str());
    }
  }
  text += "</body>\n</html>\n";
  WebObject html;
  html.url = main_url;
  html.type = ObjectType::kHtml;
  Bytes target = std::max<Bytes>(static_cast<Bytes>(text.size()), kib(35));
  if (static_cast<Bytes>(text.size()) < target) {
    text += "\n";
    text += pad_block("<!-- ", "filler filler ", " -->",
                      static_cast<std::size_t>(target) - text.size() - 1);
  }
  html.size = static_cast<Bytes>(text.size());
  html.content = std::make_shared<const std::string>(std::move(text));
  html.server_think = Duration::millis(30);
  page.add(std::move(html));
  return page;
}

std::vector<PageSpec> PageGenerator::corpus_specs(int pages) {
  std::vector<PageSpec> specs;
  specs.reserve(static_cast<std::size_t>(pages));
  for (int i = 0; i < pages; ++i) specs.push_back(sample_spec(i));
  return specs;
}

std::string_view to_string(PageMix mix) {
  switch (mix) {
    case PageMix::kAlexa34: return "alexa34";
    case PageMix::kAdHeavy: return "ad-heavy";
    case PageMix::kSpa: return "spa";
    case PageMix::kLargeObject: return "large-object";
  }
  return "?";
}

std::vector<PageSpec> PageGenerator::mix_specs(PageMix mix, int pages) {
  if (mix == PageMix::kAlexa34) return corpus_specs(pages);
  if (pages <= 0) {
    throw std::invalid_argument("mix_specs: pages must be positive");
  }
  std::vector<PageSpec> specs;
  specs.reserve(static_cast<std::size_t>(pages));
  for (int i = 0; i < pages; ++i) {
    PageSpec spec;
    switch (mix) {
      case PageMix::kAdHeavy:
        // Ad/tracker-saturated front page: hundreds of small objects
        // spread across third-party domains, mostly async widget JS.
        // Many tiny objects -> bundle boundaries are cheap to hit and
        // the per-bundle RRC stalls dominate.
        spec.site = ssprintf("ads%02d.example.com", i);
        spec.object_count =
            static_cast<int>(corpus_rng_.uniform_int(160, 380));
        spec.total_bytes = static_cast<Bytes>(
            corpus_rng_.uniform(1.2e6, 3.2e6));
        spec.extra_domains =
            static_cast<int>(corpus_rng_.uniform_int(14, 24));
        spec.sync_js_fraction = corpus_rng_.uniform(0.2, 0.35);
        spec.max_js_chain_depth = 3;
        break;
      case PageMix::kSpa:
        // Single-page app shell: a lean object census but long
        // synchronous script chains — discovery is serialized behind JS
        // execution, so bytes trickle into the proxy.
        spec.site = ssprintf("spa%02d.example.com", i);
        spec.object_count =
            static_cast<int>(corpus_rng_.uniform_int(18, 42));
        spec.total_bytes = static_cast<Bytes>(
            corpus_rng_.uniform(0.5e6, 1.4e6));
        spec.extra_domains =
            static_cast<int>(corpus_rng_.uniform_int(2, 5));
        spec.sync_js_fraction = corpus_rng_.uniform(0.8, 0.95);
        spec.max_js_chain_depth = 8;
        break;
      case PageMix::kLargeObject:
        // Hero-asset page: a handful of multi-MB media objects; the
        // page budget dwarfs any fixed threshold, so serialization wait
        // dominates the schedule.
        spec.site = ssprintf("big%02d.example.com", i);
        spec.object_count =
            static_cast<int>(corpus_rng_.uniform_int(10, 24));
        spec.total_bytes = static_cast<Bytes>(
            corpus_rng_.uniform(3.0e6, 7.5e6));
        spec.extra_domains =
            static_cast<int>(corpus_rng_.uniform_int(1, 4));
        spec.sync_js_fraction = corpus_rng_.uniform(0.3, 0.5);
        spec.max_js_chain_depth = 4;
        break;
      case PageMix::kAlexa34:
        break;  // handled above
    }
    spec.seed = corpus_rng_.next_u64();
    specs.push_back(std::move(spec));
  }
  return specs;
}

WebPage PageGenerator::generate(const PageSpec& spec) {
  if (spec.object_count < 8) {
    throw std::invalid_argument("PageSpec: need at least 8 objects");
  }
  Rng rng(spec.seed);

  // --- Domains ------------------------------------------------------
  std::vector<std::string> domains{spec.site};
  const char* templates[] = {"cdn.%s",     "static.%s",  "img.%s",
                             "api.%s",     "media.%s",   "assets.%s"};
  const char* third_party[] = {"ads.adnet.example",  "widgets.social.example",
                               "metrics.tracker.example",
                               "fonts.cdnlib.example"};
  int extra = std::max(1, spec.extra_domains);
  for (int i = 0; i < extra; ++i) {
    if (i < static_cast<int>(std::size(templates))) {
      domains.push_back(ssprintf(templates[i], spec.site.c_str()));
    } else {
      std::size_t tp = static_cast<std::size_t>(i) % std::size(third_party);
      std::string candidate = third_party[tp];
      if (std::find(domains.begin(), domains.end(), candidate) ==
          domains.end()) {
        domains.push_back(candidate);
      }
    }
  }
  std::string ads_domain = "ads.adnet.example";
  if (std::find(domains.begin(), domains.end(), ads_domain) == domains.end()) {
    domains.push_back(ads_domain);
  }

  auto content_domain = [&](ObjectType t) -> const std::string& {
    switch (t) {
      case ObjectType::kHtml:
        return domains[0];
      case ObjectType::kCss:
      case ObjectType::kJs:
      case ObjectType::kJsAsync: {
        // main or static-ish domains
        std::size_t i = static_cast<std::size_t>(rng.uniform_int(
            0, std::min<std::int64_t>(2, static_cast<std::int64_t>(domains.size()) - 1)));
        return domains[i];
      }
      case ObjectType::kJson:
        return domains[std::min<std::size_t>(4, domains.size() - 1)];
      default: {
        std::size_t i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(domains.size()) - 1));
        return domains[i];
      }
    }
  };

  // --- Object census -------------------------------------------------
  int n = spec.object_count;
  int css_count = std::clamp(static_cast<int>(std::lround(n * 0.06)), 2, 10);
  int js_total = std::clamp(static_cast<int>(std::lround(n * 0.22)), 4, 70);
  int sync_js = std::max(2, static_cast<int>(std::lround(
                                js_total * spec.sync_js_fraction)));
  int async_js = std::max(1, js_total - sync_js);
  js_total = sync_js + async_js;
  int json_count = std::clamp(static_cast<int>(std::lround(n * 0.05)), 1, 14);
  int font_count = std::clamp(static_cast<int>(std::lround(n * 0.03)), 0, 6);
  int image_count =
      n - 1 - css_count - js_total - json_count - font_count;
  if (image_count < 1) {
    image_count = 1;
  }

  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(n) + 4);

  auto add_node = [&](ObjectType type, const char* dir, const char* ext,
                      int parent) -> int {
    Node node;
    node.type = type;
    int id = static_cast<int>(nodes.size());
    node.url = ssprintf("http://%s/%s/o%03d.%s",
                        content_domain(type).c_str(), dir, id, ext);
    node.parent = parent;
    node.size = std::max<Bytes>(400, sample_size(rng, type));
    nodes.push_back(std::move(node));
    if (parent >= 0) nodes[static_cast<std::size_t>(parent)].children.push_back(id);
    return id;
  };

  // Root HTML (index 0).
  {
    Node root;
    root.type = ObjectType::kHtml;
    root.url = ssprintf("http://%s/", spec.site.c_str());
    root.size = std::max<Bytes>(8'000, sample_size(rng, ObjectType::kHtml));
    nodes.push_back(std::move(root));
  }

  std::vector<int> css_ids, sync_js_ids, async_js_ids;
  for (int i = 0; i < css_count; ++i) {
    int parent = 0;
    // Some stylesheets arrive via @import from earlier ones — another
    // sequential-discovery chain DIR pays RTTs for.
    if (i >= 2 && rng.bernoulli(0.3)) {
      parent = css_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(css_ids.size()) - 1))];
    }
    css_ids.push_back(add_node(ObjectType::kCss, "css", "css", parent));
  }
  for (int i = 0; i < sync_js; ++i) {
    int parent = 0;
    // Chain: later sync scripts are often loaded by earlier ones
    // (loadScript), creating the multi-RTT discovery the paper blames
    // for flat segments in DIR's timeline (Fig 6a).
    if (i >= 2 && rng.bernoulli(0.65)) {
      parent = sync_js_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sync_js_ids.size()) - 1))];
      // Cap chain depth.
      int depth = 0;
      for (int p = parent; p > 0; p = nodes[static_cast<std::size_t>(p)].parent) ++depth;
      if (depth >= spec.max_js_chain_depth) parent = 0;
    }
    sync_js_ids.push_back(add_node(ObjectType::kJs, "js", "js", parent));
  }
  for (int i = 0; i < async_js; ++i) {
    int id = add_node(ObjectType::kJsAsync, "js", "js", 0);
    nodes[static_cast<std::size_t>(id)].async_subtree = true;
    // Ads and widgets live on third-party domains.
    nodes[static_cast<std::size_t>(id)].url =
        ssprintf("http://%s/js/ad%03d.js", ads_domain.c_str(), id);
    async_js_ids.push_back(id);
  }
  for (int i = 0; i < font_count; ++i) {
    int parent = css_ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(css_ids.size()) - 1))];
    add_node(ObjectType::kFont, "fonts", "woff2", parent);
  }
  for (int i = 0; i < json_count; ++i) {
    bool via_async = !async_js_ids.empty() && rng.bernoulli(0.35);
    const auto& pool = via_async ? async_js_ids : sync_js_ids;
    int parent = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    int id = add_node(ObjectType::kJson, "api", "json", parent);
    nodes[static_cast<std::size_t>(id)].randomized = rng.bernoulli(0.2);
  }
  for (int i = 0; i < image_count; ++i) {
    // Most images hide behind CSS and JS on modern pages — the browser
    // only learns about them after fetching and processing those parents.
    double r = rng.uniform(0.0, 1.0);
    int parent = 0;
    if (r < 0.35 || css_ids.empty()) {
      parent = 0;
    } else if (r < 0.60) {
      parent = css_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(css_ids.size()) - 1))];
    } else if (r < 0.90 && !sync_js_ids.empty()) {
      parent = sync_js_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sync_js_ids.size()) - 1))];
    } else if (!async_js_ids.empty()) {
      parent = async_js_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(async_js_ids.size()) - 1))];
    }
    add_node(ObjectType::kImage, "img", "jpg", parent);
  }

  // Gallery for the interactive experiment: a sync script that fetches
  // product images via document.write and registers click handlers over
  // them, so clicks resolve locally from cache (PARCEL/DIR) or remotely
  // (CB).
  int gallery_js = -1;
  std::vector<int> gallery_imgs;
  if (spec.gallery_items > 0) {
    gallery_js = add_node(ObjectType::kJs, "js", "js", 0);
    for (int i = 0; i < spec.gallery_items; ++i) {
      int id = add_node(ObjectType::kImage, "img", "jpg", gallery_js);
      nodes[static_cast<std::size_t>(id)].size =
          std::max<Bytes>(nodes[static_cast<std::size_t>(id)].size, kib(120));
      gallery_imgs.push_back(id);
    }
  }

  // Propagate async_subtree down the tree (children of async scripts are
  // the paper's post-onload objects).
  for (auto& node : nodes) {
    int p = node.parent;
    while (p >= 0) {
      if (nodes[static_cast<std::size_t>(p)].async_subtree) {
        node.async_subtree = true;
        break;
      }
      p = nodes[static_cast<std::size_t>(p)].parent;
    }
  }

  // --- Rescale sizes to the page budget -------------------------------
  Bytes raw_total = 0;
  for (const auto& node : nodes) raw_total += node.size;
  double scale = static_cast<double>(spec.total_bytes) /
                 static_cast<double>(raw_total);
  scale = std::clamp(scale, 0.1, 10.0);
  for (auto& node : nodes) {
    node.size = std::max<Bytes>(
        300, static_cast<Bytes>(static_cast<double>(node.size) * scale));
  }

  // --- Emit content ----------------------------------------------------
  auto url_of = [&](int id) { return nodes[static_cast<std::size_t>(id)].url; };

  auto pad_to = [](std::string text, Bytes target, std::string_view open,
                   std::string_view fill, std::string_view close) {
    if (static_cast<Bytes>(text.size()) < target) {
      auto pad = static_cast<std::size_t>(target) - text.size();
      if (pad > open.size() + close.size() + 1) {
        text += "\n";
        text += pad_block(open, fill, close, pad - 1);
      } else {
        text.append(pad, ' ');
      }
    }
    return text;
  };

  WebPage page(net::Url::parse(ssprintf("http://%s/", spec.site.c_str())));

  for (std::size_t idx = 0; idx < nodes.size(); ++idx) {
    Node& node = nodes[idx];
    WebObject obj;
    obj.url = net::Url::parse(node.url);
    obj.type = node.type;
    obj.post_onload = node.async_subtree;
    obj.server_think = Duration::millis(
        std::clamp(rng.exponential(45.0), 5.0, 250.0));

    std::string text;
    switch (node.type) {
      case ObjectType::kHtml: {
        text += "<!DOCTYPE html>\n<html>\n<head>\n";
        text += ssprintf("<title>%s</title>\n", spec.site.c_str());
        for (int child : node.children) {
          const Node& c = nodes[static_cast<std::size_t>(child)];
          switch (c.type) {
            case ObjectType::kCss:
              text += ssprintf(
                  "<link rel=\"stylesheet\" href=\"%s\">\n", c.url.c_str());
              break;
            default:
              break;
          }
        }
        // Head scripts: the first few sync scripts block early parsing,
        // as on real pages (frameworks loaded in <head>).
        constexpr int kHeadScripts = 4;
        int head_emitted = 0;
        for (int child : node.children) {
          const Node& c = nodes[static_cast<std::size_t>(child)];
          if (c.type == ObjectType::kJs && head_emitted < kHeadScripts) {
            text += ssprintf("<script src=\"%s\"></script>\n", c.url.c_str());
            ++head_emitted;
          }
        }
        text += "</head>\n<body>\n";
        text += "<script>\ncompute(0.5);\n</script>\n";
        for (int child : node.children) {
          const Node& c = nodes[static_cast<std::size_t>(child)];
          switch (c.type) {
            case ObjectType::kImage:
              text += ssprintf("<img src=\"%s\">\n", c.url.c_str());
              break;
            case ObjectType::kMedia:
              text += ssprintf("<video src=\"%s\"></video>\n", c.url.c_str());
              break;
            default:
              break;
          }
        }
        int body_emitted = 0;
        for (int child : node.children) {
          const Node& c = nodes[static_cast<std::size_t>(child)];
          if (c.type == ObjectType::kJs) {
            if (body_emitted++ < 4) continue;  // already in head
            text += ssprintf("<script src=\"%s\"></script>\n", c.url.c_str());
          } else if (c.type == ObjectType::kJsAsync) {
            text += ssprintf("<script async src=\"%s\"></script>\n",
                             c.url.c_str());
          }
        }
        text += "</body>\n</html>\n";
        text = pad_to(std::move(text), node.size, "<!-- ",
                      "filler filler filler ", " -->");
        break;
      }
      case ObjectType::kCss: {
        text += ssprintf("/* stylesheet %03zu */\n", idx);
        text += "body { margin: 0; font-family: sans-serif; }\n";
        for (int child : node.children) {
          const Node& c = nodes[static_cast<std::size_t>(child)];
          if (c.type == ObjectType::kCss) {
            text += ssprintf("@import url(\"%s\");\n", c.url.c_str());
          } else if (c.type == ObjectType::kFont) {
            text += ssprintf(
                "@font-face { font-family: f%d; src: url(\"%s\"); }\n", child,
                c.url.c_str());
          } else {
            text += ssprintf(".bg%d { background-image: url(\"%s\"); }\n",
                             child, c.url.c_str());
          }
        }
        text = pad_to(std::move(text), node.size, "/* ", "filler ", " */");
        break;
      }
      case ObjectType::kJs:
      case ObjectType::kJsAsync: {
        text += ssprintf("// module o%03zu\n", idx);
        // Computation proportional to code size: ~0.09 units per KB puts
        // client-side JS time in the couple-of-seconds range per typical
        // page on a 12-units/s handset, a 2013-era figure.
        double work = static_cast<double>(node.size) / 1024.0 * 0.09;
        text += ssprintf("compute(%.3f);\n", work);
        for (int child : node.children) {
          const Node& c = nodes[static_cast<std::size_t>(child)];
          switch (c.type) {
            case ObjectType::kJs:
              text += ssprintf("loadScript(\"%s\");\n", c.url.c_str());
              break;
            case ObjectType::kJsAsync:
              text += ssprintf("loadScriptAsync(\"%s\");\n", c.url.c_str());
              break;
            case ObjectType::kJson:
              if (c.randomized) {
                text += ssprintf("fetchRand(\"%s\");\n", c.url.c_str());
              } else {
                text += ssprintf("fetch(\"%s\");\n", c.url.c_str());
              }
              break;
            case ObjectType::kImage:
            case ObjectType::kMedia:
              text += ssprintf("document.write('<img src=\"%s\">');\n",
                               c.url.c_str());
              break;
            default:
              break;
          }
        }
        if (static_cast<int>(idx) == gallery_js) {
          for (std::size_t g = 0; g < gallery_imgs.size(); ++g) {
            text += ssprintf("onClick(%zu, \"%s\");\n", g,
                             url_of(gallery_imgs[g]).c_str());
          }
        }
        text = pad_to(std::move(text), node.size, "// ", "filler ", "\n");
        break;
      }
      case ObjectType::kJson: {
        text = ssprintf("{\"id\": %zu, \"data\": [", idx);
        text = pad_to(std::move(text), node.size, "\"", "x", "\"]}");
        break;
      }
      default:
        break;  // opaque body
    }

    if (is_parseable(node.type) || node.type == ObjectType::kJson) {
      obj.size = static_cast<Bytes>(text.size());
      obj.content = std::make_shared<const std::string>(std::move(text));
      if (node.type == ObjectType::kJs || node.type == ObjectType::kJsAsync) {
        obj.js_work = MiniJs::work_of(*obj.content);
      }
    } else {
      obj.size = node.size;
    }
    page.add(std::move(obj));
  }
  return page;
}

}  // namespace parcel::web
