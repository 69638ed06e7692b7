// Parse-cache benchmark: corpus scan workload + end-to-end grid effect.
//
// The evaluation grid loads every immutable page snapshot once per
// (scheme, round) pair, and each load tokenizes the same HTML/CSS/JS —
// on the client engine and again on the proxy engine. Two measurements:
//
// 1. "scan workload": the corpus's parse work replayed for the grid's
//    repetition count, fresh scans vs through web::ParseCache. This is
//    the CPU the cache removes, isolated from simulated network time.
// 2. "end-to-end": run_corpus (DIR + PARCEL(IND)) with the cache off vs
//    on, asserting the medians stay bitwise identical — the cache must
//    be invisible in results, visible only in wall-clock.
//
// Results go to stdout and BENCH_parse_cache.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "web/css.hpp"
#include "web/html.hpp"
#include "web/js.hpp"
#include "web/parse_cache.hpp"

namespace {

using namespace parcel;
// parcel-lint: allow(nondet-time) wall-clock is the measurement here: this bench times real parse/scan speedup, not simulated time
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One grid-load's worth of scanning for `page`, the way the engines do
/// it: tokenize the main document, execute every inline script body,
/// scan every stylesheet, extract references from every script. With
/// `cached` false this is the pre-cache behavior (a fresh scan each
/// time); with true, repeat loads hit the shared artifacts.
std::size_t scan_page_once(const web::WebPage& page, bool cached) {
  std::size_t scans = 0;
  for (const web::WebObject* obj : page.objects()) {
    if (!obj->content) continue;
    switch (obj->type) {
      case web::ObjectType::kHtml: {
        if (cached) {
          auto tokens = web::ParseCache::instance().html(*obj->content,
                                                         obj->content);
          for (const web::HtmlToken& t : *tokens) {
            if (t.kind == web::HtmlToken::Kind::kInlineScript) {
              (void)web::ParseCache::instance().js(t.script, obj->content);
              ++scans;
            }
          }
        } else {
          std::vector<web::HtmlToken> tokens = web::MiniHtml::scan(
              *obj->content);
          for (const web::HtmlToken& t : tokens) {
            if (t.kind == web::HtmlToken::Kind::kInlineScript) {
              (void)web::MiniJs::run(t.script);
              ++scans;
            }
          }
        }
        ++scans;
        break;
      }
      case web::ObjectType::kCss: {
        if (cached) {
          (void)web::ParseCache::instance().css(*obj->content, obj->content);
        } else {
          (void)web::MiniCss::scan(*obj->content);
        }
        ++scans;
        break;
      }
      case web::ObjectType::kJs:
      case web::ObjectType::kJsAsync: {
        if (cached) {
          (void)web::ParseCache::instance().js(*obj->content, obj->content);
        } else {
          (void)web::MiniJs::run(*obj->content);
        }
        ++scans;
        break;
      }
      default:
        break;
    }
  }
  return scans;
}

struct WorkloadResult {
  double sec = 0.0;
  std::size_t scans = 0;
};

/// The grid re-scans every page `loads_per_page` times (schemes x rounds
/// x client+proxy engines).
WorkloadResult scan_workload(const bench::Corpus& corpus, int loads_per_page,
                             bool cached) {
  WorkloadResult r;
  auto start = Clock::now();
  for (int rep = 0; rep < loads_per_page; ++rep) {
    for (const web::WebPage* page : corpus.replayed) {
      r.scans += scan_page_once(*page, cached);
    }
  }
  r.sec = seconds_since(start);
  return r;
}

bool medians_identical(const bench::PageMedians& a,
                       const bench::PageMedians& b) {
  auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] != y[i]) return false;  // bitwise: no tolerance
    }
    return true;
  };
  return same(a.olt_sec, b.olt_sec) && same(a.tlt_sec, b.tlt_sec) &&
         same(a.radio_j, b.radio_j) && same(a.cr_j, b.cr_j) &&
         same(a.requests, b.requests);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::print_header("Parse cache",
                      "corpus scan workload + end-to-end grid wall-clock");

  const int pages = opts.quick ? 6 : std::min(opts.pages, 12);
  const int rounds = std::min(opts.rounds, 2);
  bench::Corpus corpus = bench::build_corpus(pages);
  core::RunConfig cfg = bench::replay_run_config(42);

  // Loads per page across a grid: 9 schemes x rounds, and PARCEL/proxied
  // schemes parse on two engines. 2 engines x 9 schemes x rounds is the
  // upper envelope; use a conservative schemes x rounds x 2.
  const int loads_per_page = 9 * std::max(rounds, 1) * 2;

  std::printf("corpus: %d pages, %d loads/page scan workload\n\n", pages,
              loads_per_page);

  // --- 1. Scan workload: fresh every time vs memoized ------------------
  WorkloadResult fresh = scan_workload(corpus, loads_per_page, false);

  web::ParseCache::instance().clear();
  web::ParseCache::instance().reset_stats();
  web::ParseCache::set_enabled(true);
  WorkloadResult memo = scan_workload(corpus, loads_per_page, true);
  web::ParseCache::Stats ws = web::ParseCache::instance().stats();

  double workload_speedup = fresh.sec / memo.sec;
  std::printf("scan workload (%zu scans):\n", fresh.scans);
  std::printf("  fresh scans:   %.3fs\n", fresh.sec);
  std::printf("  parse cache:   %.3fs  (%.2fx)\n", memo.sec,
              workload_speedup);
  std::printf("  hit rate: %.1f%%  (html %llu/%llu, css %llu/%llu, "
              "js %llu/%llu hits/misses)\n",
              100.0 * ws.hit_rate(),
              static_cast<unsigned long long>(ws.html_hits),
              static_cast<unsigned long long>(ws.html_misses),
              static_cast<unsigned long long>(ws.css_hits),
              static_cast<unsigned long long>(ws.css_misses),
              static_cast<unsigned long long>(ws.js_hits),
              static_cast<unsigned long long>(ws.js_misses));

  // --- 2. End-to-end: the grid with the cache off vs on ----------------
  web::ParseCache::instance().clear();
  web::ParseCache::set_enabled(false);
  auto start = Clock::now();
  bench::PageMedians off_dir =
      bench::run_corpus(core::Scheme::kDir, corpus, rounds, cfg, opts.jobs);
  bench::PageMedians off_ind = bench::run_corpus(core::Scheme::kParcelInd,
                                                 corpus, rounds, cfg,
                                                 opts.jobs);
  double off_sec = seconds_since(start);

  web::ParseCache::set_enabled(true);
  web::ParseCache::instance().reset_stats();
  start = Clock::now();
  bench::PageMedians on_dir =
      bench::run_corpus(core::Scheme::kDir, corpus, rounds, cfg, opts.jobs);
  bench::PageMedians on_ind = bench::run_corpus(core::Scheme::kParcelInd,
                                                corpus, rounds, cfg,
                                                opts.jobs);
  double on_sec = seconds_since(start);
  web::ParseCache::Stats es = web::ParseCache::instance().stats();

  bool identical = medians_identical(off_dir, on_dir) &&
                   medians_identical(off_ind, on_ind);
  std::printf("\nend-to-end grid (DIR + PARCEL(IND), %d rounds, jobs=%d):\n",
              rounds, opts.jobs);
  std::printf("  cache off: %.2fs\n", off_sec);
  std::printf("  cache on:  %.2fs  (%.2fx)  hit rate %.1f%%\n", on_sec,
              off_sec / on_sec, 100.0 * es.hit_rate());
  std::printf("  medians bitwise-identical cache on/off: %s\n",
              identical ? "yes" : "NO — CACHE CHANGES RESULTS");

  FILE* json = std::fopen("BENCH_parse_cache.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "error: cannot write BENCH_parse_cache.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"host\": %s,\n", bench::host_stamp().c_str());
  std::fprintf(json, "  \"corpus\": {\"pages\": %d, \"loads_per_page\": %d},\n",
               pages, loads_per_page);
  std::fprintf(json, "  \"scan_workload\": {\n");
  std::fprintf(json, "    \"scans\": %zu,\n", fresh.scans);
  std::fprintf(json, "    \"fresh_sec\": %.4f,\n", fresh.sec);
  std::fprintf(json, "    \"cached_sec\": %.4f,\n", memo.sec);
  std::fprintf(json, "    \"speedup\": %.3f,\n", workload_speedup);
  std::fprintf(json, "    \"hit_rate\": %.4f,\n", ws.hit_rate());
  std::fprintf(json,
               "    \"per_kind\": {\"html\": {\"hits\": %llu, \"misses\": "
               "%llu}, \"css\": {\"hits\": %llu, \"misses\": %llu}, \"js\": "
               "{\"hits\": %llu, \"misses\": %llu}}\n",
               static_cast<unsigned long long>(ws.html_hits),
               static_cast<unsigned long long>(ws.html_misses),
               static_cast<unsigned long long>(ws.css_hits),
               static_cast<unsigned long long>(ws.css_misses),
               static_cast<unsigned long long>(ws.js_hits),
               static_cast<unsigned long long>(ws.js_misses));
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"end_to_end\": {\n");
  std::fprintf(json, "    \"schemes\": [\"DIR\", \"PARCEL(IND)\"],\n");
  std::fprintf(json, "    \"rounds\": %d,\n", rounds);
  std::fprintf(json, "    \"jobs\": %d,\n", opts.jobs);
  std::fprintf(json, "    \"cache_off_sec\": %.3f,\n", off_sec);
  std::fprintf(json, "    \"cache_on_sec\": %.3f,\n", on_sec);
  std::fprintf(json, "    \"speedup\": %.3f,\n", off_sec / on_sec);
  std::fprintf(json, "    \"hit_rate\": %.4f,\n", es.hit_rate());
  std::fprintf(json, "    \"identical_results\": %s\n",
               identical ? "true" : "false");
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_parse_cache.json\n");

  return identical ? 0 : 1;
}
