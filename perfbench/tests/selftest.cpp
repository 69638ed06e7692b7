// Self-tests of the benchmark: percentile math with its sample count,
// digest stability across --jobs, and strict CLI rejection.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cli.hpp"
#include "digest.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankWithSampleCount) {
  const Percentile p50 = percentile(one_to(100), 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p99 = percentile(one_to(100), 99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_EQ(percentile(one_to(1000), 99).beyond, 10u);
  EXPECT_EQ(percentile(one_to(1000), 99).value, 990);
}

TEST(Percentile, RankIsClampedAndRoundedUp) {
  EXPECT_EQ(percentile(one_to(100), 0).value, 1);
  EXPECT_EQ(percentile(one_to(100), 0).beyond, 99u);
  EXPECT_EQ(percentile(one_to(100), 100).value, 100);
  EXPECT_EQ(percentile(one_to(100), 100).beyond, 0u);
  // ceil(0.99 * 10) = 10: a p99 over ten samples is the maximum.
  EXPECT_EQ(percentile(one_to(10), 99).value, 10);
  EXPECT_EQ(percentile(one_to(10), 99).beyond, 0u);
  EXPECT_EQ(percentile(one_to(3), 50).value, 2);
  EXPECT_EQ(percentile({7.5}, 99).value, 7.5);
  EXPECT_EQ(median(one_to(5)), 3);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 100.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, std::nan("")), std::invalid_argument);
}

TEST(Digest, EveryFieldAndBitCounts) {
  const LoadRecord base{1.5, 2.5, 3.25, 4096, 777};
  Digest a;
  fold(a, base);
  Digest same;
  fold(same, base);
  EXPECT_EQ(a.hex(), same.hex());
  EXPECT_EQ(a.hex().size(), 16u);
  LoadRecord bumped = base;
  bumped.radio_j = std::nextafter(base.radio_j, 4.0);
  Digest b;
  fold(b, bumped);
  EXPECT_NE(a.hex(), b.hex());
  LoadRecord events = base;
  events.events += 1;
  Digest c;
  fold(c, events);
  EXPECT_NE(a.hex(), c.hex());
}

TEST(Digest, CorpusPassIsIdenticalAcrossJobs) {
  CorpusInputs in = make_corpus_inputs(Workload::kAlexa34Matrix, kDefaultSeed);
  // One load of every scheme on the first few pages.
  std::vector<LoadTask> tasks(in.pass.begin(), in.pass.begin() + 40);
  const PassResult one = run_pass(in.corpus.replayed, tasks, 1, nullptr);
  const PassResult four = run_pass(in.corpus.replayed, tasks, 4, &one.records);
  EXPECT_EQ(one.failed, 0u) << one.first_failure;
  EXPECT_EQ(four.failed, 0u) << four.first_failure;
  EXPECT_EQ(one.digest(), four.digest());
  // A different seed is a different input.
  CorpusInputs other = make_corpus_inputs(Workload::kAlexa34Matrix, 2);
  std::vector<LoadTask> other_tasks(other.pass.begin(), other.pass.begin() + 40);
  EXPECT_NE(run_pass(other.corpus.replayed, other_tasks, 2, nullptr).digest(),
            one.digest());
}

TEST(Digest, LargeObjectLoadsPassChecksAcrossJobs) {
  CorpusInputs in = make_corpus_inputs(Workload::kLargeObjectFade, kDefaultSeed);
  std::vector<LoadTask> tasks(in.pass.begin(), in.pass.begin() + 8);
  const PassResult one = run_pass(in.corpus.replayed, tasks, 1, nullptr);
  const PassResult two = run_pass(in.corpus.replayed, tasks, 2, &one.records);
  EXPECT_EQ(one.failed + two.failed, 0u) << one.first_failure << two.first_failure;
  EXPECT_EQ(one.digest(), two.digest());
}

TEST(Digest, StreamingFleetIsIdenticalAcrossJobs) {
  FleetInputs in = make_fleet_inputs(kDefaultSeed, 1);
  parcel::fleet::FleetConfig cfg = in.calls[0];
  cfg.clients = 1100;  // two epochs
  Digest one;
  const parcel::fleet::FleetMetrics m1 = parcel::fleet::run_fleet(in.corpus.replayed, cfg);
  fold(one, m1);
  EXPECT_EQ(check_fleet(m1, cfg.clients), "");
  cfg.jobs = 3;
  Digest three;
  fold(three, parcel::fleet::run_fleet(in.corpus.replayed, cfg));
  EXPECT_EQ(one.hex(), three.hex());
}

TEST(Checks, CloudBrowserClientHoldsOneSnapshot) {
  CorpusInputs in = make_corpus_inputs(Workload::kAlexa34Matrix, kDefaultSeed);
  const parcel::web::WebPage& page = *in.corpus.replayed[0];
  EXPECT_EQ(expected_objects(parcel::core::Scheme::kCloudBrowser, page), 1u);
  EXPECT_EQ(expected_objects(parcel::core::Scheme::kDir, page), page.object_count());
  parcel::core::RunResult r;  // never completed
  EXPECT_NE(check_load(parcel::core::Scheme::kDir, page, r), "");
}

Options parse(std::vector<std::string> args, int max_jobs = 4) {
  return parse_cli(args, max_jobs);
}

TEST(Cli, AcceptsAFullCommandLine) {
  const Options o = parse({"--workload", "fleet-stream", "--seed", "17",
                           "--seconds", "10", "--trace", "1", "--jobs", "2"});
  EXPECT_EQ(o.workload, Workload::kFleetStream);
  EXPECT_EQ(o.seed, 17u);
  EXPECT_EQ(o.seconds, 10);
  EXPECT_TRUE(o.trace);
  EXPECT_EQ(o.jobs, 2);
  EXPECT_EQ(parse({"--workload", "alexa34-matrix"}, 3).jobs, 3);  // nproc
  EXPECT_EQ(parse({"--workload", "alexa34-matrix"}).seed, kDefaultSeed);
}

TEST(Cli, RejectsUnknownRepeatedAndValuelessFlags) {
  using V = std::vector<std::string>;
  for (const V& bad : {V{"--workload", "alexa34-matrix", "--sed", "1"},
                       V{"--workload", "alexa34-matrix", "--seed"},
                       V{"--workload", "alexa34-matrix", "--seed", "1", "--seed", "2"},
                       V{"--workload", "alexa34-matrix", "stray"},
                       V{"--workload", "alexa34-matrix", "--help"},
                       V{"--seed", "1"},
                       V{}}) {
    EXPECT_THROW((void)parse(bad), UsageError);
  }
}

TEST(Cli, RejectsMalformedValues) {
  using V = std::vector<std::string>;
  const std::string w = "--workload";
  for (const V& bad : {V{w, "alexa34"},
                       V{w, "fleet-stream", "--seed", "-1"},
                       V{w, "fleet-stream", "--seed", "12x"},
                       V{w, "fleet-stream", "--seed", ""},
                       V{w, "fleet-stream", "--seed", "99999999999999999999999"},
                       V{w, "fleet-stream", "--seconds", "0"},
                       V{w, "fleet-stream", "--seconds", "1.5"},
                       V{w, "fleet-stream", "--seconds", "601"},
                       V{w, "fleet-stream", "--jobs", "0"},
                       V{w, "fleet-stream", "--jobs", "5"},
                       V{w, "fleet-stream", "--trace", "2"},
                       V{w, "fleet-stream", "--trace", "on"},
                       V{w, "fleet-stream", "--trace-out", ""},
                       V{w, "fleet-stream", "--commit", "a b"},
                       V{w, "fleet-stream", "--commit", "\"x"}}) {
    EXPECT_THROW((void)parse(bad), UsageError) << bad.back();
  }
}

TEST(Workloads, SchemeSlugs) {
  EXPECT_EQ(scheme_slug(parcel::core::Scheme::kParcel512K), "parcel-512k");
  EXPECT_EQ(scheme_slug(parcel::core::Scheme::kHttpProxy), "http-proxy");
  EXPECT_EQ(scheme_slug(parcel::core::Scheme::kCloudBrowser), "cb");
  EXPECT_EQ(scheme_slug(parcel::core::Scheme::kParcelAdaptive), "parcel-adapt");
  EXPECT_EQ(all_schemes().size(), 10u);
}

}  // namespace
}  // namespace perfbench
