// Tests of the benchmark's own helpers and a tiny-n smoke run of every
// workload in both modes.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "perfbench.hpp"
#include "stats.hpp"

namespace {

using perfbench::Interval;

TEST(BestOf, KeepsEachSeedsFastestRepeatAndAveragesOverSeeds) {
  const perfbench::PerSeedSamples samples = {{0.30, 0.25, 0.41}, {1.0}, {0.7, 0.5}};
  EXPECT_EQ(perfbench::best_per_seed(samples), (std::vector<double>{0.25, 1.0, 0.5}));
  EXPECT_DOUBLE_EQ(perfbench::best_of_mean(samples), (0.25 + 1.0 + 0.5) / 3);
  EXPECT_EQ(perfbench::sample_count(samples), 6u);
}

TEST(BestOf, RejectsASeedWithoutSamples) {
  EXPECT_THROW((void)perfbench::best_per_seed({{1.0}, {}}), std::invalid_argument);
}

// Reference values from Python's statistics.quantiles (method "exclusive").
TEST(Quantiles, MatchPythonStatisticsQuantiles) {
  EXPECT_EQ(perfbench::quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
            (std::vector<double>{2.75, 5.5, 8.25}));
  const std::vector<double> q = perfbench::quantiles({0.31, 0.29, 0.35, 0.30, 0.33});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q[0], 0.295);
  EXPECT_DOUBLE_EQ(q[1], 0.31);
  EXPECT_DOUBLE_EQ(q[2], 0.34);
  EXPECT_EQ(perfbench::quantiles({5.0, 1.0}), (std::vector<double>{0.0, 3.0, 6.0}));
  const std::vector<double> deciles = perfbench::quantiles({2.0, 9.0, 4.0}, 10);
  const std::vector<double> expected = {0.8, 1.6, 2.4, 3.2, 4.0, 6.0, 8.0, 10.0, 12.0};
  ASSERT_EQ(deciles.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_NEAR(deciles[i], expected[i], 1e-12);
  EXPECT_THROW((void)perfbench::quantiles({1.0}), std::invalid_argument);
}

TEST(Quantiles, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(perfbench::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const Interval parent{0, 10};
  // [1,3] and [2,4] overlap (3 s covered); [8,12] sticks out (2 s inside).
  EXPECT_DOUBLE_EQ(perfbench::self_time(parent, {{8, 12}, {1, 3}, {2, 4}}), 5.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time(parent, {{-5, 20}}), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time(parent, {{2, 3}, {2.5, 2.7}}), 9.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time(parent, {{11, 12}}), 10.0);
}

TEST(MetricNames, AcceptLettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(perfbench::valid_metric_name("trial_s"));
  EXPECT_TRUE(perfbench::valid_metric_name("sim.engine.phase1_s"));
  EXPECT_TRUE(perfbench::valid_metric_name("9lives-x"));
  EXPECT_TRUE(perfbench::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(perfbench::valid_metric_name(""));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(perfbench::valid_metric_name("_leading"));
  EXPECT_FALSE(perfbench::valid_metric_name(".leading"));
  EXPECT_FALSE(perfbench::valid_metric_name("has space"));
  EXPECT_FALSE(perfbench::valid_metric_name("slash/unit"));
  EXPECT_FALSE(perfbench::valid_metric_name("quote\""));
}

TEST(MetricNames, WriteResultRejectsAnInvalidName) {
  perfbench::Result r;
  r.attempted = 1;
  r.metrics = {{"bad name", "s", 1.0}};
  std::ostringstream os;
  EXPECT_THROW(perfbench::write_result(os, r), std::invalid_argument);
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW((void)perfbench::make_workload("nope"), std::invalid_argument);
}

TEST(Workloads, TrialSeedsAreFixedAndDistinct) {
  for (const std::string& name : perfbench::workload_names()) {
    const perfbench::Workload w = perfbench::make_workload(name, 512);
    const std::vector<unsigned> trials = perfbench::trial_indices(w);
    EXPECT_EQ(trials.size(), w.seeds) << name;
    EXPECT_EQ(std::set<unsigned>(trials.begin(), trials.end()).size(), trials.size()) << name;
    EXPECT_EQ(trials, perfbench::trial_indices(w)) << name;  // not drawn per run
  }
}

class Smoke : public ::testing::TestWithParam<std::string> {};

// Every workload at n = 512 in both modes: no failed operation, every
// metric of the mode printed once, and the traced run reproduces the
// untraced counts (a mismatch would count as a failed operation).
TEST_P(Smoke, RunsCleanInBothModes) {
  for (const bool trace : {false, true}) {
    perfbench::Options opt;
    opt.workload = GetParam();
    opt.seed = 7;
    opt.seconds = 1;
    opt.trace = trace;
    opt.n = 512;
    std::ostringstream log;
    const perfbench::Result r = perfbench::run(opt, log);
    EXPECT_TRUE(r.correct) << log.str();
    EXPECT_EQ(r.failed, 0u) << log.str();
    EXPECT_GE(r.attempted, 1u);
    std::set<std::string> names;
    for (const perfbench::Metric& m : r.metrics) {
      EXPECT_TRUE(names.insert(m.name).second) << m.name;
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    }
    if (trace) {
      EXPECT_TRUE(names.count("trace.overhead"));
      EXPECT_TRUE(names.count("sim.engine.phase1_s"));
      EXPECT_NE(log.str().find("residual"), std::string::npos);
      EXPECT_NE(log.str().find("tracing"), std::string::npos);
    } else {
      EXPECT_EQ(names, (std::set<std::string>{"trial_s", "setup_s", "peak_rss_mb", "rounds",
                                              "msgs_per_node", "bits_per_node",
                                              "informed_frac"}));
    }
    std::ostringstream out;
    perfbench::write_result(out, r);
    EXPECT_EQ(out.str().back(), '\n');
  }
}

INSTANTIATE_TEST_SUITE_P(All, Smoke, ::testing::ValuesIn(perfbench::workload_names()));

}  // namespace
