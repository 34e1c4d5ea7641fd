// Tests for the public API layer: configuration validation, scheme factory,
// the SpiderNetwork façade, and experiment helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/spider.hpp"
#include "topology/topology.hpp"

namespace spider {
namespace {

TEST(SchemeNames, MatchPaperLegends) {
  EXPECT_EQ(scheme_name(Scheme::kSpiderWaterfilling), "Spider (Waterfilling)");
  EXPECT_EQ(scheme_name(Scheme::kSpiderLp), "Spider (LP)");
  EXPECT_EQ(scheme_name(Scheme::kMaxFlow), "Max-flow");
  EXPECT_EQ(scheme_name(Scheme::kShortestPath), "Shortest Path");
  EXPECT_EQ(scheme_name(Scheme::kSilentWhispers), "SilentWhispers");
  EXPECT_EQ(scheme_name(Scheme::kSpeedyMurmurs), "SpeedyMurmurs");
}

TEST(SchemeLists, PaperSixPlusExtensions) {
  EXPECT_EQ(paper_schemes().size(), 6u);
  EXPECT_EQ(all_schemes().size(), 9u);
  const std::vector<Scheme> schemes = all_schemes();
  EXPECT_EQ(schemes[6], Scheme::kSpiderPrimalDual);
  EXPECT_EQ(schemes[7], Scheme::kSpiderDctcp);
  EXPECT_EQ(schemes[8], Scheme::kBackpressure);
}

TEST(SchemeLists, SchemeFromNameRoundTripsAndAliases) {
  for (Scheme scheme : all_schemes())
    EXPECT_EQ(scheme_from_name(scheme_name(scheme)), scheme);
  EXPECT_EQ(scheme_from_name("spider-dctcp"), Scheme::kSpiderDctcp);
  EXPECT_EQ(scheme_from_name("backpressure"), Scheme::kBackpressure);
  EXPECT_EQ(scheme_from_name("spider-waterfilling"),
            Scheme::kSpiderWaterfilling);
  EXPECT_EQ(scheme_from_name("shortest-path"), Scheme::kShortestPath);
  EXPECT_THROW((void)scheme_from_name("no-such-scheme"),
               std::invalid_argument);
}

TEST(MakeRouter, ProducesEverySchemeWithMatchingName) {
  const SpiderConfig config;
  for (Scheme scheme : all_schemes()) {
    const auto router = make_router(scheme, config);
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->name(), scheme_name(scheme));
  }
}

TEST(MakeRouter, AtomicityMatchesPaperCategories) {
  const SpiderConfig config;
  EXPECT_FALSE(make_router(Scheme::kSpiderWaterfilling, config)->is_atomic());
  EXPECT_FALSE(make_router(Scheme::kSpiderLp, config)->is_atomic());
  EXPECT_FALSE(make_router(Scheme::kShortestPath, config)->is_atomic());
  EXPECT_TRUE(make_router(Scheme::kMaxFlow, config)->is_atomic());
  EXPECT_TRUE(make_router(Scheme::kSilentWhispers, config)->is_atomic());
  EXPECT_TRUE(make_router(Scheme::kSpeedyMurmurs, config)->is_atomic());
}

TEST(ConfigValidation, AcceptsPaperDefaults) {
  SpiderConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.sim.delta, seconds(0.5));
  EXPECT_EQ(config.num_paths, 4);
  EXPECT_EQ(config.sim.scheduler, SchedulerPolicy::kSrpt);
}

TEST(ConfigValidation, RejectsBadValues) {
  {
    SpiderConfig c;
    c.sim.delta = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SpiderConfig c;
    c.sim.poll_interval = -1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SpiderConfig c;
    c.sim.mtu = -5;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SpiderConfig c;
    c.num_paths = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SpiderConfig c;
    c.num_trees = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SpiderConfig c;
    c.primal_dual.bucket_depth = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  // shards is fixed at 1.
  for (const int shards : {0, 2}) {
    SpiderConfig c;
    c.shards = shards;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
}

TEST(SpiderNetwork, ConstructionValidates) {
  SpiderConfig bad;
  bad.num_paths = -1;
  EXPECT_THROW(SpiderNetwork(isp_topology(xrp(100)), bad),
               std::invalid_argument);
}

TEST(SpiderNetwork, WorkloadUsesTopologySize) {
  const SpiderNetwork net(isp_topology(xrp(100)));
  const auto trace = net.synthesize_workload(200);
  ASSERT_EQ(trace.size(), 200u);
  for (const PaymentSpec& spec : trace) {
    EXPECT_GE(spec.src, 0);
    EXPECT_LT(spec.src, 32);
    EXPECT_GE(spec.dst, 0);
    EXPECT_LT(spec.dst, 32);
  }
}

TEST(SpiderNetwork, RunProducesMetrics) {
  const SpiderNetwork net(isp_topology(xrp(5000)));
  TrafficConfig traffic;
  traffic.tx_per_second = 100;
  const auto trace = net.synthesize_workload(150, traffic);
  const SimMetrics m = net.run(Scheme::kSpiderWaterfilling, trace);
  EXPECT_EQ(m.attempted_count, 150);
  EXPECT_GT(m.success_ratio(), 0.0);
}

TEST(SpiderNetwork, CirculationFractionBetweenZeroAndOne) {
  const SpiderNetwork net(isp_topology(xrp(5000)));
  const auto trace = net.synthesize_workload(2000);
  const double fraction = net.workload_circulation_fraction(trace);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);
}

TEST(Experiment, RunSchemesCoversAll) {
  const SpiderNetwork net(isp_topology(xrp(3000)));
  TrafficConfig traffic;
  traffic.tx_per_second = 100;
  const auto trace = net.synthesize_workload(100, traffic);
  const auto results = run_schemes(
      net, trace, {Scheme::kShortestPath, Scheme::kSpiderWaterfilling});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].scheme, Scheme::kShortestPath);
  const Table table = results_table(results);
  EXPECT_EQ(table.rows().size(), 2u);
  EXPECT_NE(table.render().find("Spider (Waterfilling)"), std::string::npos);
}

TEST(Experiment, EnvHelpers) {
  ::setenv("SPIDER_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("SPIDER_TEST_INT", 7), 42);
  EXPECT_EQ(env_int("SPIDER_TEST_MISSING", 7), 7);
  ::setenv("SPIDER_TEST_BAD", "not-a-number", 1);
  EXPECT_EQ(env_int("SPIDER_TEST_BAD", 7), 7);
  ::setenv("SPIDER_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("SPIDER_TEST_DBL", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(env_double("SPIDER_TEST_MISSING", 1.5), 1.5);
  ::unsetenv("SPIDER_TEST_INT");
  ::unsetenv("SPIDER_TEST_BAD");
  ::unsetenv("SPIDER_TEST_DBL");
}

TEST(Experiment, CsvDumpHonoursEnv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  ::unsetenv("SPIDER_BENCH_CSV_DIR");
  EXPECT_NO_THROW(maybe_write_csv("unit_test", t));  // no-op without env
  const std::string dir = testing::TempDir();
  ::setenv("SPIDER_BENCH_CSV_DIR", dir.c_str(), 1);
  maybe_write_csv("unit_test", t);
  std::ifstream in(dir + "/unit_test.csv");
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  ::unsetenv("SPIDER_BENCH_CSV_DIR");
}

}  // namespace
}  // namespace spider
