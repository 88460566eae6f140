// Campaign engine tests: substream seeding, params parsing, registry lookup,
// CI aggregation math, jobs-independence of campaign results, and the
// fixed-metric-set contract.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/random.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/result_sink.h"
#include "runner/scenario.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "tests/run_support.h"

namespace wlansim {
namespace {

// --- Substream seeding ---------------------------------------------------------

TEST(Substream, DeterministicAndOrderIndependent) {
  const uint64_t a = SubstreamSeed(42, "saturation", 3);
  const uint64_t b = SubstreamSeed(42, "saturation", 3);
  EXPECT_EQ(a, b);

  Rng r1 = Rng::Substream(42, "saturation", 3);
  Rng r2 = Rng::Substream(42, "saturation", 3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(r1.NextU64(), r2.NextU64());
  }
}

TEST(Substream, DistinctAcrossIndexStreamAndSeed) {
  std::set<uint64_t> seeds;
  for (uint64_t index = 0; index < 100; ++index) {
    seeds.insert(SubstreamSeed(1, "s", index));
  }
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_NE(SubstreamSeed(1, "alpha", 0), SubstreamSeed(1, "beta", 0));
  EXPECT_NE(SubstreamSeed(1, "s", 0), SubstreamSeed(2, "s", 0));
}

// --- ScenarioParams ------------------------------------------------------------

TEST(ScenarioParams, TypedGetters) {
  ScenarioParams p;
  p.Set("n", "12");
  p.Set("x", "2.5");
  p.Set("flag", "true");
  p.Set("name", "hello");
  EXPECT_EQ(p.GetInt("n", 0), 12);
  EXPECT_DOUBLE_EQ(p.GetDouble("x", 0), 2.5);
  EXPECT_TRUE(p.GetBool("flag", false));
  EXPECT_EQ(p.GetString("name", ""), "hello");
  // Defaults for absent keys.
  EXPECT_EQ(p.GetInt("absent", 7), 7);
  EXPECT_FALSE(p.GetBool("absent", false));
}

TEST(ScenarioParams, MalformedValuesThrow) {
  ScenarioParams p;
  p.Set("n", "12abc");
  p.Set("b", "maybe");
  p.Set("neg", "-3");
  EXPECT_THROW(p.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(p.GetBool("b", false), std::invalid_argument);
  // Counts reject negatives instead of wrapping to 2^64-3.
  EXPECT_EQ(p.GetInt("neg", 0), -3);
  EXPECT_THROW(p.GetUint("neg", 0), std::invalid_argument);
}

// --- Registry ------------------------------------------------------------------

TEST(Registry, BuiltinScenariosRegistered) {
  ScenarioRegistry& registry = ScenarioRegistry::Global();
  for (const char* name : {"saturation", "hidden_terminal", "edca", "rate_vs_distance",
                           "ism_interference", "adhoc_vs_infra", "coexistence", "fragmentation",
                           "roaming", "sensor_coexistence", "lora_coexistence"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);
}

TEST(Registry, DuplicateRegistrationThrows) {
  ScenarioRegistry registry;
  registry.Register("dup", "first", {},
                    [](const ScenarioParams&, const ReplicationContext&) {
                      return ReplicationResult{};
                    });
  EXPECT_THROW(registry.Register("dup", "second", {},
                                 [](const ScenarioParams&, const ReplicationContext&) {
                                   return ReplicationResult{};
                                 }),
               std::invalid_argument);
}

TEST(Registry, UnknownScenarioErrorListsAvailable) {
  SweepOptions options;
  options.scenario = "no_such_scenario";
  try {
    RunSweepCampaign(options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_scenario"), std::string::npos);
    EXPECT_NE(msg.find("saturation"), std::string::npos);
  }
}

TEST(Registry, UnknownParameterRejected) {
  SweepOptions options;
  options.scenario = "saturation";
  options.base_params.Set("n_stas_typo", "4");
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

// --- CI aggregation math -------------------------------------------------------

TEST(AggregationTest, StudentTCriticalValues) {
  EXPECT_TRUE(std::isinf(StudentT95(0)));
  EXPECT_NEAR(StudentT95(1), 12.706, 1e-9);
  EXPECT_NEAR(StudentT95(4), 2.776, 1e-9);
  EXPECT_NEAR(StudentT95(30), 2.042, 1e-9);
  EXPECT_NEAR(StudentT95(1000), 1.960, 1e-9);
}

TEST(AggregationTest, AggregateMeanStddevCi) {
  const MetricAggregate a = AggregateScalarSamples("x", {1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(a.metric, "x");
  EXPECT_EQ(a.count, 5u);
  EXPECT_DOUBLE_EQ(a.mean, 3.0);
  EXPECT_NEAR(a.stddev, std::sqrt(2.5), 1e-12);
  // t(df=4, 97.5%) * s / sqrt(n)
  EXPECT_NEAR(a.ci95_half, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
}

TEST(AggregationTest, ExactQuantileMath) {
  EXPECT_DOUBLE_EQ(ExactQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 1.0), 7.0);
  // Input need not be sorted.
  EXPECT_DOUBLE_EQ(ExactQuantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  // Linear interpolation between order statistics (type 7): even count.
  EXPECT_DOUBLE_EQ(ExactQuantile({4.0, 3.0, 2.0, 1.0}, 0.5), 2.5);
  // 1..5 at q=0.95: rank h = 3.8, so 4 + 0.8 * (5 - 4) = 4.8.
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.95), 4.8);
  // Out-of-range q clamps to the extremes.
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0}, 2.0), 2.0);
}

TEST(AggregationTest, AggregateQuantiles) {
  const MetricAggregate a = AggregateScalarSamples("x", {5.0, 4.0, 3.0, 2.0, 1.0});  // unsorted
  EXPECT_DOUBLE_EQ(a.p50, 3.0);
  EXPECT_DOUBLE_EQ(a.p95, 4.8);
}

TEST(AggregationTest, FoldQuantilesAreBitIdenticalToExactQuantile) {
  // The fold sorts each column once and reads both quantiles off that copy;
  // ExactQuantile sorts per call. Same order statistics, same arithmetic:
  // the bits must agree, including on ties, negatives and odd/even sizes.
  Rng rng(17);
  for (size_t n : {1u, 2u, 19u, 20u, 4097u}) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = std::floor(rng.NextDouble() * 50.0) - 25.0 + (rng.NextDouble() < 0.5 ? 0.125 : 0.0);
    }
    const MetricAggregate a = AggregateScalarSamples("x", values);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.p50), std::bit_cast<uint64_t>(ExactQuantile(values, 0.50)))
        << n;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.p95), std::bit_cast<uint64_t>(ExactQuantile(values, 0.95)))
        << n;
  }
}

TEST(AggregationTest, CsvHeadersAreStable) {
  // Downstream tooling keys on these exact headers; change them only
  // together with every CSV consumer (CI artifacts, figure scripts). The
  // zero-key header is the campaign aggregate CSV.
  EXPECT_EQ(SweepLongCsvHeader({}), "metric,count,mean,stddev,ci95_half,min,max,p50,p95\n");
  EXPECT_EQ(SweepLongCsv({"a", "b"}, {}),
            "a,b,metric,count,mean,stddev,ci95_half,min,max,p50,p95\n");
}

TEST(AggregationTest, SingleReplicationHasZeroCi) {
  const MetricAggregate a = AggregateScalarSamples("x", {4.0});
  EXPECT_DOUBLE_EQ(a.stddev, 0.0);
  EXPECT_DOUBLE_EQ(a.ci95_half, 0.0);
}

TEST(AggregationTest, CsvAndJsonShape) {
  const std::vector<MetricAggregate> aggregates = {AggregateScalarSamples("goodput", {1.0, 2.0})};
  const std::string csv = SweepLongCsv({}, {SweepRow{{}, aggregates}});
  EXPECT_NE(csv.find("metric,count,mean,stddev,ci95_half,min,max"), std::string::npos);
  EXPECT_NE(csv.find("goodput,2,1.5"), std::string::npos);
  const std::string json = AggregatesToJson("sat", 2, aggregates);
  EXPECT_NE(json.find("\"scenario\": \"sat\""), std::string::npos);
  EXPECT_NE(json.find("\"replications\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"goodput\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 1.5, \"p95\": 1.95}"), std::string::npos);

  GroupEncoder encoder(0, 1, {}, 2);
  for (uint64_t i = 0; i < 2; ++i) {
    ReplicationRecord record;
    record.replication = i;
    record.metrics["goodput"] = 1.0 + static_cast<double>(i);
    encoder.Add(record);
  }
  std::ostringstream reps;
  WriteReplicationCsv(encoder.Finish(), reps);
  EXPECT_EQ(reps.str(), "replication,goodput\n0,1\n1,2\n");
}

// --- Campaign ------------------------------------------------------------------

// A synthetic scenario that reports a function of its substream seed: cheap,
// and any scheduling-order dependence would show up immediately.
class SeedEchoScenario final : public Scenario {
 public:
  std::string_view name() const override { return "seed_echo"; }
  std::string_view description() const override { return "test scenario"; }
  ReplicationResult Run(const ScenarioParams&, const ReplicationContext& ctx) const override {
    ReplicationResult r;
    r.metrics["seed_mod"] = static_cast<double>(ctx.seed % 1000003);
    r.metrics["replication"] = static_cast<double>(ctx.replication);
    return r;
  }
};

class ThrowingScenario final : public Scenario {
 public:
  std::string_view name() const override { return "throwing"; }
  std::string_view description() const override { return "always throws"; }
  ReplicationResult Run(const ScenarioParams&, const ReplicationContext&) const override {
    throw std::runtime_error("scenario blew up");
  }
};

// Reports an extra metric on odd replications only: a metric set that
// varies across replications, which a campaign's one WLSR group (and its
// fixed CSV header) cannot hold.
class DriftingScenario final : public Scenario {
 public:
  std::string_view name() const override { return "drifting"; }
  std::string_view description() const override { return "metric set varies"; }
  ReplicationResult Run(const ScenarioParams&, const ReplicationContext& ctx) const override {
    ReplicationResult r;
    r.metrics["always"] = 1.0;
    if (ctx.replication % 2 == 1) {
      r.metrics["sometimes"] = 2.0;
    }
    return r;
  }
};

// The engine looks scenarios up by name, so the test scenarios run through
// the global registry exactly like the built-ins.
void RegisterTestScenarios() {
  static const bool registered = [] {
    ScenarioRegistry& registry = ScenarioRegistry::Global();
    registry.Register(std::make_unique<SeedEchoScenario>());
    registry.Register(std::make_unique<ThrowingScenario>());
    registry.Register(std::make_unique<DriftingScenario>());
    return true;
  }();
  (void)registered;
}

// Runs a campaign (a grid with no axes) and returns its --binary-out bytes.
std::string RunCampaignBinary(SweepOptions options, unsigned jobs) {
  options.jobs = jobs;
  return RunBinary(options);
}

// The campaign's single group.
BinaryGroup CampaignGroup(const std::string& bin) {
  BinaryResultsFile file = ParseBinaryResults(bin);
  EXPECT_EQ(file.groups.size(), 1u);
  return std::move(file.groups.front());
}

TEST(Campaign, ResultsIndependentOfJobs) {
  RegisterTestScenarios();
  SweepOptions options;
  options.scenario = "seed_echo";
  options.base_seed = 99;
  options.replications = 64;

  const std::string serial = RunCampaignBinary(options, 1);
  EXPECT_EQ(RunCampaignBinary(options, 8), serial);

  const BinaryGroup group = CampaignGroup(serial);
  const std::vector<double> replication = ScalarColumn(group, "replication");
  const std::vector<double> seed_mod = ScalarColumn(group, "seed_mod");
  ASSERT_EQ(replication.size(), 64u);
  for (size_t i = 0; i < replication.size(); ++i) {
    // Replication i really ran as replication i, on any thread.
    EXPECT_DOUBLE_EQ(replication[i], static_cast<double>(i));
    // A campaign is the zero-axis sweep: its point seed is the base seed.
    EXPECT_DOUBLE_EQ(seed_mod[i], static_cast<double>(SubstreamSeed(99, "seed_echo", i) % 1000003));
  }
}

TEST(Campaign, RealScenarioDeterministicAcrossJobs) {
  SweepOptions options;
  options.scenario = "saturation";
  options.base_seed = 7;
  options.replications = 4;
  options.base_params.Set("sim_time_s", "0.5");

  const std::string serial = RunCampaignBinary(options, 1);
  EXPECT_EQ(RunCampaignBinary(options, 4), serial);
  EXPECT_EQ(CampaignGroup(serial).header.n_rows, 4u);
}

TEST(Campaign, DifferentSeedsAcrossReplications) {
  RegisterTestScenarios();
  SweepOptions options;
  options.scenario = "seed_echo";
  options.base_seed = 5;
  options.replications = 32;
  const std::vector<double> seed_mod =
      ScalarColumn(CampaignGroup(RunCampaignBinary(options, 4)), "seed_mod");
  const std::set<double> seen(seed_mod.begin(), seed_mod.end());
  EXPECT_EQ(seen.size(), 32u);
}

TEST(Campaign, ScenarioExceptionsPropagate) {
  RegisterTestScenarios();
  SweepOptions options;
  options.scenario = "throwing";
  options.replications = 8;
  options.jobs = 4;
  EXPECT_THROW(RunSweepCampaign(options), std::runtime_error);
}

TEST(Campaign, VaryingMetricSetFailsCleanly) {
  // The engine stores each point as one WLSR group whose schema the first
  // replication fixes; a drifting metric set is a clean error on the
  // calling thread, for any worker count, not a ragged table.
  RegisterTestScenarios();
  for (unsigned jobs : {1u, 4u}) {
    SweepOptions options;
    options.scenario = "drifting";
    options.replications = 6;
    options.jobs = jobs;
    try {
      RunSweepCampaign(options);
      FAIL() << "expected std::runtime_error at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("same metric set"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace wlansim
