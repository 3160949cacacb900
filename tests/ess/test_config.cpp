#include "ess/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace essns::ess {
namespace {

TEST(RunSpecTest, DefaultsWhenEmpty) {
  const RunSpec spec = parse_run_spec("");
  EXPECT_EQ(spec.workload, "plains");
  EXPECT_EQ(spec.search.method, "ess-ns");
  EXPECT_EQ(spec.size, 48);
  EXPECT_EQ(spec.search.generations, 30);
  EXPECT_EQ(spec.search.population, 24u);
  EXPECT_EQ(spec.search.offspring, 24u);
  EXPECT_EQ(spec.workers, 1u);
}

TEST(RunSpecTest, ParsesAllKeys) {
  const RunSpec spec = parse_run_spec(
      "workload=hills\n"
      "size=64\n"
      "method=essim-de-tuned\n"
      "seed=99\n"
      "generations=12\n"
      "fitness_threshold=0.8\n"
      "population=16\n"
      "offspring=20\n"
      "workers=4\n"
      "novelty_k=5\n"
      "islands=2\n"
      "cache=off\n");
  EXPECT_EQ(spec.workload, "hills");
  EXPECT_EQ(spec.size, 64);
  EXPECT_EQ(spec.search.method, "essim-de-tuned");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.search.generations, 12);
  EXPECT_DOUBLE_EQ(spec.search.fitness_threshold, 0.8);
  EXPECT_EQ(spec.search.population, 16u);
  EXPECT_EQ(spec.search.offspring, 20u);
  EXPECT_EQ(spec.workers, 4u);
  EXPECT_EQ(spec.search.novelty_k, 5);
  EXPECT_EQ(spec.search.islands, 2);
  EXPECT_EQ(spec.search.cache_policy, cache::CachePolicy::kOff);
}

TEST(RunSpecTest, CacheKeyParsesPolicies) {
  // Default step; only off|step|shared parse.
  EXPECT_EQ(parse_run_spec("").search.cache_policy, cache::CachePolicy::kStep);
  EXPECT_EQ(parse_run_spec("cache=step\n").search.cache_policy,
            cache::CachePolicy::kStep);
  EXPECT_EQ(parse_run_spec("cache=shared\n").search.cache_policy,
            cache::CachePolicy::kShared);
  EXPECT_EQ(parse_run_spec("cache=off\n").search.cache_policy,
            cache::CachePolicy::kOff);
  // Boolean spellings fail like any unknown policy, naming the key and the
  // accepted values.
  for (const char* legacy : {"on", "1", "false"}) {
    try {
      (void)parse_run_spec(std::string("cache=") + legacy + "\n");
      ADD_FAILURE() << "cache=" << legacy << " parsed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "config key 'cache' expects off|step|shared"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_run_spec("cache=maybe\n"), InvalidArgument);
}

TEST(RunSpecTest, CacheMemKeyParsesMebibytes) {
  EXPECT_EQ(parse_run_spec("").cache_mem_mb, 256u);  // default
  EXPECT_EQ(parse_run_spec("cache_mem=32\n").cache_mem_mb, 32u);
  EXPECT_THROW(parse_run_spec("cache_mem=0\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("cache_mem=lots\n"), InvalidArgument);
}

TEST(RunSpecTest, IgnoresCommentsAndBlankLines) {
  const RunSpec spec = parse_run_spec(
      "# a comment\n"
      "\n"
      "  method = ess-ga  \n"
      "# another\n");
  EXPECT_EQ(spec.search.method, "ess-ga");
}

TEST(RunSpecTest, RejectsMalformedLines) {
  EXPECT_THROW(parse_run_spec("not a pair"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("size="), InvalidArgument);
  EXPECT_THROW(parse_run_spec("size=abc"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("unknown_key=3"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("method=nope"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("workload=mars"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("size=4"), InvalidArgument);  // below minimum
  // A seed is an exact unsigned 64-bit integer: no sign, exponent or
  // fraction.
  for (const char* seed : {"seed=-1", "seed=1e30", "seed=2.5"})
    EXPECT_THROW(parse_run_spec(seed), InvalidArgument) << seed;
  // The retired sweep-backend key fails as an unknown key, even at what used
  // to be its default.
  try {
    (void)parse_run_spec("backend=scalar");
    ADD_FAILURE() << "backend=scalar parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown config key"),
              std::string::npos)
        << e.what();
  }
}

TEST(RunSpecTest, RejectsRetiredSimdAndNumaKeys) {
  // The CPU alone picks the relax kernel and NUMA placement is gone: `simd=`
  // and `numa=` fail as unknown keys at every value they used to take.
  for (const char* retired :
       {"simd=auto", "simd=scalar", "simd=avx2", "numa=auto", "numa=on"}) {
    try {
      (void)parse_run_spec(retired);
      ADD_FAILURE() << retired << " parsed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown config key"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RunSpecTest, SeedRoundTripsExactly) {
  // Above 2^53 a double would round these.
  EXPECT_EQ(parse_run_spec("seed=9007199254740993").seed,
            9007199254740993ULL);
  EXPECT_EQ(parse_run_spec("seed=18446744073709551615").seed,
            18446744073709551615ULL);
}

TEST(SearchSpecTest, ValidateJobSearchAppliesTheParserBounds) {
  validate_job_search(SearchSpec{});
  SearchSpec all_neighbours;
  all_neighbours.novelty_k = 0;
  validate_job_search(all_neighbours);

  SearchSpec bad;
  bad.population = 1;
  try {
    validate_job_search(bad);
    ADD_FAILURE() << "population=1 validated";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()),
              "population expects an integer >= 2, got '1'");
  }
  bad = SearchSpec{};
  bad.fitness_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_job_search(bad), InvalidArgument);
  bad = SearchSpec{};
  bad.islands = 0;
  EXPECT_THROW(validate_job_search(bad), InvalidArgument);
  // Parses as a method, but a job cannot run it.
  bad = SearchSpec{};
  bad.method = "essim-monitor";
  EXPECT_THROW(validate_job_search(bad), InvalidArgument);
}

TEST(SearchSpecTest, SetSearchKeyOwnsOnlyTheSearchKeys) {
  SearchSpec spec;
  EXPECT_TRUE(set_search_key(spec, "novelty_k", "0"));
  EXPECT_EQ(spec.novelty_k, 0);
  for (const char* key : {"seed", "workers", "cache", "max_solution_maps"})
    EXPECT_FALSE(set_search_key(spec, key, "1")) << key;
}

TEST(RunSpecTest, RejectsStrtolLeniencies) {
  // The strict parsers must not inherit strtol/strtod leniencies: embedded
  // whitespace, hex spellings and trailing junk all fail loudly (leading and
  // trailing whitespace around the value is trimmed by the key=value layer,
  // which is the documented config-file behavior).
  EXPECT_THROW(parse_run_spec("generations=1 2\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("generations=0x10\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("generations=12junk\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("fitness_threshold=0x1p2\n"), InvalidArgument);
  EXPECT_THROW(parse_run_spec("fitness_threshold=1. 5\n"), InvalidArgument);
  // Trimmed whitespace around a well-formed value still parses.
  EXPECT_EQ(
      parse_run_spec("generations= 12 \nmethod=ess-ga\n").search.generations,
      12);
}

TEST(RunSpecTest, RejectsNonFiniteNumbers) {
  for (const char* value : {"nan", "-nan", "inf", "-inf", "Infinity"}) {
    EXPECT_THROW(parse_run_spec(std::string("fitness_threshold=") + value),
                 InvalidArgument)
        << value;
    EXPECT_THROW(parse_run_spec(std::string("seed=") + value),
                 InvalidArgument)
        << value;
  }
}

TEST(RunSpecTest, KnownMethodsListMatchesFactory) {
  for (const auto& method : SearchSpec::known_methods()) {
    RunSpec spec;
    spec.search.method = method;
    if (method == "essim-monitor") {
      EXPECT_THROW(make_optimizer(spec.search), InvalidArgument);
    } else {
      EXPECT_NE(make_optimizer(spec.search), nullptr) << method;
    }
  }
}

TEST(RunSpecTest, RefusesASearchTheMethodCannotRun) {
  // DE needs a target plus three donors; the GA breeds in pairs and keeps
  // two elites. Each is refused when the spec is parsed or admitted.
  for (const char* text : {"method=essim-de\npopulation=3",
                           "method=essim-de-tuned\npopulation=3",
                           "method=ess-ga\noffspring=1",
                           "method=ess-ga\npopulation=2"}) {
    EXPECT_THROW(parse_run_spec(text), InvalidArgument) << text;
    SearchSpec search;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
      set_search_key(search, line.substr(0, line.find('=')),
                     line.substr(line.find('=') + 1));
    EXPECT_THROW(validate_job_search(search), InvalidArgument) << text;
  }
  // Each refusal names the key, as set_search_key's bounds do.
  for (const auto& [text, message] :
       {std::pair{"method=essim-de\npopulation=3",
                  "population expects an integer >= 4 for essim-de, got '3'"},
        std::pair{"method=essim-de-tuned\npopulation=3",
                  "population expects an integer >= 4 for essim-de-tuned, "
                  "got '3'"},
        std::pair{"method=ess-ga\noffspring=1",
                  "offspring expects an integer >= 2 for ess-ga, got '1'"},
        std::pair{"method=ess-ga\npopulation=2",
                  "population expects an integer >= 3 for ess-ga, got '2'"}}) {
    try {
      parse_run_spec(text);
      ADD_FAILURE() << text;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
          << error.what();
    }
  }
  // The same population is fine for the methods whose floor it meets.
  EXPECT_EQ(parse_run_spec("method=ess-ns\npopulation=3").search.population,
            3u);
  EXPECT_EQ(parse_run_spec("method=essim-monitor\npopulation=3")
                .search.population,
            3u);
}

TEST(RunSpecTest, WorkloadFactoryHonoursSize) {
  RunSpec spec;
  spec.workload = "hills";
  spec.size = 24;
  const auto workload = make_workload(spec);
  EXPECT_EQ(workload.name, "hills");
  EXPECT_EQ(workload.environment.rows(), 24);
}

TEST(RunSpecEndToEndTest, RunsEveryMethodTiny) {
  for (const auto& method : SearchSpec::known_methods()) {
    SCOPED_TRACE(method);
    RunSpec spec;
    spec.search.method = method;
    spec.size = 24;
    spec.search.generations = 3;
    spec.search.population = 8;
    spec.search.offspring = 8;
    spec.search.islands = 2;
    const PipelineResult result = run_spec(spec);
    EXPECT_FALSE(result.steps.empty());
    for (const auto& step : result.steps) {
      EXPECT_GE(step.prediction_quality, 0.0);
      EXPECT_LE(step.prediction_quality, 1.0);
    }
  }
}

TEST(RunSpecEndToEndTest, SeedChangesResults) {
  RunSpec a;
  a.size = 24;
  a.search.generations = 3;
  a.search.population = 8;
  a.search.offspring = 8;
  RunSpec b = a;
  b.seed = a.seed + 1;
  const auto ra = run_spec(a);
  const auto rb = run_spec(b);
  // Different hidden fire AND different search: qualities should differ
  // in at least one step (overwhelmingly likely).
  bool any_diff = false;
  for (std::size_t i = 0; i < ra.steps.size() && i < rb.steps.size(); ++i)
    if (ra.steps[i].prediction_quality != rb.steps[i].prediction_quality)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace essns::ess
