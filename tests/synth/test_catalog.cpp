#include "synth/catalog.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"

namespace essns::synth {
namespace {

CatalogSpec small_spec() {
  CatalogSpec spec;
  spec.terrains = {TerrainFamily::kPlains, TerrainFamily::kHills};
  spec.sizes = {16};
  spec.weather = {WeatherRegime::kSteady, WeatherRegime::kDiurnal};
  spec.ignitions = {IgnitionPattern::kCenter, IgnitionPattern::kEdge};
  spec.seeds_per_case = 2;
  spec.base_seed = 99;
  spec.steps = 3;
  return spec;
}

TEST(Catalog, SizeIsTheCrossProduct) {
  const CatalogSpec spec = small_spec();
  EXPECT_EQ(catalog_size(spec), 2u * 1u * 2u * 2u * 2u);
  EXPECT_EQ(generate_catalog(spec).size(), catalog_size(spec));
}

TEST(Catalog, NamesAreUniqueAndDescriptive) {
  const auto workloads = generate_catalog(small_spec());
  std::set<std::string> names;
  for (const auto& w : workloads) names.insert(w.name);
  EXPECT_EQ(names.size(), workloads.size());
  EXPECT_TRUE(names.count("plains16-steady-center-s0"));
  EXPECT_TRUE(names.count("hills16-diurnal-edge-s1"));
}

TEST(Catalog, GenerationIsDeterministic) {
  const CatalogSpec spec = small_spec();
  const auto a = generate_catalog(spec);
  const auto b = generate_catalog(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].truth_config.ignition, b[i].truth_config.ignition);
    EXPECT_EQ(a[i].truth_config.hidden, b[i].truth_config.hidden);
    EXPECT_EQ(a[i].truth_config.drift_sigma, b[i].truth_config.drift_sigma);
    // Environment layers (hills DEM is seeded) must match bit for bit.
    ASSERT_EQ(a[i].environment.has_topography(),
              b[i].environment.has_topography());
    for (int r = 0; r < a[i].environment.rows(); ++r) {
      for (int c = 0; c < a[i].environment.cols(); ++c) {
        ASSERT_DOUBLE_EQ(
            a[i].environment.slope_deg_at(r, c, a[i].truth_config.hidden),
            b[i].environment.slope_deg_at(r, c, b[i].truth_config.hidden));
        ASSERT_EQ(
            a[i].environment.fuel_model_at(r, c, a[i].truth_config.hidden),
            b[i].environment.fuel_model_at(r, c, b[i].truth_config.hidden));
      }
    }
    // Diurnal workloads carry the same per-step hidden scenarios.
    ASSERT_EQ(a[i].scenario_sequence.size(), b[i].scenario_sequence.size());
    for (std::size_t s = 0; s < a[i].scenario_sequence.size(); ++s)
      EXPECT_EQ(a[i].scenario_sequence[s], b[i].scenario_sequence[s]);
  }
}

TEST(Catalog, SeedReplicatesAreDistinct) {
  CatalogSpec spec = small_spec();
  spec.terrains = {TerrainFamily::kHills};
  spec.weather = {WeatherRegime::kSteady};
  spec.ignitions = {IgnitionPattern::kCenter};
  spec.seeds_per_case = 2;
  const auto workloads = generate_catalog(spec);
  ASSERT_EQ(workloads.size(), 2u);
  EXPECT_NE(workloads[0].seed, workloads[1].seed);
  // Different DEM seeds produce different topography somewhere.
  bool differs = false;
  const auto& hidden = workloads[0].truth_config.hidden;
  for (int r = 0; r < 16 && !differs; ++r)
    for (int c = 0; c < 16 && !differs; ++c)
      if (workloads[0].environment.slope_deg_at(r, c, hidden) !=
          workloads[1].environment.slope_deg_at(r, c, hidden))
        differs = true;
  EXPECT_TRUE(differs);
}

TEST(Catalog, DifferentBaseSeedsChangeWorkloadSeeds) {
  CatalogSpec a = small_spec();
  CatalogSpec b = small_spec();
  b.base_seed = a.base_seed + 1;
  const auto wa = generate_catalog(a);
  const auto wb = generate_catalog(b);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_NE(wa[0].seed, wb[0].seed);
}

TEST(Catalog, WeatherRegimesShapeTheTruthConfig) {
  CatalogSpec spec = small_spec();
  spec.terrains = {TerrainFamily::kPlains};
  spec.weather = {WeatherRegime::kSteady, WeatherRegime::kWindShift,
                  WeatherRegime::kDiurnal};
  spec.ignitions = {IgnitionPattern::kCenter};
  spec.seeds_per_case = 1;
  const auto workloads = generate_catalog(spec);
  ASSERT_EQ(workloads.size(), 3u);
  EXPECT_EQ(workloads[0].truth_config.drift_sigma, 0.0);
  EXPECT_TRUE(workloads[0].scenario_sequence.empty());
  EXPECT_GT(workloads[1].truth_config.drift_sigma, 0.0);
  EXPECT_EQ(workloads[2].scenario_sequence.size(),
            static_cast<std::size_t>(spec.steps));
}

TEST(Catalog, IgnitionPatternsStayInBounds) {
  for (const int size : {16, 33, 128}) {
    for (const auto pattern :
         {IgnitionPattern::kCenter, IgnitionPattern::kOffset,
          IgnitionPattern::kEdge, IgnitionPattern::kCorner}) {
      const CellIndex cell = ignition_cell(pattern, size);
      EXPECT_GE(cell.row, 0);
      EXPECT_GE(cell.col, 0);
      EXPECT_LT(cell.row, size);
      EXPECT_LT(cell.col, size);
    }
  }
  std::set<std::pair<int, int>> cells;
  for (const auto pattern :
       {IgnitionPattern::kCenter, IgnitionPattern::kOffset,
        IgnitionPattern::kEdge, IgnitionPattern::kCorner}) {
    const CellIndex cell = ignition_cell(pattern, 64);
    cells.insert({cell.row, cell.col});
  }
  EXPECT_EQ(cells.size(), 4u) << "patterns must map to distinct outbreaks";
}

TEST(Catalog, MaxWorkloadsTruncates) {
  CatalogSpec spec = small_spec();
  spec.max_workloads = 3;
  EXPECT_EQ(generate_catalog(spec).size(), 3u);
}

TEST(Catalog, ParseRoundTrip) {
  const CatalogSpec spec = parse_catalog_spec(
      "# a comment\n"
      "terrains = hills, rugged\n"
      "sizes = 16, 32\n"
      "weather = diurnal\n"
      "ignitions = corner\n"
      "seeds = 3\n"
      "base_seed = 7\n"
      "steps = 4\n"
      "step_minutes = 30\n"
      "noise = 0.05\n"
      "limit = 5\n");
  EXPECT_EQ(spec.terrains,
            (std::vector<TerrainFamily>{TerrainFamily::kHills,
                                        TerrainFamily::kRugged}));
  EXPECT_EQ(spec.sizes, (std::vector<int>{16, 32}));
  EXPECT_EQ(spec.weather,
            std::vector<WeatherRegime>{WeatherRegime::kDiurnal});
  EXPECT_EQ(spec.ignitions,
            std::vector<IgnitionPattern>{IgnitionPattern::kCorner});
  EXPECT_EQ(spec.seeds_per_case, 3);
  EXPECT_EQ(spec.base_seed, 7u);
  EXPECT_EQ(spec.steps, 4);
  EXPECT_EQ(spec.step_minutes, 30.0);
  EXPECT_EQ(spec.observation_noise, 0.05);
  EXPECT_EQ(spec.max_workloads, 5u);
  // catalog_size reports the full cross product, before the limit applies.
  EXPECT_EQ(catalog_size(spec), 2u * 2u * 1u * 1u * 3u);
  EXPECT_EQ(generate_catalog(spec).size(), 5u);
}

TEST(Catalog, ParseRejectsNonFiniteNumbers) {
  for (const char* key : {"step_minutes", "noise"})
    for (const char* value : {"nan", "inf", "-inf", "-nan"}) {
      const std::string text = std::string(key) + "=" + value;
      EXPECT_THROW(parse_catalog_spec(text), InvalidArgument) << text;
    }
}

TEST(Catalog, ParseRejectsBadInput) {
  EXPECT_THROW(parse_catalog_spec("bogus_key=1"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("terrains=mars"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("weather=hurricane"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("ignitions=everywhere"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("sizes=4"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("seeds=0"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("steps=1"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("not a key value line"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("base_seed=-1"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("base_seed=0x2a"), InvalidArgument);
}

TEST(Catalog, ParseRejectsStrtolLeniencies) {
  // Embedded whitespace, hex spellings and sign prefixes on unsigned keys
  // must fail the strict whole-string parsers, not silently truncate.
  EXPECT_THROW(parse_catalog_spec("sizes=3 2"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("sizes=0x20"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("steps=4x"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("step_minutes=0x10"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("step_minutes=4 5.0"), InvalidArgument);
  EXPECT_THROW(parse_catalog_spec("base_seed=+7"), InvalidArgument);
}

TEST(Catalog, ParsePreservesFullWidthSeeds) {
  // Seeds above 2^53 (e.g. copied back from a campaign JSONL) must survive
  // the text round trip exactly.
  const CatalogSpec spec =
      parse_catalog_spec("base_seed=12607430330072204770");
  EXPECT_EQ(spec.base_seed, 12607430330072204770ULL);
}

TEST(Catalog, DefaultSpecYieldsEightWorkloads) {
  const CatalogSpec spec;
  EXPECT_EQ(catalog_size(spec), 8u);
  const auto workloads = generate_catalog(spec);
  EXPECT_EQ(workloads.size(), 8u);
  for (const auto& w : workloads) {
    EXPECT_EQ(w.environment.rows(), 32);
    EXPECT_EQ(w.truth_config.steps, 4);
    EXPECT_NE(w.seed, 0u);
  }
}

TEST(Catalog, RuggedTerrainHasSteepMosaic) {
  const Workload rugged = make_rugged(32, 5);
  EXPECT_TRUE(rugged.environment.has_topography());
  EXPECT_TRUE(rugged.environment.has_fuel_map());
  double max_slope = 0.0;
  for (int r = 0; r < 32; ++r)
    for (int c = 0; c < 32; ++c)
      max_slope = std::max(
          max_slope,
          rugged.environment.slope_deg_at(r, c, rugged.truth_config.hidden));
  EXPECT_GT(max_slope, 10.0) << "rugged terrain should be genuinely steep";
}

}  // namespace
}  // namespace essns::synth
