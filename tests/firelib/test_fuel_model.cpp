#include "firelib/fuel_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"

namespace essns::firelib {
namespace {

TEST(FuelCatalogTest, ContainsModelZeroThroughThirteen) {
  const FuelCatalog& catalog = FuelCatalog::standard();
  EXPECT_EQ(catalog.size(), 14);
  for (int n = 0; n <= 13; ++n) {
    EXPECT_TRUE(catalog.contains(n));
    EXPECT_EQ(catalog.model(n).number, n);
  }
  EXPECT_FALSE(catalog.contains(14));
  EXPECT_FALSE(catalog.contains(-1));
}

TEST(FuelCatalogTest, ModelZeroIsNotBurnable) {
  const FuelModel& none = FuelCatalog::standard().model(0);
  EXPECT_FALSE(none.has_fuel());
  EXPECT_DOUBLE_EQ(none.total_load(), 0.0);
}

TEST(FuelCatalogTest, AllStandardModelsBurnable) {
  const FuelCatalog& catalog = FuelCatalog::standard();
  for (int n = 1; n <= 13; ++n) {
    SCOPED_TRACE(n);
    EXPECT_TRUE(catalog.model(n).has_fuel());
    EXPECT_GT(catalog.model(n).total_load(), 0.0);
    EXPECT_GT(catalog.model(n).depth, 0.0);
    EXPECT_GT(catalog.model(n).mext_dead, 0.0);
  }
}

TEST(FuelCatalogTest, OutOfRangeThrows) {
  EXPECT_THROW(FuelCatalog::standard().model(14), InvalidArgument);
  EXPECT_THROW(FuelCatalog::standard().model(-1), InvalidArgument);
}

TEST(FuelCatalogTest, GrassModelMatchesAnderson1982) {
  // NFFL model 1: 0.74 t/ac 1-h load, 3500 1/ft SAVR, 1 ft depth, Mx 12%.
  const FuelModel& grass = FuelCatalog::standard().model(1);
  ASSERT_EQ(grass.particles.size(), 1u);
  const FuelParticle& p = grass.particles.front();
  EXPECT_EQ(p.cls, ParticleClass::kDead1Hr);
  EXPECT_NEAR(p.load, units::tons_per_acre_to_lb_per_ft2(0.74), 1e-9);
  EXPECT_DOUBLE_EQ(p.savr, 3500.0);
  EXPECT_DOUBLE_EQ(grass.depth, 1.0);
  EXPECT_NEAR(grass.mext_dead, 0.12, 1e-12);
}

TEST(FuelCatalogTest, LiveFuelModelsIdentified) {
  const FuelCatalog& catalog = FuelCatalog::standard();
  // Models with live components: 2 (herb), 4, 5, 7, 10 (woody).
  EXPECT_TRUE(catalog.model(2).has_live_fuel());
  EXPECT_TRUE(catalog.model(4).has_live_fuel());
  EXPECT_TRUE(catalog.model(5).has_live_fuel());
  EXPECT_TRUE(catalog.model(7).has_live_fuel());
  EXPECT_TRUE(catalog.model(10).has_live_fuel());
  // Pure dead-fuel models.
  EXPECT_FALSE(catalog.model(1).has_live_fuel());
  EXPECT_FALSE(catalog.model(3).has_live_fuel());
  EXPECT_FALSE(catalog.model(8).has_live_fuel());
  EXPECT_FALSE(catalog.model(13).has_live_fuel());
}

TEST(FuelCatalogTest, SlashModelsCarryHeaviestLoads) {
  const FuelCatalog& catalog = FuelCatalog::standard();
  // Loads grow 11 < 12 < 13 within the slash group, and 13 tops the catalog.
  EXPECT_LT(catalog.model(11).total_load(), catalog.model(12).total_load());
  EXPECT_LT(catalog.model(12).total_load(), catalog.model(13).total_load());
  for (int n = 1; n <= 12; ++n)
    EXPECT_LE(catalog.model(n).total_load(), catalog.model(13).total_load());
}

TEST(FuelCatalogTest, TimelagClassesUseStandardSavr) {
  for (int n = 1; n <= 13; ++n) {
    for (const auto& p : FuelCatalog::standard().model(n).particles) {
      if (p.cls == ParticleClass::kDead10Hr) {
        EXPECT_DOUBLE_EQ(p.savr, 109.0);
      }
      if (p.cls == ParticleClass::kDead100Hr) {
        EXPECT_DOUBLE_EQ(p.savr, 30.0);
      }
    }
  }
}

TEST(FuelParticleTest, IsDeadClassification) {
  EXPECT_TRUE(is_dead(ParticleClass::kDead1Hr));
  EXPECT_TRUE(is_dead(ParticleClass::kDead10Hr));
  EXPECT_TRUE(is_dead(ParticleClass::kDead100Hr));
  EXPECT_FALSE(is_dead(ParticleClass::kLiveHerb));
  EXPECT_FALSE(is_dead(ParticleClass::kLiveWoody));
}

TEST(FuelCatalogTest, StandardCatalogIsSingleton) {
  EXPECT_EQ(&FuelCatalog::standard(), &FuelCatalog::standard());
}

}  // namespace
}  // namespace essns::firelib
