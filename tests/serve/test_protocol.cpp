#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ess/config.hpp"

namespace essns::serve {
namespace {

TEST(ServeProtocol, ParsesEveryVerb) {
  EXPECT_EQ(parse_request("ping").verb, Verb::kPing);
  EXPECT_EQ(parse_request("metrics").verb, Verb::kMetrics);
  EXPECT_EQ(parse_request("stats").verb, Verb::kStats);
  EXPECT_EQ(parse_request("shutdown").verb, Verb::kShutdown);
  EXPECT_EQ(parse_request("predict id=f1").verb, Verb::kPredict);
  EXPECT_EQ(parse_request("repredict id=f1").verb, Verb::kRepredict);
}

TEST(ServeProtocol, ParsesPredictOverrides) {
  const Request request = parse_request(
      "predict id=alpha terrain=hills size=24 weather=diurnal "
      "ignition=corner seed=99 steps=5 step_minutes=30.5 noise=0.1 "
      "method=ess-ns generations=7 fitness_threshold=0.9 population=12 "
      "offspring=10 novelty_k=4 islands=2 priority=3");
  EXPECT_EQ(request.id, "alpha");
  ASSERT_TRUE(request.terrain);
  EXPECT_EQ(*request.terrain, synth::TerrainFamily::kHills);
  ASSERT_TRUE(request.size);
  EXPECT_EQ(*request.size, 24);
  ASSERT_TRUE(request.weather);
  EXPECT_EQ(*request.weather, synth::WeatherRegime::kDiurnal);
  ASSERT_TRUE(request.ignition);
  EXPECT_EQ(*request.ignition, synth::IgnitionPattern::kCorner);
  ASSERT_TRUE(request.seed);
  EXPECT_EQ(*request.seed, 99u);
  ASSERT_TRUE(request.steps);
  EXPECT_EQ(*request.steps, 5);
  ASSERT_TRUE(request.step_minutes);
  EXPECT_DOUBLE_EQ(*request.step_minutes, 30.5);
  ASSERT_TRUE(request.noise);
  EXPECT_DOUBLE_EQ(*request.noise, 0.1);
  ASSERT_TRUE(request.method);
  EXPECT_EQ(*request.method, "ess-ns");
  ASSERT_TRUE(request.generations);
  EXPECT_EQ(*request.generations, 7);
  ASSERT_TRUE(request.priority);
  EXPECT_EQ(*request.priority, 3);
}

TEST(ServeProtocol, AbsentKeysStayUnset) {
  const Request request = parse_request("predict id=f1");
  EXPECT_FALSE(request.terrain);
  EXPECT_FALSE(request.size);
  EXPECT_FALSE(request.seed);
  EXPECT_FALSE(request.steps);
  EXPECT_FALSE(request.method);
  EXPECT_FALSE(request.priority);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request(""), InvalidArgument);
  EXPECT_THROW(parse_request("launch id=f1"), InvalidArgument);     // verb
  EXPECT_THROW(parse_request("predict"), InvalidArgument);          // no id
  EXPECT_THROW(parse_request("repredict steps=3"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 colour=red"),
               InvalidArgument);                                    // key
  EXPECT_THROW(parse_request("ping id=f1"), InvalidArgument);  // key gating
  EXPECT_THROW(parse_request("repredict id=f1 terrain=hills"),
               InvalidArgument);  // fire params are predict-only
  EXPECT_THROW(parse_request("predict id=f1 size=8"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 steps=1"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 seed=abc"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 terrain=swamp"),
               InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 noise"), InvalidArgument);
  EXPECT_THROW(parse_request("predict id=f1 ="), InvalidArgument);
  EXPECT_THROW(parse_request("predict id="), InvalidArgument);
}

TEST(ServeProtocol, RejectsNonFiniteNumbers) {
  // fitness_threshold=nan used to be accepted and switched off early
  // stopping; every real-valued key is finite-only.
  for (const char* key : {"fitness_threshold", "step_minutes", "noise"})
    for (const char* value : {"nan", "-nan", "inf", "-inf", "infinity"}) {
      const std::string line =
          std::string("predict id=f1 ") + key + "=" + value;
      EXPECT_THROW(parse_request(line), InvalidArgument) << line;
    }
  EXPECT_THROW(parse_request("repredict id=f1 fitness_threshold=nan"),
               InvalidArgument);
}

TEST(ServeProtocol, SearchBoundsMatchTheRunSpec) {
  // Both front doors bound the search keys through ess::set_search_key.
  for (const char* token :
       {"population=1", "generations=0", "offspring=0", "islands=0",
        "novelty_k=-1", "fitness_threshold=nan"}) {
    SCOPED_TRACE(token);
    EXPECT_THROW(ess::parse_run_spec(token), InvalidArgument);
    EXPECT_THROW(parse_request(std::string("predict id=f1 ") + token),
                 InvalidArgument);
  }
  EXPECT_EQ(ess::parse_run_spec("novelty_k=0").search.novelty_k, 0);
  const Request request = parse_request("predict id=f1 novelty_k=0");
  ASSERT_TRUE(request.novelty_k);
  EXPECT_EQ(*request.novelty_k, 0);
}

TEST(ServeProtocol, ErrorsNameTheOffendingToken) {
  try {
    parse_request("predict id=f1 generations=zero");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("generations"), std::string::npos);
    EXPECT_NE(message.find("zero"), std::string::npos);
  }
}

TEST(ServeProtocol, FormatsSucceededJobResponse) {
  service::JobRecord record;
  record.workload = "plains16-steady-center";
  record.seed = 42;
  record.status = service::JobStatus::kSucceeded;
  ess::StepReport step;
  step.step = 1;
  step.kign = 0.25;
  step.prediction_quality = 0.875;
  record.result.steps.push_back(step);
  step.step = 2;
  step.kign = 0.5;
  step.prediction_quality = 1.0;
  record.result.steps.push_back(step);

  const std::string line = format_job_response("f1", Verb::kPredict, record);
  EXPECT_EQ(line,
            "ok id=f1 kind=predict status=succeeded "
            "workload=plains16-steady-center seed=42 steps=2 "
            "mean_quality=0.9375 qualities=0.875,1 kigns=0.25,0.5");
}

TEST(ServeProtocol, FormatsFailedJobResponse) {
  service::JobRecord record;
  record.status = service::JobStatus::kFailed;
  record.error = "cancelled: drain requested (signal)";
  const std::string line = format_job_response("f1", Verb::kRepredict, record);
  EXPECT_EQ(line, "err id=f1 job failed: cancelled: drain requested (signal)");
}

TEST(ServeProtocol, G17RoundTripsDoubles) {
  for (const double value : {0.1, 1.0 / 3.0, 12345.6789, 1e-300}) {
    EXPECT_EQ(std::stod(format_g17(value)), value);
  }
}

TEST(ServeProtocol, CompactJsonFlattensPrettyOutput) {
  EXPECT_EQ(compact_json("{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"),
            "{\"a\": 1,\"b\": [2]}");
  EXPECT_EQ(compact_json("already flat"), "already flat");
  EXPECT_EQ(compact_json("cr\r\nlf"), "crlf");
}

}  // namespace
}  // namespace essns::serve
