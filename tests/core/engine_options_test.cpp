// EngineContext / OptionSpec range agreement: validate() (the CLI and
// library path) and apply_engine_options() (the job path) must accept the
// same ranges, and a job naming an option no engine advertises is refused.
//
// Kept out of engine_test.cpp on purpose: that binary's golden test names
// embed the addresses of its string literals (gtest prints the GoldenCase
// param bytes), so new literals there would rename those tests.
#include "core/engine.h"

#include <string>

#include <gtest/gtest.h>

#include "util/json.h"

namespace sfqpart {
namespace {

// validate() caps the knobs that size allocations (thread pool, restart
// streams, G x K matrix) at their OptionSpec maximum. Only validate()
// runs here: no pool or matrix is ever built.
TEST(EngineContextRange, ValidateCapsSizeKnobsAtSpecMaximum) {
  EngineContext threads;
  threads.threads = 513;
  EXPECT_TRUE(threads.validate().is_invalid_argument());
  threads.threads = 512;
  EXPECT_TRUE(threads.validate().is_ok());

  EngineContext restarts;
  restarts.restarts = 4097;
  EXPECT_TRUE(restarts.validate().is_invalid_argument());
  restarts.restarts = 4096;
  EXPECT_TRUE(restarts.validate().is_ok());

  EngineContext planes;
  planes.num_planes = 1025;
  const Status status = planes.validate();
  EXPECT_TRUE(status.is_invalid_argument());
  EXPECT_NE(status.message().find("1024"), std::string::npos)
      << status.message();
  planes.num_planes = 1024;
  EXPECT_TRUE(planes.validate().is_ok());
}

// The gradient engine has no fast_math knob: a job naming it is refused
// like any unknown option, never silently run.
TEST(EngineContextRange, GradientRejectsFastMathOption) {
  const auto engine = EngineRegistry::create("gradient");
  ASSERT_TRUE(engine.is_ok());
  EngineContext context;
  const Status status = apply_engine_options(
      (*engine)->describe_options(), *Json::parse(R"({"fast_math": true})"),
      context);
  EXPECT_TRUE(status.is_invalid_argument());
  EXPECT_NE(status.message().find("fast_math"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace sfqpart
