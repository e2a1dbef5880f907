// Tests for the PCC Vivace sender: utility-driven rate control, loss
// tolerance below its utility threshold, latency-gradient sensitivity, and
// integration as an adversary target.
#include <gtest/gtest.h>

#include "cc/multiflow.hpp"
#include "cc/vivace.hpp"
#include "core/cc_adversary.hpp"
#include "util/rng.hpp"

namespace {

using namespace netadv;
using netadv::util::Rng;

cc::LinkSim::Params link_with(double bw, double owd, double loss) {
  cc::LinkSim::Params p;
  p.initial = {bw, owd, loss};
  return p;
}

TEST(Vivace, ConvergesToLinkCapacity) {
  cc::VivaceSender vivace;
  cc::MultiFlowRunner runner{{&vivace}, link_with(12.0, 30.0, 0.0), 7};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(20.0);
  const auto interval = runner.collect();
  EXPECT_GT(interval.aggregate_utilization(), 0.85);
  EXPECT_NEAR(vivace.base_rate_mbps(), 12.0, 3.0);
}

TEST(Vivace, ToleratesOnePercentLoss) {
  // Vivace's loss coefficient (11.35) gives a designed random-loss
  // tolerance of several percent — the Section 4 contrast with Cubic/Reno.
  cc::VivaceSender vivace;
  cc::MultiFlowRunner runner{{&vivace}, link_with(12.0, 30.0, 0.01), 11};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(20.0);
  EXPECT_GT(runner.collect().aggregate_utilization(), 0.7);
}

TEST(Vivace, BacksOffUnderHeavyLoss) {
  cc::VivaceSender vivace;
  cc::MultiFlowRunner runner{{&vivace}, link_with(12.0, 30.0, 0.10), 13};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(20.0);
  // At 10% the utility's loss term dominates; Vivace should not saturate.
  EXPECT_LT(runner.collect().aggregate_utilization(), 0.8);
}

TEST(Vivace, AvoidsStandingQueues) {
  // The latency-gradient penalty keeps Vivace from filling the buffer the
  // way loss-probing protocols do.
  cc::VivaceSender vivace;
  cc::MultiFlowRunner runner{{&vivace}, link_with(12.0, 30.0, 0.0), 17};
  runner.run_until(5.0);
  runner.collect();
  runner.run_until(20.0);
  EXPECT_LT(runner.collect().flows[0].mean_queue_delay_s, 0.1);
}

TEST(Vivace, TracksBandwidthChange) {
  cc::VivaceSender vivace;
  cc::MultiFlowRunner runner{{&vivace}, link_with(6.0, 30.0, 0.0), 19};
  runner.run_until(10.0);
  const double rate_low = vivace.base_rate_mbps();
  runner.set_conditions({24.0, 30.0, 0.0});
  runner.run_until(30.0);
  EXPECT_GT(vivace.base_rate_mbps(), rate_low * 1.5);
}

TEST(Vivace, AmplifierGrowsWithConsistentDirection) {
  cc::VivaceSender vivace;
  cc::MultiFlowRunner runner{{&vivace}, link_with(24.0, 30.0, 0.0), 23};
  // Starting at 2 Mbps on a 24 Mbps link: a long run of "up" decisions.
  int max_amp = 1;
  for (double t = 0.1; t <= 4.0; t += 0.1) {
    runner.run_until(t);
    max_amp = std::max(max_amp, vivace.amplifier());
  }
  EXPECT_GT(max_amp, 1);
}

TEST(Vivace, ValidatesParams) {
  cc::VivaceSender::Params bad;
  bad.probe_epsilon = 0.0;
  EXPECT_THROW(cc::VivaceSender{bad}, std::invalid_argument);
  cc::VivaceSender::Params bad2;
  bad2.utility_exponent = 1.0;
  EXPECT_THROW(cc::VivaceSender{bad2}, std::invalid_argument);
  cc::VivaceSender::Params bad3;
  bad3.max_rate_mbps = bad3.min_rate_mbps;
  EXPECT_THROW(cc::VivaceSender{bad3}, std::invalid_argument);
}

TEST(Vivace, StartResetsState) {
  cc::VivaceSender vivace;
  cc::MultiFlowRunner runner{{&vivace}, link_with(24.0, 30.0, 0.0), 29};
  runner.run_until(10.0);
  EXPECT_GT(vivace.base_rate_mbps(), 5.0);
  vivace.start(0.0);
  EXPECT_DOUBLE_EQ(vivace.base_rate_mbps(), 2.0);
  EXPECT_EQ(vivace.amplifier(), 1);
}

TEST(Vivace, WorksAsCcAdversaryTarget) {
  core::CcAdversaryEnv::Params p;
  p.episode_duration_s = 1.0;
  core::CcAdversaryEnv env{p, [] {
    return std::unique_ptr<cc::CcSender>(std::make_unique<cc::VivaceSender>());
  }};
  Rng rng{31};
  env.reset(rng);
  rl::StepResult r{};
  while (!r.done) r = env.step({0.0, 0.0, -1.0}, rng);
  EXPECT_EQ(env.sender()->name(), "vivace");
}

}  // namespace
