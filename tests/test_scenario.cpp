// Unit tests for the scenario-file parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gang/policy_registry.hpp"
#include "harness/scenario.hpp"
#include "sim/rng.hpp"

namespace apsim {
namespace {

TEST(Scenario, DefaultsPropagateToRuns) {
  const auto configs = parse_scenario(R"(
[defaults]
app = MG
usable_mb = 600

[run]
label = first

[run]
label = second
app = IS
)");
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0].label, "first");
  EXPECT_EQ(configs[0].app, NpbApp::kMG);
  EXPECT_DOUBLE_EQ(configs[0].usable_memory_mb, 600.0);
  EXPECT_EQ(configs[1].app, NpbApp::kIS);  // overridden
  EXPECT_DOUBLE_EQ(configs[1].usable_memory_mb, 600.0);
}

TEST(Scenario, AllKeysParse) {
  const auto configs = parse_scenario(R"(
[run]
app = CG
class = A
nodes = 4
instances = 3
memory_mb = 512
usable_mb = 256
policy = so/ai
quantum_s = 120
quantum_override_s = 240
page_cluster = 32
bg_start_frac = 0.8
pass_ws_hint = true
seed = 99
iterations_scale = 0.5
capture_traces = yes
batch = false
label = everything
horizon_s = 1000
tier_mb = 32
tier_ratio_model = text
tier_writeback = false
io_retry_limit = 6
io_retry_base_ms = 10
io_retry_cap_ms = 160
stalled_retry_limit = 50
write_failure_streak = 5
)");
  ASSERT_EQ(configs.size(), 1u);
  const auto& c = configs[0];
  EXPECT_EQ(c.app, NpbApp::kCG);
  EXPECT_EQ(c.cls, NpbClass::kA);
  EXPECT_EQ(c.nodes, 4);
  EXPECT_EQ(c.instances, 3);
  EXPECT_DOUBLE_EQ(c.node_memory_mb, 512.0);
  EXPECT_DOUBLE_EQ(c.usable_memory_mb, 256.0);
  EXPECT_EQ(c.policy, PolicySet::parse("so/ai"));
  EXPECT_EQ(c.quantum, 120 * kSecond);
  ASSERT_TRUE(c.quantum_override.has_value());
  EXPECT_EQ(*c.quantum_override, 240 * kSecond);
  EXPECT_EQ(c.page_cluster, 32);
  EXPECT_DOUBLE_EQ(c.bg_start_frac, 0.8);
  EXPECT_TRUE(c.pass_ws_hint);
  EXPECT_EQ(c.seed, 99u);
  EXPECT_DOUBLE_EQ(c.iterations_scale, 0.5);
  EXPECT_TRUE(c.capture_traces);
  EXPECT_FALSE(c.batch_mode);
  EXPECT_EQ(c.label, "everything");
  EXPECT_EQ(c.horizon, 1000 * kSecond);
  EXPECT_DOUBLE_EQ(c.tier_mb, 32.0);
  EXPECT_EQ(c.tier_ratio_model, TierRatioModel::kText);
  EXPECT_FALSE(c.tier_writeback);
  EXPECT_EQ(c.io_retry_limit, 6);
  EXPECT_EQ(c.io_retry_base, 10 * kMillisecond);
  EXPECT_EQ(c.io_retry_cap, 160 * kMillisecond);
  EXPECT_EQ(c.stalled_fault_retry_limit, 50);
  EXPECT_EQ(c.write_failure_streak_limit, 5);
}

TEST(Scenario, RejectsUnknownTierRatioModel) {
  EXPECT_THROW((void)parse_scenario("[run]\ntier_ratio_model = brotli\n"),
               std::invalid_argument);
}

TEST(Scenario, CommentsAndBlanksIgnored) {
  const auto configs = parse_scenario(R"(
# a comment
[run]
# another
label = x

)");
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].label, "x");
}

TEST(Scenario, EmptyInputYieldsNoRuns) {
  EXPECT_TRUE(parse_scenario("").empty());
  EXPECT_TRUE(parse_scenario("# only comments\n").empty());
}

TEST(Scenario, ErrorsCarryLineNumbers) {
  try {
    (void)parse_scenario("[run]\nnodes = many\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Scenario, RejectsUnknownKey) {
  EXPECT_THROW((void)parse_scenario("[run]\nbogus = 1\n"),
               std::invalid_argument);
}

TEST(Scenario, RejectsKeyOutsideSection) {
  EXPECT_THROW((void)parse_scenario("app = LU\n"), std::invalid_argument);
}

TEST(Scenario, RejectsUnknownSection) {
  EXPECT_THROW((void)parse_scenario("[wat]\n"), std::invalid_argument);
}

TEST(Scenario, RejectsDefaultsAfterRun) {
  EXPECT_THROW((void)parse_scenario("[run]\nlabel=a\n[defaults]\napp=LU\n"),
               std::invalid_argument);
}

TEST(Scenario, RejectsBadBooleanAndNumber) {
  EXPECT_THROW((void)parse_scenario("[run]\nbatch = perhaps\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("[run]\nseed = 1.5\n"),
               std::invalid_argument);
}

// Regression: number parsing is strict. "5x" is not 5, and the textual
// non-finites ("inf", "nan") are not valid values for any knob.

TEST(Scenario, RejectsTrailingJunkOnNumbers) {
  EXPECT_THROW((void)parse_scenario("[run]\nmemory_mb = 512x\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("[run]\nquantum_s = 120 s\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("[run]\nbg_start_frac = 0.8.1\n"),
               std::invalid_argument);
}

TEST(Scenario, RejectsNonFiniteNumbers) {
  for (const char* bad : {"inf", "-inf", "nan", "Infinity", "NAN"}) {
    EXPECT_THROW((void)parse_scenario(std::string("[run]\nmemory_mb = ") +
                                      bad + "\n"),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Scenario, RejectsEmptyNumber) {
  EXPECT_THROW((void)parse_scenario("[run]\nmemory_mb =\n"),
               std::invalid_argument);
}

TEST(Scenario, BadNumberMessageNamesKeyAndValue) {
  try {
    (void)parse_scenario("[run]\nusable_mb = 5x\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad number"), std::string::npos) << what;
    EXPECT_NE(what.find("usable_mb"), std::string::npos) << what;
    EXPECT_NE(what.find("5x"), std::string::npos) << what;
  }
}

TEST(Scenario, StrictNumbersStillAcceptValidForms) {
  const auto configs = parse_scenario(R"(
[run]
memory_mb = 512.25
usable_mb = 4e2
bg_start_frac = -0.5
iterations_scale = .75
)");
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_DOUBLE_EQ(configs[0].node_memory_mb, 512.25);
  EXPECT_DOUBLE_EQ(configs[0].usable_memory_mb, 400.0);
  EXPECT_DOUBLE_EQ(configs[0].bg_start_frac, -0.5);
  EXPECT_DOUBLE_EQ(configs[0].iterations_scale, 0.75);
}

TEST(Scenario, ApplyKeyDirect) {
  ExperimentConfig config;
  apply_scenario_key(config, "policy", "so");
  EXPECT_TRUE(config.policy.selective_out);
  EXPECT_THROW(apply_scenario_key(config, "nope", "1"), std::invalid_argument);
}

TEST(Scenario, OpenArrivalKeysParse) {
  const auto configs = parse_scenario(R"(
[run]
sched_policy = backfill
dfrs_mem_frac = 0.7
dfrs_max_share = 3
auto_migrate = true
arrival = diurnal
arrival_mean_s = 2.5
diurnal_period_s = 120
diurnal_low_frac = 0.3
tenants = 4
straggler_fraction = 0.1
straggler_slowdown = 6
deadline_slack = 2
job_width_max = 2
job_pages_min = 100
job_pages_max = 900
job_iterations_min = 3
job_iterations_max = 9
)");
  ASSERT_EQ(configs.size(), 1u);
  const auto& c = configs[0];
  EXPECT_EQ(c.sched_policy, "backfill");
  EXPECT_DOUBLE_EQ(c.dfrs_mem_frac, 0.7);
  EXPECT_EQ(c.dfrs_max_share, 3);
  EXPECT_TRUE(c.auto_migrate);
  EXPECT_EQ(c.arrival_process, "diurnal");
  EXPECT_DOUBLE_EQ(c.arrival_mean_s, 2.5);
  EXPECT_DOUBLE_EQ(c.diurnal_period_s, 120.0);
  EXPECT_DOUBLE_EQ(c.diurnal_low_frac, 0.3);
  EXPECT_EQ(c.num_tenants, 4);
  EXPECT_DOUBLE_EQ(c.straggler_fraction, 0.1);
  EXPECT_DOUBLE_EQ(c.straggler_slowdown, 6.0);
  EXPECT_DOUBLE_EQ(c.deadline_slack, 2.0);
  EXPECT_EQ(c.open_max_width, 2);
  EXPECT_EQ(c.open_min_pages, 100);
  EXPECT_EQ(c.open_max_pages, 900);
  EXPECT_EQ(c.open_min_iterations, 3);
  EXPECT_EQ(c.open_max_iterations, 9);
}

// Registry fuzz: config validation resolves sched_policy through the policy
// registry, so mangled names must be rejected with a hint naming the valid
// set, and the dynamic-registration API must hold its invariants (no
// shadowing built-ins, duplicates rejected, teardown removes exactly the
// dynamic entry) no matter the registration order a test happens to use.

TEST(Scenario, UnknownSchedPolicyRejectedWithHint) {
  ExperimentConfig config;
  config.sched_policy = "lottery";
  try {
    config.validate();
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lottery"), std::string::npos) << what;
    for (const std::string& name : sched_policy_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(Scenario, FuzzedSchedPolicyNamesNeverValidateSilently) {
  // Seeded mutation fuzz: take valid names, mangle them (case flip, byte
  // twiddle, truncation, suffix), and check the registry either recognises
  // the exact original or throws — never accepts a near-miss.
  Rng rng(0xfeedface);
  const std::vector<std::string> names = sched_policy_names();
  auto index = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  for (int round = 0; round < 200; ++round) {
    std::string name = names[index(names.size())];
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip the case of one character
        name[index(name.size())] ^= 0x20;
        break;
      case 1:  // twiddle one byte out of the printable-lowercase range
        name[index(name.size())] =
            static_cast<char>(rng.uniform_int('{', '~'));
        break;
      case 2:  // truncate
        name.resize(index(name.size()));
        break;
      default:  // append a suffix
        name += static_cast<char>(rng.uniform_int('a', 'z'));
        break;
    }
    if (is_sched_policy(name)) {
      // The mangling happened to reproduce a registered name; fine.
      EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
          << name;
      continue;
    }
    EXPECT_THROW((void)make_sched_policy(name), std::invalid_argument) << name;
    ExperimentConfig config;
    config.sched_policy = name;
    EXPECT_THROW(config.validate(), std::invalid_argument) << name;
  }
}

TEST(Scenario, DynamicPolicyRegistrationLifecycle) {
  const auto before = sched_policy_names();
  // A dynamic registration becomes visible, resolvable and valid in configs.
  register_sched_policy("test-dynamic", [] { return make_sched_policy("matrix"); });
  EXPECT_TRUE(is_sched_policy("test-dynamic"));
  EXPECT_NE(make_sched_policy("test-dynamic"), nullptr);
  ExperimentConfig config;
  config.sched_policy = "test-dynamic";
  EXPECT_NO_THROW(config.validate());
  // Duplicates are rejected, for dynamic names and built-ins alike.
  EXPECT_THROW(register_sched_policy(
                   "test-dynamic", [] { return make_sched_policy("matrix"); }),
               std::invalid_argument);
  EXPECT_THROW(register_sched_policy(
                   "matrix", [] { return make_sched_policy("matrix"); }),
               std::invalid_argument);
  EXPECT_THROW(register_sched_policy(
                   "", [] { return make_sched_policy("matrix"); }),
               std::invalid_argument);
  // Teardown removes exactly the dynamic entry; built-ins are immovable.
  EXPECT_TRUE(unregister_sched_policy("test-dynamic"));
  EXPECT_FALSE(unregister_sched_policy("test-dynamic"));
  EXPECT_FALSE(unregister_sched_policy("matrix"));
  EXPECT_EQ(sched_policy_names(), before);
}

TEST(Scenario, OpenArrivalConfigRejectsBatchMode) {
  ExperimentConfig config;
  config.arrival_process = "poisson";
  config.batch_mode = true;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.batch_mode = false;
  EXPECT_NO_THROW(config.validate());
  // Checkpoint state is sized at start() and both tickers stop at the
  // first idle gap, so an open stream takes neither subsystem.
  config.checkpoint_interval = 3 * kSecond;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.checkpoint_interval = 0;
  config.autotune = true;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.autotune = false;
  EXPECT_NO_THROW(config.validate());
  config.arrival_process = "weibull";
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace apsim
