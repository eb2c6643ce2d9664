// The per-party execution path (RunPartySqm, a BgwEngine hosting {me})
// must be a bit-exact mirror of the driver path (SqmEvaluator, a BgwEngine
// hosting every party): same seed, same config, same released values —
// down to the last bit — even though one runs n processes over TCP and the
// other runs single-threaded over the lockstep transport. These tests run the
// per-party side as three threads with real loopback sockets in one
// process, which keeps the suite hermetic while exercising the identical
// code the sqm-party daemon runs.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/party_sqm.h"
#include "core/sqm.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"
#include "poly/parser.h"

namespace {

using sqm::net::ListenOn;
using sqm::net::LocalPort;
using sqm::net::Socket;
using sqm::net::TcpSupported;

sqm::DeploymentConfig BaseConfig(size_t n) {
  sqm::DeploymentConfig config;
  config.run_id = 17;
  config.session_key = 0xc0ffee;
  config.parties.assign(n, {"127.0.0.1", 0});
  config.rows = 8;
  config.cols = n;
  config.data_seed = 7;
  config.polynomial = "x0*x1; x1*x2";
  config.gamma = 64;
  config.seed = 42;
  config.dp_delta = 1e-5;
  config.receive_timeout_seconds = 1.0;
  config.connect_timeout_seconds = 10.0;
  return config;
}

constexpr size_t kNobodyLeaves = static_cast<size_t>(-1);

/// Runs every party of `config` as a thread over a real loopback mesh and
/// returns the n reports (all asserted ok). Party `leaver` instead drops
/// out: its mul-level hook shuts down its own transport at the first
/// multiplication level, and its report is left empty.
std::vector<sqm::SqmReport> RunNetworked(sqm::DeploymentConfig config,
                                         size_t leaver = kNobodyLeaves) {
  const size_t n = config.parties.size();
  std::vector<Socket> listeners;
  for (size_t i = 0; i < n; ++i) {
    sqm::Result<Socket> listener = ListenOn("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    sqm::Result<uint16_t> port = LocalPort(listener.ValueOrDie());
    EXPECT_TRUE(port.ok()) << port.status().ToString();
    config.parties[i].port = port.ValueOrDie();
    listeners.push_back(std::move(listener.ValueOrDie()));
  }

  std::vector<sqm::SqmReport> reports(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    const int fd = listeners[i].Release();
    threads.emplace_back([&, i, fd] {
      sqm::Result<std::unique_ptr<sqm::TcpTransport>> transport =
          sqm::TcpTransport::Create(
              sqm::TcpOptionsFromDeployment(config, i, fd));
      if (!transport.ok()) {
        errors[i] = "transport: " + transport.status().ToString();
        return;
      }
      sqm::TcpTransport* tcp = transport.ValueOrDie().get();
      sqm::PartySqmHooks hooks;
      if (i == leaver) {
        hooks.mul_level_hook = [tcp](size_t level) {
          if (level == 1) tcp->Shutdown();
        };
      }
      sqm::Result<sqm::SqmReport> report =
          sqm::RunPartySqm(config, i, tcp, hooks);
      tcp->Shutdown();
      if (i == leaver) return;
      if (!report.ok()) {
        errors[i] = report.status().ToString();
        return;
      }
      reports[i] = report.ValueOrDie();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(errors[i].empty()) << "party " << i << ": " << errors[i];
  }
  return reports;
}

/// The driver-side reference for the same config, with the lockstep
/// transport's crash schedule.
sqm::SqmReport RunLockstep(const sqm::DeploymentConfig& config,
                           std::vector<sqm::CrashEvent> crashes = {}) {
  sqm::Result<sqm::SqmOptions> options =
      sqm::SqmOptionsFromDeployment(config);
  EXPECT_TRUE(options.ok()) << options.status().ToString();
  options.ValueOrDie().threaded.faults.crashes = std::move(crashes);
  const sqm::Matrix x = sqm::GenerateDeploymentMatrix(
      config.rows, sqm::DeploymentCols(config), config.data_seed);
  sqm::Result<sqm::PolynomialVector> f =
      sqm::ParsePolynomialVector(config.polynomial);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  sqm::SqmEvaluator evaluator(options.ValueOrDie());
  sqm::Result<sqm::SqmReport> report =
      evaluator.Evaluate(f.ValueOrDie(), x);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.ValueOrDie() : sqm::SqmReport();
}

/// The networked report's dropout block and privacy ledger must equal the
/// in-process reference field for field: both drivers run the same
/// accounting code on the same public inputs. Ledger timestamps
/// (elapsed_seconds) are wall-clock and the only field left out.
void ExpectSameAccounting(const sqm::SqmReport& got,
                          const sqm::SqmReport& want) {
  const sqm::DropoutReport& a = got.dropout;
  const sqm::DropoutReport& b = want.dropout;
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.num_parties, b.num_parties);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.num_dropped, b.num_dropped);
  EXPECT_EQ(a.configured_mu, b.configured_mu);
  EXPECT_EQ(a.realized_mu, b.realized_mu);
  EXPECT_EQ(a.topup_mu, b.topup_mu);
  EXPECT_EQ(a.configured_epsilon, b.configured_epsilon);
  EXPECT_EQ(a.realized_epsilon, b.realized_epsilon);
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_EQ(a.best_alpha, b.best_alpha);
  EXPECT_EQ(a.mpc_attempts, b.mpc_attempts);
  EXPECT_EQ(a.resumed_from_level, b.resumed_from_level);

  ASSERT_EQ(got.ledger.size(), want.ledger.size());
  for (size_t i = 0; i < got.ledger.size(); ++i) {
    SCOPED_TRACE("ledger entry " + std::to_string(i));
    const sqm::obs::LedgerEntry& x = got.ledger[i];
    const sqm::obs::LedgerEntry& y = want.ledger[i];
    EXPECT_EQ(x.sequence, y.sequence);
    EXPECT_EQ(x.mechanism, y.mechanism);
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.mu, y.mu);
    EXPECT_EQ(x.gamma, y.gamma);
    EXPECT_EQ(x.dimension, y.dimension);
    EXPECT_EQ(x.l1_sensitivity, y.l1_sensitivity);
    EXPECT_EQ(x.l2_sensitivity, y.l2_sensitivity);
    EXPECT_EQ(x.sampling_rate, y.sampling_rate);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.epsilon, y.epsilon);
    EXPECT_EQ(x.delta, y.delta);
    EXPECT_EQ(x.best_alpha, y.best_alpha);
    EXPECT_EQ(x.cumulative_epsilon, y.cumulative_epsilon);
    EXPECT_EQ(x.contributors, y.contributors);
    EXPECT_EQ(x.expected_contributors, y.expected_contributors);
    EXPECT_EQ(x.deficit_mu, y.deficit_mu);
  }
}

/// A config with the supervised-recovery knobs set to sensible values, as
/// the chaos suite deploys them. Serializing and re-parsing it is how the
/// coordinator actually hands configs to daemons, so the validation tests
/// below go through that exact path.
sqm::DeploymentConfig RecoveryConfig() {
  sqm::DeploymentConfig config = BaseConfig(3);
  config.max_restarts = 2;
  config.restart_backoff_seconds = 0.25;
  config.recovery_deadline_seconds = 20.0;
  return config;
}

TEST(DeploymentConfigJson, RecoveryAndChaosKnobsRoundTrip) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.chaos_seed = 777;
  config.chaos_phase = "mul";
  config.chaos_max_events = 3;
  config.chaos_reset_probability = 0.2;
  config.chaos_partial_write_probability = 0.15;
  config.chaos_stall_probability = 0.1;
  config.chaos_stall_seconds = 0.05;
  config.chaos_partition_peer = 3;
  config.chaos_partition_sends = 2;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::DeploymentConfig& got = parsed.ValueOrDie();
  EXPECT_EQ(got.max_restarts, 2u);
  EXPECT_EQ(got.restart_backoff_seconds, 0.25);
  EXPECT_EQ(got.recovery_deadline_seconds, 20.0);
  EXPECT_EQ(got.chaos_seed, 777u);
  EXPECT_EQ(got.chaos_phase, "mul");
  EXPECT_EQ(got.chaos_max_events, 3u);
  EXPECT_EQ(got.chaos_reset_probability, 0.2);
  EXPECT_EQ(got.chaos_partial_write_probability, 0.15);
  EXPECT_EQ(got.chaos_stall_probability, 0.1);
  EXPECT_EQ(got.chaos_stall_seconds, 0.05);
  EXPECT_EQ(got.chaos_partition_peer, 3u);
  EXPECT_EQ(got.chaos_partition_sends, 2u);
}

TEST(DeploymentConfigJson, NegativeMaxRestartsIsRejected) {
  std::string json = sqm::DeploymentConfigToJson(RecoveryConfig());
  const std::string key = "\"max_restarts\":2";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, key.size(), "\"max_restarts\":-1");
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(json);
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, RestartsWithoutRecoveryDeadlineIsRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.recovery_deadline_seconds = 0.0;  // Restarts could never rejoin.
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, NegativeRecoveryKnobsAreRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.restart_backoff_seconds = -0.5;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();

  config = RecoveryConfig();
  config.max_restarts = 0;
  config.recovery_deadline_seconds = -1.0;
  parsed = sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, ChaosProbabilityOutOfRangeIsRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.chaos_reset_probability = 1.5;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();

  config = RecoveryConfig();
  config.chaos_stall_probability = -0.1;
  parsed = sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, NegativeChaosStallSecondsIsRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.chaos_stall_seconds = -0.05;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(PartySqm, NoiselessTcpRunMatchesLockstepBitForBit) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  const sqm::DeploymentConfig config = BaseConfig(3);
  const std::vector<sqm::SqmReport> reports = RunNetworked(config);
  ASSERT_EQ(reports.size(), 3u);
  // Every party releases the same values...
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].raw, reports[0].raw) << "party " << i << " differs";
  }
  // ...and they are the driver's values, bit for bit.
  const sqm::SqmReport reference = RunLockstep(config);
  ASSERT_FALSE(reference.raw.empty());
  EXPECT_EQ(reports[0].raw, reference.raw);
}

TEST(PartySqm, NoisyQuantizedRunMatchesLockstepBitForBit) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  sqm::DeploymentConfig config = BaseConfig(3);
  config.run_id = 18;
  config.mu = 4.0;
  config.quantize_coefficients = true;
  config.polynomial = "x0*x1 + x2; x2*x2";
  const std::vector<sqm::SqmReport> reports = RunNetworked(config);
  ASSERT_EQ(reports.size(), 3u);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].raw, reports[0].raw) << "party " << i << " differs";
  }
  const sqm::SqmReport reference = RunLockstep(config);
  ASSERT_FALSE(reference.raw.empty());
  EXPECT_EQ(reports[0].raw, reference.raw);
  // The DP accounting is computed from public inputs on both sides; it
  // must agree exactly as well, on every party.
  ASSERT_EQ(reference.ledger.size(), 1u);
  for (size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("party " + std::to_string(i));
    ExpectSameAccounting(reports[i], reference);
  }
}

TEST(PartySqm, FourPartiesWithThresholdOne) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  sqm::DeploymentConfig config = BaseConfig(4);
  config.run_id = 19;
  config.bgw_threshold = 1;
  config.mu = 2.0;
  config.dropout_policy = "degrade";
  config.polynomial = "x0*x1; x2*x3";
  const std::vector<sqm::SqmReport> reports = RunNetworked(config);
  ASSERT_EQ(reports.size(), 4u);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].raw, reports[0].raw) << "party " << i << " differs";
  }
  const sqm::SqmReport reference = RunLockstep(config);
  EXPECT_EQ(reports[0].raw, reference.raw);
  // Nothing dropped: full noise, full quorum.
  EXPECT_EQ(reports[0].dropout.num_dropped, 0u);
  ASSERT_EQ(reference.ledger.size(), 1u);
  for (size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("party " + std::to_string(i));
    ExpectSameAccounting(reports[i], reference);
    // Both run the quorum census, so every process counts the in-process
    // run's rounds.
    EXPECT_EQ(reports[i].network.rounds, reference.network.rounds);
  }

  // A real dropout, under both quorum policies: party 3 leaves at the
  // first multiplication level. Over TCP its hook shuts down its own
  // transport; in-process the lockstep crash schedule stops it once the
  // four input rounds (one per party) are done, before the same level.
  for (const char* policy : {"degrade", "topup"}) {
    SCOPED_TRACE(policy);
    config.run_id = 20;
    config.dropout_policy = policy;
    const std::vector<sqm::SqmReport> survivors =
        RunNetworked(config, /*leaver=*/3);
    const sqm::SqmReport dropped =
        RunLockstep(config, {sqm::CrashEvent{3, 4}});
    ASSERT_FALSE(dropped.raw.empty());
    EXPECT_EQ(dropped.dropout.survivors, (std::vector<size_t>{0, 1, 2}));
    EXPECT_EQ(dropped.dropout.num_dropped, 1u);
    EXPECT_GT(dropped.dropout.realized_mu, 0.0);
    ASSERT_EQ(dropped.ledger.size(), 1u);
    for (size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE("party " + std::to_string(i));
      EXPECT_EQ(survivors[i].raw, dropped.raw);
      ExpectSameAccounting(survivors[i], dropped);
    }
  }
}

}  // namespace
