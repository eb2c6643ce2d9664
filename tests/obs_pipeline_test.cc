// End-to-end observability: a full SQM run (n = 5 parties, PCA-style
// second-moment release over BGW) must leave behind (1) a Chrome trace
// with per-party share / mul / open spans, (2) transport traffic totals
// that reconcile EXACTLY with the per-channel breakdown, and (3) a
// privacy ledger embedded in the report.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/json.h"
#include "core/sqm.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

constexpr size_t kParties = 5;

Matrix SmallDatabase(size_t rows, size_t cols, uint64_t seed) {
  Matrix x(rows, cols);
  Rng rng(seed);
  for (auto& v : x.data()) v = rng.NextDouble() - 0.5;
  return x;
}

SqmOptions PcaStyleOptions() {
  SqmOptions options;
  options.mu = 25.0;
  options.gamma = 64.0;
  options.seed = 99;
  options.quantize_coefficients = false;  // PCA instantiation.
  options.backend = MpcBackend::kBgw;
  return options;
}

/// Fresh global obs state per test: counters zeroed, trace and global
/// ledger emptied, switch on.
class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().ResetAll();
    obs::Tracer::Global().Clear();
    obs::PrivacyLedger::Global().Clear();
  }
};

TEST_F(ObsPipelineTest, FullRunProducesPerPartyBgwSpans) {
  const Matrix x = SmallDatabase(8, kParties, 1);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  ASSERT_FALSE(report.estimate.empty());

  // Which party tracks carried each protocol phase?
  std::set<int32_t> share_tracks;
  std::set<int32_t> mul_tracks;
  std::set<int32_t> open_tracks;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Collect()) {
    const std::string name = event.name;
    if (name == "bgw.share") share_tracks.insert(event.track);
    if (name == "bgw.mul.deal") mul_tracks.insert(event.track);
    if (name == "bgw.open.broadcast") open_tracks.insert(event.track);
  }
  for (size_t j = 0; j < kParties; ++j) {
    const int32_t track = static_cast<int32_t>(j);
    EXPECT_TRUE(share_tracks.count(track)) << "no share span for party " << j;
    EXPECT_TRUE(mul_tracks.count(track)) << "no mul span for party " << j;
    EXPECT_TRUE(open_tracks.count(track)) << "no open span for party " << j;
  }
}

TEST_F(ObsPipelineTest, ChromeTraceJsonLoadsWithNamedPartyRows) {
  const Matrix x = SmallDatabase(6, kParties, 2);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  ASSERT_TRUE(SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ok());

  const std::string json = obs::Tracer::Global().ToChromeTraceJson();
  const JsonValue root = ParseJson(json).ValueOrDie();
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> track_names;
  std::set<std::string> span_names;
  for (const JsonValue& event : events->items) {
    const std::string ph = event.Find("ph")->string_value;
    if (ph == "M") {
      track_names.insert(event.Find("args")->Find("name")->string_value);
    } else if (ph == "X") {
      span_names.insert(event.Find("name")->string_value);
    }
  }
  for (size_t j = 0; j < kParties; ++j) {
    EXPECT_TRUE(track_names.count("party " + std::to_string(j)));
  }
  EXPECT_TRUE(track_names.count("driver"));
  // The taxonomy the acceptance criteria name: distinct share / mul /
  // open spans, plus pipeline and transport levels.
  for (const char* required :
       {"bgw.share", "bgw.mul", "bgw.mul.deal", "bgw.mul.recombine",
        "bgw.open", "bgw.open.broadcast", "sqm.evaluate", "sqm.quantize",
        "sqm.mpc_compute", "net.send"}) {
    EXPECT_TRUE(span_names.count(required)) << "missing span " << required;
  }
}

/// TransportStats is the only traffic account: its totals must equal the
/// sum over its per-channel breakdown, field for field.
void ExpectTotalsEqualChannelSums(const TransportStats& transport) {
  NetworkStats sum;
  for (const ChannelStats& channel : transport.channels) {
    sum.messages += channel.messages;
    sum.field_elements += channel.field_elements;
    sum.wire_bytes += channel.wire_bytes;
  }
  EXPECT_EQ(transport.totals.messages, sum.messages);
  EXPECT_EQ(transport.totals.field_elements, sum.field_elements);
  EXPECT_EQ(transport.totals.wire_bytes, sum.wire_bytes);
  EXPECT_GT(transport.totals.wire_bytes, 0u);
}

TEST_F(ObsPipelineTest, TransportTotalsEqualPerChannelSums) {
  const Matrix x = SmallDatabase(8, kParties, 3);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  ExpectTotalsEqualChannelSums(report.transport);
  EXPECT_EQ(report.network.wire_bytes, report.transport.totals.wire_bytes);
  EXPECT_EQ(report.network.rounds, report.transport.totals.rounds);
}

TEST_F(ObsPipelineTest, ReportEmbedsPrivacyLedger) {
  const Matrix x = SmallDatabase(8, kParties, 4);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();

  ASSERT_FALSE(report.ledger.empty());
  const obs::LedgerEntry& spend = report.ledger.back();
  EXPECT_EQ(spend.label, "sqm_release");
  EXPECT_GT(spend.mu, 0.0);
  EXPECT_DOUBLE_EQ(spend.delta, 1e-5);
  EXPECT_GT(spend.epsilon, 0.0);
  // The ledger's cumulative epsilon is the report's realized epsilon: one
  // release, same accountant, same delta.
  EXPECT_NEAR(spend.cumulative_epsilon, report.dropout.realized_epsilon,
              1e-12);
  // Forwarded to the global stream too.
  EXPECT_GE(obs::PrivacyLedger::Global().size(), 1u);
}

TEST_F(ObsPipelineTest, KillSwitchSuppressesTraceAndMetricsButNotReport) {
  const Matrix x = SmallDatabase(6, kParties, 5);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);

  // The clients' Sk(mu/n) draws feed the sampler's registry counter.
  const auto noise_draws = [] {
    const obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
    return snapshot.CounterValue("sampler.poisson.knuth_draws") +
           snapshot.CounterValue("sampler.poisson.ptrs_draws");
  };

  obs::SetEnabled(false);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  obs::SetEnabled(true);

  EXPECT_EQ(obs::Tracer::Global().num_events(), 0u);
  EXPECT_EQ(noise_draws(), 0u);
  EXPECT_EQ(obs::PrivacyLedger::Global().size(), 0u);
  // The report's own data is NOT gated: transport accounting and the
  // local ledger mirror are results, not telemetry.
  EXPECT_GT(report.transport.totals.messages, 0u);
  EXPECT_FALSE(report.ledger.empty());

  // The same run with the switch on does write the counter.
  ASSERT_TRUE(SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ok());
  EXPECT_GT(noise_draws(), 0u);
}

TEST_F(ObsPipelineTest, DisabledRunReleasesIdenticalValues) {
  const Matrix x = SmallDatabase(8, kParties, 6);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);

  const SqmReport traced =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  obs::SetEnabled(false);
  const SqmReport dark =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  obs::SetEnabled(true);
  EXPECT_EQ(traced.raw, dark.raw);  // Instrumentation never perturbs results.
}

TEST_F(ObsPipelineTest, ThreadedTransportReconcilesToo) {
  const Matrix x = SmallDatabase(6, kParties, 7);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  SqmOptions options = PcaStyleOptions();
  options.transport = TransportMode::kThreaded;
  const SqmReport report =
      SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  ExpectTotalsEqualChannelSums(report.transport);
}

}  // namespace
}  // namespace sqm
