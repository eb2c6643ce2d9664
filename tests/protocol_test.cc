#include "mpc/protocol.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/liveness.h"
#include "net/lockstep.h"
#include "net/runner.h"
#include "net/threaded.h"

namespace sqm {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  static constexpr size_t kParties = 5;
  static constexpr size_t kThreshold = 2;

  ProtocolTest()
      : network_(kParties, 0.0, Field::kWireBytes),
        protocol_(ShamirScheme(kParties, kThreshold), &network_, 99) {}

  LockstepTransport network_;
  BgwProtocol protocol_;
};

TEST_F(ProtocolTest, ShareAndOpenRoundTrip) {
  const std::vector<int64_t> values{7, -3, 0, 100000};
  const SharedVector shared =
      protocol_.ShareFromParty(0, Field::EncodeVector(values)).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(shared).ValueOrDie(), values);
}

TEST_F(ProtocolTest, SharesHideTheSecretFromBelowThresholdCoalitions) {
  // With threshold 2, any 2 shares are uniform. Coarse check: repeated
  // sharings of the same value produce different share pairs.
  const std::vector<int64_t> secret{5};
  const SharedVector s1 =
      protocol_.ShareFromParty(0, Field::EncodeVector(secret)).ValueOrDie();
  const SharedVector s2 =
      protocol_.ShareFromParty(0, Field::EncodeVector(secret)).ValueOrDie();
  EXPECT_NE(s1.shares(1)[0], s2.shares(1)[0]);
}

TEST_F(ProtocolTest, AddIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2, 3})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({10, -20, 30}))
          .ValueOrDie();
  const SharedVector sum = protocol_.Add(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(sum).ValueOrDie(),
            (std::vector<int64_t>{11, -18, 33}));
}

TEST_F(ProtocolTest, SubIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({5, 5})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({2, 9})).ValueOrDie();
  const SharedVector diff = protocol_.Sub(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(diff).ValueOrDie(),
            (std::vector<int64_t>{3, -4}));
}

TEST_F(ProtocolTest, ShapeMismatchIsRejected) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({1})).ValueOrDie();
  EXPECT_FALSE(protocol_.Add(a, b).ok());
  EXPECT_FALSE(protocol_.Sub(a, b).ok());
  EXPECT_FALSE(protocol_.Mul(a, b).ok());
}

TEST_F(ProtocolTest, ScaleConstIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({3, -4})).ValueOrDie();
  const SharedVector scaled =
      protocol_.ScaleConst(a, Field::Encode(7));
  EXPECT_EQ(protocol_.OpenSigned(scaled).ValueOrDie(),
            (std::vector<int64_t>{21, -28}));
}

TEST_F(ProtocolTest, MulIsExactIncludingNegatives) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({3, -4, 0, 1000}))
          .ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({5, 6, 9, -1000}))
          .ValueOrDie();
  const SharedVector product = protocol_.Mul(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{15, -24, 0, -1000000}));
}

TEST_F(ProtocolTest, MulCostsOneRoundAndQuadraticMessages) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2, 3})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({4, 5, 6})).ValueOrDie();
  const NetworkStats before = network_.stats();
  (void)protocol_.Mul(a, b).ValueOrDie();
  const NetworkStats after = network_.stats();
  EXPECT_EQ(after.rounds - before.rounds, 1u);
  // n*(n-1) pairwise messages, each batching all 3 elements.
  EXPECT_EQ(after.messages - before.messages, kParties * (kParties - 1));
  EXPECT_EQ(after.field_elements - before.field_elements,
            kParties * (kParties - 1) * 3);
}

TEST_F(ProtocolTest, RepeatedMultiplicationStaysReconstructible) {
  // Degree reduction must keep the sharing degree at t so products chain.
  SharedVector x =
      protocol_.ShareFromParty(0, Field::EncodeVector({3})).ValueOrDie();
  int64_t expected = 3;
  for (int i = 0; i < 5; ++i) {
    x = protocol_.Mul(x, x).ValueOrDie();
    expected *= expected;
    if (expected > 1000000000) break;  // Stay far from field capacity.
  }
  EXPECT_EQ(protocol_.OpenSigned(x).ValueOrDie()[0], expected);
}

TEST_F(ProtocolTest, SumElementsIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(2, Field::EncodeVector({1, -2, 3, -4, 5}))
          .ValueOrDie();
  const SharedVector sum = protocol_.SumElements(a);
  EXPECT_EQ(protocol_.OpenSigned(sum).ValueOrDie(), (std::vector<int64_t>{3}));
}

TEST_F(ProtocolTest, InnerProductIsExact) {
  const SharedVector a =
      protocol_.ShareFromParty(0, Field::EncodeVector({1, 2, 3})).ValueOrDie();
  const SharedVector b =
      protocol_.ShareFromParty(1, Field::EncodeVector({4, 5, 6})).ValueOrDie();
  const SharedVector ip = protocol_.InnerProduct(a, b).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(ip).ValueOrDie(), (std::vector<int64_t>{32}));
}

TEST_F(ProtocolTest, SharePublicBehavesAsDegreeZeroSharing) {
  const SharedVector pub =
      protocol_.SharePublic(Field::EncodeVector({9, 9}));
  const SharedVector priv =
      protocol_.ShareFromParty(0, Field::EncodeVector({2, -3})).ValueOrDie();
  const SharedVector product = protocol_.Mul(pub, priv).ValueOrDie();
  EXPECT_EQ(protocol_.OpenSigned(product).ValueOrDie(),
            (std::vector<int64_t>{18, -27}));
}

TEST(ProtocolThreePartyTest, MinimalConfigurationWorks) {
  // n = 3, t = 1 is the smallest BGW configuration; 2t+1 = 3 = n.
  LockstepTransport network(3, 0.0, Field::kWireBytes);
  BgwProtocol protocol(ShamirScheme(3, 1), &network, 7);
  const SharedVector a =
      protocol.ShareFromParty(0, Field::EncodeVector({6})).ValueOrDie();
  const SharedVector b =
      protocol.ShareFromParty(2, Field::EncodeVector({7})).ValueOrDie();
  const SharedVector product = protocol.Mul(a, b).ValueOrDie();
  EXPECT_EQ(protocol.OpenSigned(product).ValueOrDie()[0], 42);
}

TEST(HostedSetTest, EnginesHostingOnePartyEachMatchOneHostingAll) {
  // n processes each hosting {j} — here n threads over one transport —
  // must hold exactly the all-party engine's rows and open its values.
  constexpr size_t kN = 5;
  const std::vector<int64_t> x = {3, -4, 5};
  const std::vector<int64_t> y = {-7, 2, 9};
  LockstepTransport lockstep(kN, 0.0, Field::kWireBytes);
  BgwProtocol all(ShamirScheme(kN, 2), &lockstep, 99);
  const SharedVector a =
      all.ShareFromParty(0, Field::EncodeVector(x)).ValueOrDie();
  const SharedVector b =
      all.ShareFromParty(1, Field::EncodeVector(y)).ValueOrDie();
  const SharedVector product = all.Mul(a, b).ValueOrDie();
  const std::vector<int64_t> expected = all.OpenSigned(product).ValueOrDie();
  ASSERT_EQ(expected, (std::vector<int64_t>{-21, -8, 45}));

  ThreadedTransport threaded(kN, ThreadedTransportOptions{});
  std::vector<SharedVector> products(kN);
  std::vector<std::vector<int64_t>> opened(kN);
  const Status status = PartyRunner(kN).Run([&](size_t party) -> Status {
    BgwProtocol mine(ShamirScheme(kN, 2), &threaded, 99, {party});
    // Only the dealer knows its inputs; everyone else knows their count.
    std::vector<Field::Element> xs(x.size());
    std::vector<Field::Element> ys(y.size());
    if (party == 0) xs = Field::EncodeVector(x);
    if (party == 1) ys = Field::EncodeVector(y);
    SQM_ASSIGN_OR_RETURN(const SharedVector xa, mine.ShareFromParty(0, xs));
    SQM_ASSIGN_OR_RETURN(const SharedVector yb, mine.ShareFromParty(1, ys));
    SQM_ASSIGN_OR_RETURN(products[party], mine.Mul(xa, yb));
    SQM_ASSIGN_OR_RETURN(opened[party], mine.OpenSigned(products[party]));
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(opened[j], expected) << "party " << j;
    EXPECT_EQ(products[j].shares(j), product.shares(j)) << "party " << j;
    for (size_t k = 0; k < kN; ++k) {
      if (k == j) continue;
      EXPECT_TRUE(products[j].shares(k).empty());
    }
  }
}

TEST(HostedSetTest, GlobalViewChecksAndRecoveryRefuseTheWrongHostedSet) {
  LockstepTransport network(3, 0.0, Field::kWireBytes);
  LivenessTracker tracker(3);

  // Sharing verification and the checked open need every party's row.
  BgwProtocol one(ShamirScheme(3, 1), &network, 5, {1});
  const SharedVector row(3, 1, {1});
  EXPECT_EQ(one.VerifySharing(row, "probe").code(),
            StatusCode::kFailedPrecondition);
  one.set_verify_sharings(true);
  EXPECT_EQ(one.Open(row).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(network.stats().messages, 0u);  // Refused before sending.

  // Recovery mode and the resume barrier belong to a single-party process.
  BgwProtocol all(ShamirScheme(3, 1), &network, 5);
  all.set_liveness(&tracker);
  EXPECT_EQ(all.EnableRecoveryMode().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(all.recovery_mode());
  EXPECT_EQ(all.ResumeBarrier(0.01, 0).status().code(),
            StatusCode::kFailedPrecondition);
  BgwProtocol mine(ShamirScheme(3, 1), &network, 5, {2});
  EXPECT_TRUE(mine.EnableRecoveryMode().ok());
  EXPECT_TRUE(mine.recovery_mode());
}

}  // namespace
}  // namespace sqm
