#include "mpc/circuit.h"

#include <gtest/gtest.h>

namespace sqm {
namespace {

TEST(CircuitTest, InputBookkeeping) {
  Circuit c;
  c.AddInput(0);
  c.AddInput(1);
  c.AddInput(0);
  EXPECT_EQ(c.NumInputsForParty(0), 2u);
  EXPECT_EQ(c.NumInputsForParty(1), 1u);
  EXPECT_EQ(c.NumInputsForParty(2), 0u);

  // Interleaved declarations across parties, with gates in between: each
  // input's index counts only its own party's earlier inputs.
  const auto a = c.AddInput(2);
  const auto b = c.AddInput(1);
  c.AddAdd(a, b);
  const auto d = c.AddInput(4);
  const auto e = c.AddInput(2);
  const auto f = c.AddInput(0);
  EXPECT_EQ(c.gates()[a].input_index, 0u);
  EXPECT_EQ(c.gates()[b].input_index, 1u);
  EXPECT_EQ(c.gates()[d].input_index, 0u);
  EXPECT_EQ(c.gates()[e].input_index, 1u);
  EXPECT_EQ(c.gates()[f].input_index, 2u);
  EXPECT_EQ(c.gates()[e].owner, 2u);
  EXPECT_EQ(c.NumInputsForParty(0), 3u);
  EXPECT_EQ(c.NumInputsForParty(1), 2u);
  EXPECT_EQ(c.NumInputsForParty(2), 2u);
  EXPECT_EQ(c.NumInputsForParty(3), 0u);
  EXPECT_EQ(c.NumInputsForParty(4), 1u);
  EXPECT_EQ(c.NumInputsForParty(5), 0u);
}

TEST(CircuitTest, GateCountsAndKinds) {
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  const auto sum = c.AddAdd(a, b);
  const auto product = c.AddMul(a, b);
  const auto scaled = c.AddMulConst(product, 3);
  c.MarkOutput(sum);
  c.MarkOutput(scaled);
  EXPECT_EQ(c.num_gates(), 5u);
  EXPECT_EQ(c.num_multiplications(), 1u);
  EXPECT_EQ(c.outputs().size(), 2u);
}

TEST(CircuitTest, MultiplicativeDepth) {
  Circuit c;
  const auto a = c.AddInput(0);
  const auto b = c.AddInput(1);
  EXPECT_EQ(c.MultiplicativeDepth(), 0u);
  const auto ab = c.AddMul(a, b);
  EXPECT_EQ(c.MultiplicativeDepth(), 1u);
  const auto ab2 = c.AddMul(ab, ab);
  const auto sum = c.AddAdd(ab2, a);  // Add does not increase depth.
  c.MarkOutput(sum);
  EXPECT_EQ(c.MultiplicativeDepth(), 2u);
}

TEST(CircuitTest, ValidateAcceptsWellFormed) {
  Circuit c;
  const auto a = c.AddInput(0);
  const auto k = c.AddConstant(5);
  c.MarkOutput(c.AddMul(a, k));
  EXPECT_TRUE(c.Validate(2).ok());
}

TEST(CircuitTest, ValidateRejectsNoOutputs) {
  Circuit c;
  c.AddInput(0);
  EXPECT_FALSE(c.Validate(2).ok());
}

TEST(CircuitTest, ValidateRejectsForeignParty) {
  Circuit c;
  c.MarkOutput(c.AddInput(7));
  EXPECT_FALSE(c.Validate(2).ok());
}

TEST(CircuitTest, SummaryMentionsCounts) {
  Circuit c;
  const auto a = c.AddInput(0);
  c.MarkOutput(c.AddMul(a, a));
  const std::string summary = c.Summary();
  EXPECT_NE(summary.find("mul=1"), std::string::npos);
  EXPECT_NE(summary.find("depth=1"), std::string::npos);
}

}  // namespace
}  // namespace sqm
