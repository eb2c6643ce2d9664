#include "mpc/bgw.h"

#include <algorithm>

#include "core/logging.h"
#include "obs/trace.h"

namespace sqm {

BgwEngine::BgwEngine(ShamirScheme scheme, Transport* network,
                     uint64_t seed)
    : protocol_(std::move(scheme), network, seed) {}

BgwEngine::BgwEngine(ShamirScheme scheme, Transport* network, uint64_t seed,
                     std::vector<size_t> hosted)
    : protocol_(std::move(scheme), network, seed, std::move(hosted)) {}

Result<std::vector<int64_t>> BgwEngine::Evaluate(
    const Circuit& circuit,
    const std::vector<std::vector<int64_t>>& inputs_per_party) {
  SQM_ASSIGN_OR_RETURN(SharedVector out_shares,
                       EvaluateToShares(circuit, inputs_per_party));
  return OpenOutputs(out_shares);
}

Result<SharedVector> BgwEngine::EvaluateToShares(
    const Circuit& circuit,
    const std::vector<std::vector<int64_t>>& inputs_per_party,
    BgwCheckpoint* checkpoint) {
  const size_t n = protocol_.num_parties();
  const std::vector<size_t>& hosted = protocol_.hosted();
  SQM_RETURN_NOT_OK(circuit.Validate(n));
  if (inputs_per_party.size() != n) {
    return Status::InvalidArgument("need one input vector per party");
  }
  for (size_t j : hosted) {
    if (inputs_per_party[j].size() != circuit.NumInputsForParty(j)) {
      return Status::InvalidArgument(
          "party " + std::to_string(j) + " supplied " +
          std::to_string(inputs_per_party[j].size()) +
          " inputs, circuit expects " +
          std::to_string(circuit.NumInputsForParty(j)));
    }
  }

  BgwCheckpoint scratch;
  BgwCheckpoint* ckpt = checkpoint != nullptr ? checkpoint : &scratch;
  const bool resuming = ckpt->valid;
  const auto& gates = circuit.gates();

  obs::Span evaluate("bgw.evaluate", "mpc",
                     hosted.size() == 1 ? static_cast<int32_t>(hosted[0])
                                        : obs::Tracer::CurrentTrack());
  evaluate.AddArg("gates", static_cast<int64_t>(gates.size()));
  evaluate.AddArg("resuming", resuming ? 1 : 0);
  if (resuming && obs::Enabled()) {
    obs::TraceEvent event;
    event.name = "bgw.checkpoint_resume";
    event.category = "mpc";
    event.AddArg("next_level", static_cast<int64_t>(ckpt->next_level));
    event.AddArg("mul_rounds_done",
                 static_cast<int64_t>(ckpt->mul_rounds_done));
    obs::Tracer::Global().Instant(event);
  }

  if (!resuming) {
    ckpt->next_level = 0;
    ckpt->mul_rounds_done = 0;
    // wire_shares[party][wire] lives inside the checkpoint: each completed
    // level's results are persisted in place, no copies.
    ckpt->wire_shares.assign(n, {});
    for (size_t r : hosted) ckpt->wire_shares[r].assign(gates.size(), 0);

    // ---- Phase 1: input sharing (one protocol round per contributing
    // party, in party order; each party's inputs are batched into a single
    // message per recipient). Crashed parties' input shares survive among
    // the live parties, so a later resume never repeats this phase.
    for (size_t j = 0; j < n; ++j) {
      const size_t count = circuit.NumInputsForParty(j);
      if (count == 0) continue;
      // A dealer hosted elsewhere contributes only its (public) count.
      std::vector<Field::Element> values =
          Field::EncodeVector(inputs_per_party[j]);
      values.resize(count);
      SQM_ASSIGN_OR_RETURN(const SharedVector shared,
                           protocol_.ShareFromParty(j, values));
      // Scatter this party's input shares onto its input wires.
      for (size_t w = 0; w < gates.size(); ++w) {
        const Circuit::Gate& gate = gates[w];
        if (gate.kind == Circuit::GateKind::kInput && gate.owner == j) {
          for (size_t r : hosted) {
            ckpt->wire_shares[r][w] = shared.shares(r)[gate.input_index];
          }
        }
      }
    }
    ckpt->valid = true;
    if (checkpoint_sink_) checkpoint_sink_(*ckpt);
  } else {
    SQM_CHECK(ckpt->wire_shares.size() == n);
    for (size_t r : hosted) {
      SQM_CHECK(ckpt->wire_shares[r].size() == gates.size());
    }
    // Stale sub-shares queued by the aborted round must not mix into the
    // retry's fresh resharing randomness. In recovery mode the resume
    // barrier already flushed them, and a fast peer may ALREADY have dealt
    // fresh sub-shares for the redo level — draining here would eat them.
    if (!protocol_.recovery_mode()) protocol_.DrainPending();
  }

  std::vector<std::vector<Field::Element>>& wire_shares = ckpt->wire_shares;

  // ---- Phase 2: evaluate gate levels. Multiplications of equal depth are
  // batched into one communication round.
  std::vector<size_t> depth(gates.size(), 0);
  size_t max_depth = 0;
  for (size_t i = 0; i < gates.size(); ++i) {
    const Circuit::Gate& gate = gates[i];
    switch (gate.kind) {
      case Circuit::GateKind::kInput:
      case Circuit::GateKind::kConstant:
        break;
      case Circuit::GateKind::kAdd:
      case Circuit::GateKind::kSub:
        depth[i] = std::max(depth[gate.lhs], depth[gate.rhs]);
        break;
      case Circuit::GateKind::kMulConst:
        depth[i] = depth[gate.lhs];
        break;
      case Circuit::GateKind::kMul:
        depth[i] = std::max(depth[gate.lhs], depth[gate.rhs]) + 1;
        break;
    }
    max_depth = std::max(max_depth, depth[i]);
  }

  auto process_local_gate = [&](size_t w) {
    const Circuit::Gate& gate = gates[w];
    for (size_t r : hosted) {
      auto& shares = wire_shares[r];
      switch (gate.kind) {
        case Circuit::GateKind::kConstant:
          // Public constant = degree-0 sharing: everyone holds the value.
          shares[w] = Field::Reduce(gate.constant);
          break;
        case Circuit::GateKind::kAdd:
          shares[w] = Field::Add(shares[gate.lhs], shares[gate.rhs]);
          break;
        case Circuit::GateKind::kSub:
          shares[w] = Field::Sub(shares[gate.lhs], shares[gate.rhs]);
          break;
        case Circuit::GateKind::kMulConst:
          shares[w] = Field::Mul(shares[gate.lhs],
                                 Field::Reduce(gate.constant));
          break;
        case Circuit::GateKind::kInput:
        case Circuit::GateKind::kMul:
          break;  // Inputs done in phase 1; muls handled per level.
      }
    }
  };

  for (size_t level = ckpt->next_level; level <= max_depth; ++level) {
    if (level > 0) {
      // Batch all multiplications at this depth into one round.
      std::vector<size_t> mul_wires;
      for (size_t w = 0; w < gates.size(); ++w) {
        if (gates[w].kind == Circuit::GateKind::kMul && depth[w] == level) {
          mul_wires.push_back(w);
        }
      }
      if (!mul_wires.empty()) {
        if (mul_level_hook_) mul_level_hook_(level);
        SharedVector lhs(n, mul_wires.size(), hosted);
        SharedVector rhs(n, mul_wires.size(), hosted);
        for (size_t r : hosted) {
          for (size_t i = 0; i < mul_wires.size(); ++i) {
            lhs.shares(r)[i] = wire_shares[r][gates[mul_wires[i]].lhs];
            rhs.shares(r)[i] = wire_shares[r][gates[mul_wires[i]].rhs];
          }
        }
        // A failed Mul leaves wire_shares at the previous level and
        // ckpt->next_level == level: exactly where a retry must resume.
        SQM_ASSIGN_OR_RETURN(SharedVector products, protocol_.Mul(lhs, rhs));
        for (size_t r : hosted) {
          for (size_t i = 0; i < mul_wires.size(); ++i) {
            wire_shares[r][mul_wires[i]] = products.shares(r)[i];
          }
        }
        ++ckpt->mul_rounds_done;
      }
    }
    // Local gates at this depth, in id order (intra-level dependencies
    // always point backwards).
    for (size_t w = 0; w < gates.size(); ++w) {
      if (gates[w].kind != Circuit::GateKind::kMul &&
          gates[w].kind != Circuit::GateKind::kInput && depth[w] == level) {
        process_local_gate(w);
      }
    }
    ckpt->next_level = level + 1;
    if (checkpoint_sink_) checkpoint_sink_(*ckpt);
  }

  SharedVector out_shares(n, circuit.outputs().size(), hosted);
  for (size_t r : hosted) {
    for (size_t i = 0; i < circuit.outputs().size(); ++i) {
      out_shares.shares(r)[i] = wire_shares[r][circuit.outputs()[i]];
    }
  }
  return out_shares;
}

Result<std::vector<int64_t>> BgwEngine::OpenOutputs(
    const SharedVector& out_shares) {
  // ---- Phase 3: open outputs.
  return protocol_.OpenSigned(out_shares);
}

}  // namespace sqm
