#include "mpc/circuit.h"

#include <sstream>

#include "core/logging.h"

namespace sqm {

Circuit::WireId Circuit::Push(Gate gate) {
  gates_.push_back(gate);
  return static_cast<WireId>(gates_.size() - 1);
}

Circuit::WireId Circuit::AddInput(size_t party) {
  Gate gate{};
  gate.kind = GateKind::kInput;
  gate.owner = party;
  if (party >= inputs_per_party_.size()) {
    inputs_per_party_.resize(party + 1, 0);
  }
  gate.input_index = inputs_per_party_[party]++;
  return Push(gate);
}

Circuit::WireId Circuit::AddConstant(Field::Element value) {
  Gate gate{};
  gate.kind = GateKind::kConstant;
  gate.constant = value;
  return Push(gate);
}

Circuit::WireId Circuit::AddAdd(WireId lhs, WireId rhs) {
  SQM_CHECK(lhs < gates_.size() && rhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kAdd;
  gate.lhs = lhs;
  gate.rhs = rhs;
  return Push(gate);
}

Circuit::WireId Circuit::AddSub(WireId lhs, WireId rhs) {
  SQM_CHECK(lhs < gates_.size() && rhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kSub;
  gate.lhs = lhs;
  gate.rhs = rhs;
  return Push(gate);
}

Circuit::WireId Circuit::AddMulConst(WireId lhs, Field::Element constant) {
  SQM_CHECK(lhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kMulConst;
  gate.lhs = lhs;
  gate.constant = constant;
  return Push(gate);
}

Circuit::WireId Circuit::AddMul(WireId lhs, WireId rhs) {
  SQM_CHECK(lhs < gates_.size() && rhs < gates_.size());
  Gate gate{};
  gate.kind = GateKind::kMul;
  gate.lhs = lhs;
  gate.rhs = rhs;
  ++num_mul_;
  return Push(gate);
}

void Circuit::MarkOutput(WireId wire) {
  SQM_CHECK(wire < gates_.size());
  outputs_.push_back(wire);
}

size_t Circuit::NumInputsForParty(size_t party) const {
  return party < inputs_per_party_.size() ? inputs_per_party_[party] : 0;
}

size_t Circuit::MultiplicativeDepth() const {
  std::vector<size_t> depth(gates_.size(), 0);
  size_t max_depth = 0;
  for (size_t i = 0; i < gates_.size(); ++i) {
    const Gate& gate = gates_[i];
    switch (gate.kind) {
      case GateKind::kInput:
      case GateKind::kConstant:
        depth[i] = 0;
        break;
      case GateKind::kAdd:
      case GateKind::kSub:
        depth[i] = std::max(depth[gate.lhs], depth[gate.rhs]);
        break;
      case GateKind::kMulConst:
        depth[i] = depth[gate.lhs];
        break;
      case GateKind::kMul:
        depth[i] = std::max(depth[gate.lhs], depth[gate.rhs]) + 1;
        break;
    }
    max_depth = std::max(max_depth, depth[i]);
  }
  return max_depth;
}

Status Circuit::Validate(size_t num_parties) const {
  for (size_t i = 0; i < gates_.size(); ++i) {
    const Gate& gate = gates_[i];
    switch (gate.kind) {
      case GateKind::kInput:
        if (gate.owner >= num_parties) {
          return Status::InvalidArgument(
              "input gate owned by out-of-range party " +
              std::to_string(gate.owner));
        }
        break;
      case GateKind::kAdd:
      case GateKind::kSub:
      case GateKind::kMul:
        if (gate.lhs >= i || gate.rhs >= i) {
          return Status::InvalidArgument("gate references a later wire");
        }
        break;
      case GateKind::kMulConst:
        if (gate.lhs >= i) {
          return Status::InvalidArgument("gate references a later wire");
        }
        break;
      case GateKind::kConstant:
        break;
    }
  }
  if (outputs_.empty()) {
    return Status::InvalidArgument("circuit has no outputs");
  }
  for (WireId w : outputs_) {
    if (w >= gates_.size()) {
      return Status::InvalidArgument("output references unknown wire");
    }
  }
  return Status::OK();
}

std::string Circuit::Summary() const {
  std::ostringstream os;
  os << "Circuit{gates=" << gates_.size() << ", mul=" << num_mul_
     << ", depth=" << MultiplicativeDepth() << ", outputs=" << outputs_.size()
     << "}";
  return os.str();
}

}  // namespace sqm
