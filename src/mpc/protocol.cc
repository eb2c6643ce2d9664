#include "mpc/protocol.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "core/logging.h"
#include "mpc/beaver.h"
#include "obs/trace.h"

namespace sqm {
namespace {

/// Resume-barrier marker words. Both exceed the field modulus 2^61 - 1, so
/// no share or opening payload can contain them; census votes are size-1
/// payloads and markers are size-3, so those cannot collide either.
constexpr uint64_t kRecoveryMagic0 = 0x53514d5245434f56ULL;  // "SQMRECOV"
constexpr uint64_t kRecoveryMagic1 = 0xfa11bacca5e00001ULL;

bool IsRecoveryMarker(const Transport::Payload& payload) {
  return payload.size() == 3 && payload[0] == kRecoveryMagic0 &&
         payload[1] == kRecoveryMagic1;
}

std::vector<size_t> AllParties(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// Folds one hosted recipient's failed receive from a sender into the
/// round's single verdict on that sender: the first failure, upgraded to
/// kUnavailable as soon as any recipient sees positive death.
void NoteMiss(StatusCode* verdict, StatusCode code) {
  if (*verdict == StatusCode::kOk || code == StatusCode::kUnavailable) {
    *verdict = code;
  }
}



}  // namespace

BgwProtocol::BgwProtocol(ShamirScheme scheme, Transport* network,
                         uint64_t seed)
    : BgwProtocol(scheme, network, seed, AllParties(scheme.num_parties())) {}

BgwProtocol::BgwProtocol(ShamirScheme scheme, Transport* network,
                         uint64_t seed, std::vector<size_t> hosted)
    : scheme_(std::move(scheme)),
      network_(network),
      hosted_(std::move(hosted)) {
  const size_t n = scheme_.num_parties();
  SQM_CHECK(network_ != nullptr);
  SQM_CHECK(network_->num_parties() == n);
  SQM_CHECK(!hosted_.empty());
  for (size_t i = 0; i < hosted_.size(); ++i) {
    SQM_CHECK(hosted_[i] < n);
    SQM_CHECK(i == 0 || hosted_[i - 1] < hosted_[i]);
  }
  // Every stream is split in order, hosted or not: each Split consumes
  // parent draws, so party j's stream is the same in every process.
  Rng root(seed);
  party_rngs_.reserve(n);
  for (size_t j = 0; j < n; ++j) party_rngs_.push_back(root.Split(j));
  std::vector<size_t> first(2 * scheme_.threshold() + 1);
  std::iota(first.begin(), first.end(), 0);
  degree2t_lagrange_ = scheme_.LagrangeAtZero(first);
}

int32_t BgwProtocol::EngineTrack() const {
  return hosted_.size() == 1 ? static_cast<int32_t>(hosted_[0])
                             : obs::Tracer::CurrentTrack();
}

size_t BgwProtocol::me() const {
  SQM_CHECK(hosted_.size() == 1);
  return hosted_[0];
}

void BgwProtocol::SaveRngState(uint64_t out[4]) const {
  party_rngs_[me()].SaveState(out);
}

void BgwProtocol::RestoreRngState(const uint64_t state[4]) {
  party_rngs_[me()] = Rng::FromState(state);
}

Status BgwProtocol::EnableRecoveryMode() {
  if (hosted_.size() != 1) {
    return Status::FailedPrecondition(
        "recovery mode needs a protocol hosting exactly one party, this one "
        "hosts " + std::to_string(hosted_.size()));
  }
  recovery_mode_ = true;
  return Status::OK();
}

Result<Transport::Payload> BgwProtocol::RecvData(size_t from, size_t to) {
  for (;;) {
    Result<Transport::Payload> received = network_->Receive(from, to);
    if (!received.ok()) return received;
    if (recovery_mode_ && IsRecoveryMarker(received.ValueOrDie())) {
      // A peer that left the resume barrier before us pushed one final
      // marker round into this phase; it carries no protocol data.
      continue;
    }
    return received;
  }
}

void BgwProtocol::RecordRecvFailure(size_t party, StatusCode code) {
  // Under recovery, declaring a party dead is the TRANSPORT's call alone:
  // a receive timeout fails the level (the full-quorum census turns it
  // into a resume barrier) but must not kill the peer — it may be seconds
  // from a supervised rejoin, and the timeout-count heuristic would
  // declare it dead before its reconnect + rejoin window is anywhere near
  // spent. kUnavailable IS that window expiring, i.e. positive death.
  if (recovery_mode_ && code != StatusCode::kUnavailable) return;
  liveness_->RecordFailure(party, code);
}

Result<SharedVector> BgwProtocol::ShareFromParty(
    size_t dealer, const std::vector<Field::Element>& values,
    const std::string& phase_label) {
  const size_t n = num_parties();
  const size_t count = values.size();
  SQM_CHECK(dealer < n);
  if (PartyDead(dealer)) {
    return Status::Unavailable("input sharing impossible: dealer party " +
                               std::to_string(dealer) + " is dead");
  }
  PhaseScope phase(network_, phase_label);
  // On the dealer's track when it is hosted: the trace shows who did the
  // work even when one thread plays every party.
  obs::Span span("bgw.share", "mpc",
                 Hosts(dealer) ? static_cast<int32_t>(dealer)
                               : EngineTrack());
  span.AddArg("party", static_cast<int64_t>(dealer));
  span.AddArg("elements", static_cast<int64_t>(count));
  if (Hosts(dealer)) {
    // The owner deals every recipient's row in one table-driven batch.
    std::vector<std::vector<Field::Element>> outbound =
        scheme_.ShareBatch(values, party_rngs_[dealer]);
    for (size_t j = 0; j < n; ++j) {
      if (j != dealer && PartyDead(j)) continue;
      network_->Send(dealer, j, std::move(outbound[j]));
    }
  }
  network_->EndRound();

  SharedVector result = NewShared(count);
  for (size_t r : hosted_) {
    if (r != dealer && PartyDead(r)) continue;
    Result<Transport::Payload> received = RecvData(dealer, r);
    if (!received.ok()) {
      if (liveness_ == nullptr) return received.status();
      RecordRecvFailure(dealer, received.status().code());
      return Status::Unavailable(
          "input sharing from party " + std::to_string(dealer) + " failed (" +
          received.status().message() +
          "); inputs cannot be reconstructed by a quorum");
    }
    if (received.ValueOrDie().size() != count) {
      if (recovery_mode_) {
        // Lost-frame skew (see ReceiveFromSender): fail the phase
        // retryably so the resume barrier can flush and redo it, instead
        // of treating the dealer's next frame as a forgery.
        return Status::Unavailable(
            "input dealing from party " + std::to_string(dealer) +
            " skewed by a lost frame (" +
            std::to_string(received.ValueOrDie().size()) + " elements, " +
            "expected " + std::to_string(count) + "); retry via barrier");
      }
      return Status::IntegrityViolation(
          "input dealing from party " + std::to_string(dealer) + " to " +
          std::to_string(r) + " has " +
          std::to_string(received.ValueOrDie().size()) +
          " elements, expected " + std::to_string(count));
    }
    result.shares(r) = std::move(received).ValueOrDie();
  }
  if (liveness_ != nullptr) liveness_->RecordSuccess(dealer);
  if (verify_sharings_) {
    SQM_RETURN_NOT_OK(VerifySharing(
        result, "input dealing from party " + std::to_string(dealer)));
  }
  return result;
}

SharedVector BgwProtocol::SharePublic(
    const std::vector<Field::Element>& values) const {
  // A public value is a degree-0 polynomial: every party's share equals the
  // value itself. Valid for Add/Mul since degree 0 <= t.
  SharedVector result = NewShared(values.size());
  for (size_t j : hosted_) result.shares(j) = values;
  return result;
}

Result<SharedVector> BgwProtocol::Add(const SharedVector& a,
                                      const SharedVector& b) const {
  if (a.size() != b.size() || a.num_parties() != b.num_parties()) {
    return Status::InvalidArgument("Add: shape mismatch");
  }
  SharedVector out = NewShared(a.size());
  for (size_t j : hosted_) {
    Field::AddVec(a.shares(j).data(), b.shares(j).data(),
                  out.shares(j).data(), a.size());
  }
  return out;
}

Result<SharedVector> BgwProtocol::Sub(const SharedVector& a,
                                      const SharedVector& b) const {
  if (a.size() != b.size() || a.num_parties() != b.num_parties()) {
    return Status::InvalidArgument("Sub: shape mismatch");
  }
  SharedVector out = NewShared(a.size());
  for (size_t j : hosted_) {
    Field::SubVec(a.shares(j).data(), b.shares(j).data(),
                  out.shares(j).data(), a.size());
  }
  return out;
}

SharedVector BgwProtocol::ScaleConst(const SharedVector& a,
                                     Field::Element c) const {
  SharedVector out = NewShared(a.size());
  for (size_t j : hosted_) {
    Field::ScaleVec(a.shares(j).data(), c, out.shares(j).data(), a.size());
  }
  return out;
}

Result<SharedVector> BgwProtocol::Mul(const SharedVector& a,
                                      const SharedVector& b) {
  if (a.size() != b.size() || a.num_parties() != b.num_parties()) {
    return Status::InvalidArgument("Mul: shape mismatch");
  }
  if (beaver_pool_ != nullptr) return MulBeaver(a, b);
  const size_t n = num_parties();
  const size_t k = a.size();
  if (liveness_ != nullptr && n > 64) {
    return Status::Unimplemented(
        "quorum Mul census masks cover at most 64 parties");
  }
  PhaseScope phase(network_, "mul");
  obs::Span span("bgw.mul", "mpc", EngineTrack());
  span.AddArg("elements", static_cast<int64_t>(k));
  if (liveness_ != nullptr) span.AddArg("quorum", 1);

  // Step 1 (local): each party multiplies its shares, yielding a share of a
  // degree-2t polynomial with the right free coefficient.
  // Step 2 (re-share): each party deals a fresh degree-t sharing of its
  // degree-2t share batch and distributes the sub-shares — one message per
  // pair carrying all k elements. Dead parties neither compute nor send
  // (their RNG streams are independent, so skipping them leaves the
  // survivors' randomness — and hence the recombined free coefficients —
  // untouched), and nobody sends to them.
  std::vector<Field::Element> products(k);
  for (size_t j : hosted_) {
    if (PartyDead(j)) continue;
    obs::Span deal("bgw.mul.deal", "mpc", static_cast<int32_t>(j));
    deal.AddArg("party", static_cast<int64_t>(j));
    Field::MulVec(a.shares(j).data(), b.shares(j).data(), products.data(),
                  k);
    std::vector<std::vector<Field::Element>> outbound =
        scheme_.ShareBatch(products, party_rngs_[j]);
    for (size_t r = 0; r < n; ++r) {
      if (r != j && PartyDead(r)) continue;
      network_->Send(j, r, std::move(outbound[r]));
    }
  }
  network_->EndRound();

  SharedVector out = NewShared(k);
  if (liveness_ != nullptr) {
    SQM_RETURN_NOT_OK(RecombineAgreedDealers(&out));
  } else {
    // Step 3 (local): recombine sub-shares with the degree-2t Lagrange
    // weights. Only the first 2t+1 dealers are needed; the rest are
    // received and discarded, as in the standard description.
    const size_t needed = 2 * scheme_.threshold() + 1;
    for (size_t r : hosted_) {
      obs::Span recombine("bgw.mul.recombine", "mpc",
                          static_cast<int32_t>(r));
      recombine.AddArg("party", static_cast<int64_t>(r));
      auto& acc = out.shares(r);
      for (size_t j = 0; j < n; ++j) {
        // A failed receive (timed-out retries, crashed dealer) aborts the
        // multiplication gracefully — the caller decides how to recover.
        SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> received,
                             RecvData(j, r));
        if (received.size() != k) {
          // A wrong-length sub-share batch means the channel is desynced —
          // a replayed or stale message — and must never be recombined.
          return Status::IntegrityViolation(
              "Mul sub-share batch from dealer " + std::to_string(j) +
              " to party " + std::to_string(r) + " has " +
              std::to_string(received.size()) + " elements, expected " +
              std::to_string(k) + " (replayed or stale message)");
        }
        if (j >= needed) continue;
        Field::MulAddVec(acc.data(), received.data(), degree2t_lagrange_[j],
                         k);
      }
    }
  }
  if (verify_sharings_) {
    SQM_RETURN_NOT_OK(VerifySharing(out, "Mul output"));
  }
  return out;
}

Result<bool> BgwProtocol::ReceiveFromSender(
    size_t sender, size_t size, const char* what,
    std::vector<std::vector<Field::Element>>* copies) {
  StatusCode missed = StatusCode::kOk;
  bool delivered = true;
  for (size_t r : hosted_) {
    if (r != sender && PartyDead(r)) continue;
    if (missed == StatusCode::kUnavailable) break;  // Nothing to read.
    Result<Transport::Payload> received = RecvData(sender, r);
    if (!received.ok()) {
      if (liveness_ == nullptr) return received.status();
      NoteMiss(&missed, received.status().code());
      if (obs::Enabled()) {
        obs::TraceEvent event;
        event.name = "bgw.receive_failed";
        event.category = "mpc";
        event.AddArg("sender", static_cast<int64_t>(sender));
        event.AddArg("recipient", static_cast<int64_t>(r));
        obs::Tracer::Global().Instant(event);
      }
      delivered = false;
      continue;
    }
    if (received.ValueOrDie().size() != size) {
      if (recovery_mode_) {
        // Not an attack: when chaos (or a crash) eats a frame and the link
        // comes back, the sender's NEXT frame arrives where this one was
        // expected. Consuming it keeps the channel aligned with the
        // sender's stream, and counting the sender undelivered fails the
        // full-quorum check for everyone; the resume barrier then flushes
        // both sides.
        delivered = false;
        continue;
      }
      return Status::IntegrityViolation(
          std::string(what) + " from party " + std::to_string(sender) +
          " to " + std::to_string(r) + " has " +
          std::to_string(received.ValueOrDie().size()) +
          " elements, expected " + std::to_string(size) +
          " (replayed or stale message)");
    }
    (*copies)[r] = std::move(received).ValueOrDie();
  }
  if (missed != StatusCode::kOk) RecordRecvFailure(sender, missed);
  return delivered;
}

Status BgwProtocol::RecombineAgreedDealers(SharedVector* out) {
  const size_t n = num_parties();
  const size_t k = out->size();
  const size_t needed = 2 * scheme_.threshold() + 1;

  // Collection: a dealer counts only if EVERY hosted recipient received its
  // batch. The resulting mask is each hosted party's census vote.
  uint64_t delivered = 0;
  std::vector<std::vector<std::vector<Field::Element>>> payloads(n);
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    payloads[j].resize(n);
    SQM_ASSIGN_OR_RETURN(
        const bool dealt,
        ReceiveFromSender(j, k, "quorum Mul sub-share batch", &payloads[j]));
    if (dealt) delivered |= uint64_t{1} << j;
  }

  // Census round: every survivor broadcasts which dealers it received and
  // the intersection becomes the agreed dealer set. Without it two
  // survivors in different processes could recombine over different
  // dealer subsets and the result would not be a consistent degree-t
  // sharing. A voter that fails to deliver its mask to a hosted party is
  // treated as failed for this round and excluded from the electorate.
  uint64_t agreed = delivered;
  size_t voters = 0;
  {
    PhaseScope census_phase(network_, "census");
    for (size_t r : hosted_) {
      if (PartyDead(r)) continue;
      for (size_t v = 0; v < n; ++v) {
        if (v != r && PartyDead(v)) continue;
        network_->Send(r, v, Transport::Payload{delivered});
      }
    }
    network_->EndRound();
    for (size_t v = 0; v < n; ++v) {
      if (PartyDead(v)) continue;
      std::vector<std::vector<Field::Element>> votes(n);
      SQM_ASSIGN_OR_RETURN(const bool voted,
                           ReceiveFromSender(v, 1, "census vote", &votes));
      if (!voted) continue;
      for (size_t r : hosted_) {
        if (!votes[r].empty()) agreed &= votes[r][0];
      }
      ++voters;
    }
  }

  if (recovery_mode_) {
    // Full-quorum rule: every party not positively dead must have dealt to
    // everyone (agreed covers it) AND voted. Anything less fails the level
    // for EVERY party — the degraded-majority shortcut is forbidden, since
    // it would let survivors recombine a level the restarted party never
    // participated in and leave it permanently behind the resume barrier.
    // A party the transport positively declared dead (kUnavailable, i.e.
    // restarts exhausted) is excluded, which is exactly the escalation to
    // the classic degrade path.
    uint64_t full = 0;
    size_t alive = 0;
    for (size_t j = 0; j < n; ++j) {
      if (!PartyDead(j)) {
        full |= uint64_t{1} << j;
        ++alive;
      }
    }
    if (agreed != full || voters != alive) {
      return Status::Unavailable(
          "Mul full-quorum failure under recovery: census agreed 0x" +
          std::to_string(agreed) + " of expected 0x" + std::to_string(full) +
          ", " + std::to_string(voters) + "/" + std::to_string(alive) +
          " alive parties voted; failing the level for a resume barrier");
    }
  }

  std::vector<size_t> usable;
  for (size_t j = 0; j < n; ++j) {
    if ((agreed >> j) & 1) {
      usable.push_back(j);
      liveness_->RecordSuccess(j);
    }
  }
  if (usable.size() < needed) {
    return Status::Unavailable(
        "Mul quorum shortfall: degree-2t recombination needs 2t+1 = " +
        std::to_string(needed) + " dealers, only " +
        std::to_string(usable.size()) + " of " + std::to_string(n) +
        " agreed by census (dead: " + std::to_string(liveness_->num_dead()) +
        ")");
  }

  // Recombine over the first 2t+1 agreed dealers with Lagrange weights for
  // exactly those evaluation points. Any such subset yields the same free
  // coefficient, so degraded outputs equal the no-crash outputs.
  const std::vector<size_t> dealers(usable.begin(), usable.begin() + needed);
  const std::vector<Field::Element> weights = scheme_.LagrangeAtZero(dealers);
  for (size_t r : hosted_) {
    if (PartyDead(r)) continue;
    obs::Span recombine("bgw.mul.recombine", "mpc", static_cast<int32_t>(r));
    recombine.AddArg("party", static_cast<int64_t>(r));
    auto& acc = out->shares(r);
    for (size_t d = 0; d < dealers.size(); ++d) {
      Field::MulAddVec(acc.data(), payloads[dealers[d]][r].data(),
                       weights[d], k);
    }
  }
  return Status::OK();
}

Result<SharedVector> BgwProtocol::MulBeaver(const SharedVector& a,
                                            const SharedVector& b) {
  const size_t k = a.size();
  PhaseScope phase(network_, "mul");
  obs::Span span("bgw.mul", "mpc", EngineTrack());
  span.AddArg("elements", static_cast<int64_t>(k));
  span.AddArg("beaver", 1);

  BeaverTriplePool::TripleBatch triples;
  SQM_ASSIGN_OR_RETURN(triples, beaver_pool_->Take(k));
  beaver_triples_used_ += k;

  // Local masking: pack d = x - a and e = y - b into one 2k-element shared
  // vector so the whole Mul costs exactly one opening round. The opened
  // values are public, so even on the quorum path any t+1 survivor shares
  // agree and no census is needed — this is why the Beaver online path
  // costs one round where quorum GRR costs two.
  SharedVector packed = NewShared(2 * k);
  for (size_t j : hosted_) {
    if (PartyDead(j)) continue;
    auto& dst = packed.shares(j);
    Field::SubVec(a.shares(j).data(), triples.a.shares(j).data(),
                  dst.data(), k);
    Field::SubVec(b.shares(j).data(), triples.b.shares(j).data(),
                  dst.data() + k, k);
  }
  SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> opened,
                       OpenInPhase(packed));

  // Local combination [xy] = [c] + d*[b] + e*[a] + d*e, as three batched
  // multiply-accumulate sweeps over the opened (d, e) halves.
  const Field::Element* d = opened.data();
  const Field::Element* e = opened.data() + k;
  std::vector<Field::Element> de(k);
  Field::MulVec(d, e, de.data(), k);
  std::vector<Field::Element> term(k);
  SharedVector out = NewShared(k);
  for (size_t j : hosted_) {
    if (PartyDead(j)) continue;
    auto& dst = out.shares(j);
    dst = triples.c.shares(j);
    Field::MulVec(d, triples.b.shares(j).data(), term.data(), k);
    Field::AddVec(dst.data(), term.data(), dst.data(), k);
    Field::MulVec(e, triples.a.shares(j).data(), term.data(), k);
    Field::AddVec(dst.data(), term.data(), dst.data(), k);
    Field::AddVec(dst.data(), de.data(), dst.data(), k);
  }
  if (verify_sharings_) {
    SQM_RETURN_NOT_OK(VerifySharing(out, "Beaver Mul output"));
  }
  return out;
}

SharedVector BgwProtocol::SumElements(const SharedVector& a) const {
  SharedVector out = NewShared(1);
  for (size_t j : hosted_) {
    out.shares(j)[0] = Field::SumVec(a.shares(j).data(), a.size());
  }
  return out;
}

Result<SharedVector> BgwProtocol::InnerProduct(const SharedVector& a,
                                               const SharedVector& b) {
  SQM_ASSIGN_OR_RETURN(SharedVector products, Mul(a, b));
  return SumElements(products);
}

Result<std::vector<Field::Element>> BgwProtocol::Open(const SharedVector& a) {
  PhaseScope phase(network_, "open");
  return OpenInPhase(a);
}

Result<std::vector<int64_t>> BgwProtocol::OpenSigned(const SharedVector& a) {
  SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> opened, Open(a));
  return Field::DecodeVector(opened);
}

Result<std::vector<Field::Element>> BgwProtocol::OpenInPhase(
    const SharedVector& a) {
  const size_t n = num_parties();
  if (verify_sharings_ && hosted_.size() != n) {
    return Status::FailedPrecondition(
        "checked open needs every party's copy; this protocol hosts " +
        std::to_string(hosted_.size()) + " of " + std::to_string(n));
  }
  obs::Span span("bgw.open", "mpc", EngineTrack());
  span.AddArg("elements", static_cast<int64_t>(a.size()));
  if (liveness_ != nullptr) span.AddArg("quorum", 1);
  if (verify_sharings_) span.AddArg("checked", 1);
  for (size_t j : hosted_) {
    if (PartyDead(j)) continue;
    obs::Span broadcast("bgw.open.broadcast", "mpc", static_cast<int32_t>(j));
    broadcast.AddArg("party", static_cast<int64_t>(j));
    for (size_t r = 0; r < n; ++r) {
      if (r != j && PartyDead(r)) continue;
      network_->Send(j, r, a.shares(j));
    }
  }
  network_->EndRound();

  // Collect each broadcaster's vector. It sends the SAME vector to every
  // recipient, so the first hosted copy serves as everyone's view; when
  // verifying, the other copies are compared against it, since
  // equivocation — telling different recipients different shares — is
  // visible only across copies.
  std::vector<std::vector<Field::Element>> view(n);
  std::vector<size_t> survivors;
  size_t expected = 0;
  for (size_t j = 0; j < n; ++j) {
    if (PartyDead(j)) continue;
    ++expected;
    std::vector<std::vector<Field::Element>> copies(n);
    SQM_ASSIGN_OR_RETURN(
        const bool delivered,
        ReceiveFromSender(j, a.size(), "opened broadcast", &copies));
    if (!delivered) continue;
    size_t first = n;
    for (size_t r : hosted_) {
      if (r != j && PartyDead(r)) continue;
      if (first == n) {
        first = r;
        view[j] = std::move(copies[r]);
      } else if (verify_sharings_ && copies[r] != view[j]) {
        return Status::IntegrityViolation(
            "equivocation: party " + std::to_string(j) +
            " broadcast different share vectors to recipients " +
            std::to_string(first) + " and " + std::to_string(r));
      }
    }
    if (liveness_ != nullptr) liveness_->RecordSuccess(j);
    survivors.push_back(j);
  }

  if (liveness_ == nullptr) {
    if (!verify_sharings_) {
      // One table-driven recombination sweep instead of a.size() scalar
      // interpolations (bit-identical; see ShamirScheme::ReconstructBatch).
      return scheme_.ReconstructBatch(view);
    }
    std::vector<Field::Element> out(a.size());
    std::vector<Field::Element> shares(n);
    for (size_t i = 0; i < a.size(); ++i) {
      for (size_t j = 0; j < n; ++j) shares[j] = view[j][i];
      const Status status =
          scheme_.CheckConsistentSharing(shares, scheme_.threshold());
      if (!status.ok()) {
        return Status(status.code(), "open, element " + std::to_string(i) +
                                         ": " + status.message());
      }
      out[i] = scheme_.Reconstruct(shares);
    }
    return out;
  }
  if (recovery_mode_ && survivors.size() != expected) {
    // Full-quorum rule, Open edition. The output opening is the LAST
    // exchange, so it is the one place a delivery asymmetry cannot
    // self-heal through the next level's census: any t+1 shares open the
    // same value, so parties that did receive enough would release and
    // exit while a party missing one broadcast fails alone, with nobody
    // left to answer its resume barrier. Failing the open for everyone
    // whenever any non-dead party did not deliver keeps the level-failure
    // decision symmetric (the laggard's own broadcast is late or its link
    // is mid-reconnect in BOTH directions), so all parties converge on
    // the barrier and re-open together.
    return Status::Unavailable(
        "open full-quorum failure under recovery: " +
        std::to_string(survivors.size()) + "/" + std::to_string(expected) +
        " non-dead parties delivered; failing for a resume barrier");
  }
  if (survivors.empty()) {
    return Status::Unavailable("open impossible: no broadcast delivered");
  }
  // Any t+1 shares of a consistent sharing agree on the value, so every
  // process opens the same plaintext whichever subset delivered to it.
  return scheme_.ReconstructBatchFromSurvivors(view, survivors,
                                               scheme_.threshold());
}

Status BgwProtocol::VerifySharing(const SharedVector& a,
                                  const std::string& where) const {
  const size_t n = num_parties();
  if (hosted_.size() != n) {
    return Status::FailedPrecondition(
        "sharing verification needs every party's row; this protocol "
        "hosts " + std::to_string(hosted_.size()) + " of " +
        std::to_string(n));
  }
  std::vector<size_t> usable;
  usable.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    if (!PartyDead(j)) usable.push_back(j);
  }
  std::vector<Field::Element> shares(n, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j : usable) shares[j] = a.shares(j)[i];
    const Status status =
        scheme_.CheckConsistentSharing(shares, usable, scheme_.threshold());
    if (!status.ok()) {
      return Status(status.code(), where + ", element " + std::to_string(i) +
                                       ": " + status.message());
    }
  }
  return Status::OK();
}

size_t BgwProtocol::DrainPending() {
  const size_t n = num_parties();
  size_t drained = 0;
  for (size_t j = 0; j < n; ++j) {
    for (size_t r : hosted_) {
      while (network_->HasPending(j, r)) {
        Result<Transport::Payload> stale = network_->Receive(j, r);
        if (!stale.ok()) break;
        ++drained;
      }
    }
  }
  return drained;
}

Result<uint64_t> BgwProtocol::ResumeBarrier(double deadline_seconds,
                                            uint64_t my_encoded_level) {
  if (hosted_.size() != 1) {
    return Status::FailedPrecondition(
        "the resume barrier runs in a process hosting exactly one party, "
        "this protocol hosts " + std::to_string(hosted_.size()));
  }
  SQM_CHECK(liveness_ != nullptr);
  const size_t n = num_parties();
  const size_t self = me();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_seconds));
  PhaseScope phase(network_, "recover");
  obs::Span span("bgw.resume_barrier", "mpc", static_cast<int32_t>(self));
  span.AddArg("encoded_level", static_cast<int64_t>(my_encoded_level));

  const Transport::Payload marker{kRecoveryMagic0, kRecoveryMagic1,
                                  my_encoded_level};
  std::vector<bool> resolved(n, false);
  std::vector<bool> via_marker(n, false);
  uint64_t min_level = my_encoded_level;
  resolved[self] = true;
  // Flush the self channel. Wire channels are flushed below by discarding
  // everything ahead of each peer's marker, but self-sends bypass the
  // wire: a level aborted between its self-send and the matching receive
  // (e.g. an integrity violation on an earlier dealer's batch) leaves the
  // self inbox misaligned, and every later receive on it would be off by
  // one frame. Between levels the self channel is empty by construction,
  // so anything pending here is stale.
  {
    size_t self_stale = 0;
    while (network_->HasPending(self, self)) {
      if (!network_->Receive(self, self).ok()) break;
      ++self_stale;
    }
    if (self_stale > 0) {
      SQM_LOG(kInfo) << "party " << self << " resume barrier: discarded "
                     << self_stale << " stale self-channel frame(s)";
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (j != self && PartyDead(j)) resolved[j] = true;  // Stays dead.
  }

  auto all_resolved = [&resolved] {
    for (size_t j = 0; j < resolved.size(); ++j) {
      if (!resolved[j]) return false;
    }
    return true;
  };

  // Resend/receive passes: each pass re-sends the marker to every
  // unresolved peer — a send to a down link vanishes, and a restarted
  // peer's link comes up at an unpredictable point inside the window, so
  // one send is never enough — then waits up to one transport
  // receive-timeout per unresolved peer. Stale pre-barrier payloads
  // arrive ahead of a peer's marker (links are FIFO) and are discarded
  // here, which is what flushes the in-flight state of the failed level.
  // Deliberately no EndRound inside the loop: the barrier is a recovery
  // exchange, not a protocol round, and passes are not synchronized
  // across parties.
  while (!all_resolved() && Clock::now() < deadline) {
    for (size_t j = 0; j < n; ++j) {
      if (!resolved[j]) network_->Send(self, j, marker);
    }
    for (size_t j = 0; j < n; ++j) {
      if (resolved[j]) continue;
      Result<Transport::Payload> received = network_->Receive(j, self);
      if (!received.ok()) {
        if (received.status().code() == StatusCode::kUnavailable) {
          // Positively dead: reconnect + rejoin window exhausted, i.e.
          // the supervisor's restarts for this peer are spent (or it was
          // never supervised).
          liveness_->MarkDead(j);
          resolved[j] = true;
        }
        continue;  // Timeout: retry on the next pass.
      }
      const Transport::Payload& payload = received.ValueOrDie();
      if (!IsRecoveryMarker(payload)) continue;  // Stale; discard.
      resolved[j] = true;
      via_marker[j] = true;
      min_level = std::min(min_level, payload[2]);
    }
  }

  size_t timed_out = 0;
  for (size_t j = 0; j < n; ++j) {
    if (!resolved[j]) {
      liveness_->MarkDead(j);
      ++timed_out;
    }
  }
  // Marker-resolved peers proved themselves alive at this barrier. The
  // levels from min_level on are redone by everyone, so reviving them
  // cannot mix a pre-crash share of theirs into any quorum.
  for (size_t j = 0; j < n; ++j) {
    if (via_marker[j]) liveness_->Revive(j);
  }
  // One final marker round to the peers that answered: a peer whose link
  // only just came up may have missed every earlier send (dropped on the
  // down link) yet already delivered ITS marker to us — without this
  // round it would sit at its own barrier until its deadline. Peers that
  // already moved on discard the extra marker at their receive sites.
  for (size_t j = 0; j < n; ++j) {
    if (via_marker[j]) network_->Send(self, j, marker);
  }
  SQM_LOG(kInfo) << "party " << self
                 << " resume barrier done: min level code " << min_level
                 << ", " << timed_out
                 << " peer(s) timed out and declared dead, "
                 << liveness_->num_alive() << "/" << n << " alive";
  return min_level;
}

}  // namespace sqm
