#ifndef SQM_MPC_PROTOCOL_H_
#define SQM_MPC_PROTOCOL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/transport.h"
#include "sampling/rng.h"

namespace sqm {

class BeaverTriplePool;

/// A secret-shared vector: element i is Shamir-shared across all parties,
/// shares(party)[i] being party's share. Produced and consumed by
/// BgwProtocol; callers never see plaintext until Open(). A protocol that
/// hosts only some parties allocates only their rows; the other rows stay
/// empty.
class SharedVector {
 public:
  SharedVector() = default;
  /// A row for every party.
  SharedVector(size_t num_parties, size_t size)
      : shares_(num_parties, std::vector<Field::Element>(size, 0)),
        size_(size) {}
  /// Rows for the parties in `rows` only.
  SharedVector(size_t num_parties, size_t size,
               const std::vector<size_t>& rows)
      : shares_(num_parties), size_(size) {
    for (size_t party : rows) shares_[party].assign(size, 0);
  }

  size_t num_parties() const { return shares_.size(); }
  size_t size() const { return size_; }

  std::vector<Field::Element>& shares(size_t party) { return shares_[party]; }
  const std::vector<Field::Element>& shares(size_t party) const {
    return shares_[party];
  }

 private:
  std::vector<std::vector<Field::Element>> shares_;
  size_t size_ = 0;
};

/// Vectorized semi-honest BGW primitives over an abstract transport, for a
/// set of hosted parties fixed at construction.
///
/// The engine plays the hosted parties and nobody else: every operation
/// sends only from hosted parties and receives only at hosted parties, and
/// the message pattern is exactly the real protocol's, so communication
/// counters and round counts are faithful. The in-process driver hosts all
/// n parties on one thread; a deployed party process hosts only itself.
/// Both derive party j's randomness from the same root.Split(j) sequence,
/// so n single-party engines release values bit-identical to one
/// all-party engine with the same seed.
///  - `ShareFromParty` — the input phase (one round).
///  - `Add`/`Sub`/`ScaleConst` — local, no communication.
///  - `Mul` — each party multiplies its shares locally (degree-2t sharing),
///    re-shares the product with a fresh degree-t polynomial, and the
///    parties recombine with the degree-2t Lagrange weights (GRR
///    degree-reduction; one round, n*(n-1) messages per batch).
///  - `Open` — each party broadcasts its share; everyone interpolates
///    (one round).
///
/// All element-wise operations are batched: a Mul over a K-element vector
/// costs one round and n*(n-1) messages of K elements.
///
/// Dropout tolerance: attach a LivenessTracker via set_liveness(). Parties
/// the tracker declares dead are skipped entirely (no sends, no timeout
/// windows burned), openings interpolate over the surviving evaluation
/// points, and Mul switches to its quorum path: after the sub-share
/// exchange the survivors run a census round (phase "census"),
/// broadcasting a bitmask of the dealers they received and intersecting
/// the masks, so every survivor recombines over the SAME 2t+1 dealer set.
/// Any 2t+1 dealers recombine to the same free coefficient, so a degraded
/// run's released values equal the no-crash run's; fewer than 2t+1 fails
/// with kUnavailable naming the quorum shortfall. The census is agreement
/// under the documented failure model (crash-stop, reliable links among
/// survivors, failures detected by every survivor within its timeout
/// window); it is not Byzantine consensus. The tracker gets one verdict
/// per sender per round: a failure if any hosted recipient missed it.
class BgwProtocol {
 public:
  /// Hosts every party. `network` must outlive the protocol and have the
  /// same party count as `scheme`. `seed` drives all sharing randomness.
  BgwProtocol(ShamirScheme scheme, Transport* network, uint64_t seed);

  /// Hosts exactly the parties in `hosted` (ascending, distinct).
  BgwProtocol(ShamirScheme scheme, Transport* network, uint64_t seed,
              std::vector<size_t> hosted);

  size_t num_parties() const { return scheme_.num_parties(); }
  const std::vector<size_t>& hosted() const { return hosted_; }

  /// Input phase: `dealer` deals values.size() elements and every hosted
  /// party receives its share row. A dealer this engine does not host
  /// deals from its own process; then only values.size() is read. With a
  /// liveness tracker, a dead dealer or a failed receive fails
  /// kUnavailable — a lost *input* cannot be degraded around (no quorum
  /// holds the secret). `phase_label` tags the traffic ("input", "topup").
  Result<SharedVector> ShareFromParty(
      size_t dealer, const std::vector<Field::Element>& values,
      const std::string& phase_label = "input");

  /// Shares a public constant vector (deterministic degree-0 "sharing";
  /// no communication — every party just adopts the constant).
  SharedVector SharePublic(const std::vector<Field::Element>& values) const;

  /// Element-wise addition/subtraction; local.
  Result<SharedVector> Add(const SharedVector& a, const SharedVector& b) const;
  Result<SharedVector> Sub(const SharedVector& a, const SharedVector& b) const;

  /// Multiplies every element by public constant c; local.
  SharedVector ScaleConst(const SharedVector& a, Field::Element c) const;

  /// Element-wise product with GRR degree reduction: one communication
  /// round without a tracker, two (sub-shares + census) with one. With a
  /// Beaver pool attached, one opening round in both cases: the opened
  /// (x-a, y-b) values are public, so any t+1 survivor shares agree and
  /// no census is needed.
  Result<SharedVector> Mul(const SharedVector& a, const SharedVector& b);

  /// Sum of all elements into a 1-element shared vector; local.
  SharedVector SumElements(const SharedVector& a) const;

  /// Inner product <a, b> as a 1-element shared vector: one Mul round plus
  /// a local sum.
  Result<SharedVector> InnerProduct(const SharedVector& a,
                                    const SharedVector& b);

  /// Opens the shared vector to all parties (one round) and returns the
  /// plaintext. Without a tracker it reconstructs from every broadcast;
  /// with one, dead parties are skipped and reconstruction interpolates
  /// over whichever survivors delivered (any t+1 agree on the value).
  Result<std::vector<Field::Element>> Open(const SharedVector& a);

  /// Opens and decodes to centered signed integers.
  Result<std::vector<int64_t>> OpenSigned(const SharedVector& a);

  /// Enables conformance verification (default off, so benchmark timings
  /// and traffic are unchanged): input dealings and Mul outputs must be
  /// consistent degree-t sharings, and Open checks that every broadcaster
  /// sent the same vector to every recipient. With verification on, every
  /// single-message wire tamper (additive perturbation, bit flip,
  /// wrong-degree dealing, equivocation, replay, swallow) surfaces as a
  /// descriptive error Status instead of a silent wrong open — the
  /// property tests/adversary_test.cc asserts per policy. A real
  /// deployment would get the same guarantee from verifiable secret
  /// sharing; the checks need every party's row, so they refuse with
  /// kFailedPrecondition unless every party is hosted.
  void set_verify_sharings(bool verify) {
    verify_sharings_ = verify;
    // Also arm the scheme-level debug assert: Reconstruct checks that ALL
    // n shares lie on the interpolated polynomial instead of silently
    // using only the first threshold+1.
    scheme_.set_verify_reconstruction(verify);
  }

  /// Attaches an offline-dealt BeaverTriplePool (nullptr detaches); Mul
  /// switches from GRR degree reduction to the Beaver online path: one
  /// opening of (x-a, y-b) per Mul, consuming one triple per element. Every
  /// process constructs its pool from the same (scheme, seed, capacity), so
  /// the triple streams agree without communication. The pool must outlive
  /// the protocol while attached; exhaustion surfaces as the pool's
  /// kFailedPrecondition. Not supported with recovery mode: the pool
  /// cursor is not part of the durable checkpoint.
  void set_beaver_pool(BeaverTriplePool* pool) { beaver_pool_ = pool; }

  /// Beaver triples consumed by Mul since construction (0 under GRR).
  size_t beaver_triples_used() const { return beaver_triples_used_; }

  /// Conformance check: every element of `a` must be a consistent
  /// degree-threshold sharing across all parties (or across the alive
  /// parties when a liveness tracker is attached). kIntegrityViolation
  /// names `where` and the offending element on failure.
  Status VerifySharing(const SharedVector& a, const std::string& where) const;

  /// Attaches (or detaches, with nullptr) a failure detector. Must outlive
  /// the protocol while attached. A deployed party holds its OWN tracker —
  /// liveness is a local view, reconciled by the census where it must be.
  void set_liveness(LivenessTracker* tracker) { liveness_ = tracker; }

  /// Discards every currently deliverable message addressed to a hosted
  /// party. Called when resuming from a checkpoint after a failed round,
  /// so stale sub-shares from the aborted round cannot mix into the
  /// retry's fresh randomness.
  size_t DrainPending();

  /// Recovery mode, for a process hosting exactly one party (refused with
  /// kFailedPrecondition otherwise), changes two behaviors, both needed
  /// for supervised restart+rejoin (see docs/DEPLOYMENT.md "Recovery &
  /// supervision"):
  ///  - Full-quorum multiplications and openings: a level fails unless
  ///    every non-dead party dealt to everyone and voted, so all parties
  ///    fail a level together and meet at the same resume barrier instead
  ///    of partitioning into a degraded majority and an orphaned restartee.
  ///  - Marker tolerance: every receive site discards late resume-barrier
  ///    markers (a peer that finished its barrier first may send one final
  ///    marker round into our next protocol phase).
  /// Requires a LivenessTracker and an immediate-delivery transport (TCP
  /// or threaded; the lockstep transport defers delivery to EndRound and
  /// cannot run the barrier's resend loop).
  Status EnableRecoveryMode();
  bool recovery_mode() const { return recovery_mode_; }

  /// Resynchronization point after a failed level or a supervised restart
  /// (exactly one hosted party, else kFailedPrecondition).
  ///
  /// Every participant announces the level it can resume from, encoded as
  /// 0 = "no checkpoint, full redo" or next_level + 1 otherwise, and loops
  /// {resend marker, try receive} per unresolved peer until each is either
  /// marker-resolved (answered with its own marker) or positively dead
  /// (transport kUnavailable), or `deadline_seconds` elapses — peers still
  /// unresolved at the deadline are MarkDead. Marker-resolved peers are
  /// Revive()d (the sanctioned resurrection: the minimum announced level
  /// is redone by everyone, so no pre-crash share can reach a quorum).
  ///
  /// Returns the minimum encoded level across self and every
  /// marker-resolved peer: 0 means redo from scratch (invalidate the
  /// checkpoint), v > 0 means set next_level = v - 1 and redo from there.
  /// Redoing a completed level is safe: mul wires are overwritten with
  /// freshly dealt, census-consistent sub-shares, and non-mul gates are
  /// pure functions of their inputs.
  Result<uint64_t> ResumeBarrier(double deadline_seconds,
                                 uint64_t my_encoded_level);

  /// Snapshot / restore of the single hosted party's RNG stream, so a
  /// durable checkpoint can resume share dealing bit-identically: the
  /// restarted process regenerates exactly the sub-share randomness the
  /// crashed one would have drawn next.
  void SaveRngState(uint64_t out[4]) const;
  void RestoreRngState(const uint64_t state[4]);

 private:
  /// Quorum-path recombination after the sub-share round: collects every
  /// dealer's batch, runs the census, and recombines each hosted live row
  /// of `out` over the first 2t+1 agreed dealers.
  Status RecombineAgreedDealers(SharedVector* out);

  /// Receives `sender`'s message of this round at every hosted live
  /// recipient into (*copies)[r], reading every channel even after a miss
  /// so they stay aligned. Returns whether all of them got a copy; a miss
  /// gives the tracker one verdict on the sender (without a tracker, the
  /// failed receive is the error). A mis-sized copy is kIntegrityViolation
  /// (`what` names the message), or a miss in recovery mode.
  Result<bool> ReceiveFromSender(
      size_t sender, size_t size, const char* what,
      std::vector<std::vector<Field::Element>>* copies);

  /// Beaver online multiplication used when a pool is attached: one
  /// opening (tagged to the "mul" phase) plus local combination.
  Result<SharedVector> MulBeaver(const SharedVector& a,
                                 const SharedVector& b);

  /// Broadcast-and-reconstruct body shared by Open and MulBeaver; the
  /// caller owns the PhaseScope so the traffic lands in the right phase.
  Result<std::vector<Field::Element>> OpenInPhase(const SharedVector& a);

  /// Receive that discards late resume-barrier markers in recovery mode.
  /// ALL protocol receive sites go through this.
  Result<Transport::Payload> RecvData(size_t from, size_t to);

  /// Feeds a receive failure to the liveness tracker — except that in
  /// recovery mode only the transport's positive kUnavailable counts as
  /// death (timeouts fail the level but keep the peer revivable). Callers
  /// must hold a non-null liveness_.
  void RecordRecvFailure(size_t party, StatusCode code);

  SharedVector NewShared(size_t size) const {
    return SharedVector(num_parties(), size, hosted_);
  }

  /// The trace track for engine-wide spans: the hosted party's own track
  /// in a single-party process, the caller's track otherwise.
  int32_t EngineTrack() const;

  /// The single hosted party (recovery, barrier and RNG snapshots).
  size_t me() const;

  bool Hosts(size_t party) const {
    return std::binary_search(hosted_.begin(), hosted_.end(), party);
  }

  bool PartyDead(size_t party) const {
    return liveness_ != nullptr && liveness_->IsDead(party);
  }

  ShamirScheme scheme_;
  Transport* network_;
  std::vector<size_t> hosted_;  ///< Ascending.
  LivenessTracker* liveness_ = nullptr;
  BeaverTriplePool* beaver_pool_ = nullptr;
  bool verify_sharings_ = false;
  bool recovery_mode_ = false;
  size_t beaver_triples_used_ = 0;
  std::vector<Rng> party_rngs_;  // Independent randomness per party.
  std::vector<Field::Element> degree2t_lagrange_;
};

}  // namespace sqm

#endif  // SQM_MPC_PROTOCOL_H_
