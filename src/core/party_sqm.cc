#include "core/party_sqm.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/sqm_session.h"
#include "mpc/bgw.h"
#include "mpc/checkpoint_store.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "poly/parser.h"

namespace sqm {
namespace {

/// Identity of the computation a durable checkpoint belongs to: every
/// config field that determines the circuit structure, the synthetic
/// inputs, or the RNG streams. A checkpoint whose fingerprint mismatches
/// is from a different deployment and must not be resumed.
uint64_t ConfigFingerprint(const DeploymentConfig& config) {
  uint64_t h = 0x53514d434b505431ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(config.run_id);
  mix(config.seed);
  mix(config.data_seed);
  mix(config.rows);
  mix(config.cols);
  mix(config.parties.size());
  mix(config.bgw_threshold);
  mix(std::bit_cast<uint64_t>(config.gamma));
  mix(std::bit_cast<uint64_t>(config.mu));
  mix(config.quantize_coefficients ? 1 : 0);
  // The mul backend changes the RNG consumption schedule (Beaver Mul
  // never draws re-sharing randomness), so checkpoints do not transfer
  // across backends.
  mix(config.mul_backend == "beaver" ? 1 : 0);
  for (const char c : config.polynomial) {
    mix(static_cast<uint8_t>(c));
  }
  return h;
}

}  // namespace

size_t DeploymentCols(const DeploymentConfig& config) {
  return config.cols == 0 ? config.parties.size() : config.cols;
}

Matrix GenerateDeploymentMatrix(size_t rows, size_t cols,
                                uint64_t data_seed) {
  Rng rng(data_seed);
  std::vector<double> values(rows * cols);
  for (size_t i = 0; i < rows; ++i) {
    double norm_sq = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      const double v = 2.0 * rng.NextDouble() - 1.0;
      values[i * cols + j] = v;
      norm_sq += v * v;
    }
    // Normalize records into the unit ball so the default
    // record_norm_bound = 1 sensitivity analysis applies.
    const double norm = std::sqrt(norm_sq);
    if (norm > 1.0) {
      for (size_t j = 0; j < cols; ++j) values[i * cols + j] /= norm;
    }
  }
  return Matrix(rows, cols, std::move(values));
}

Result<SqmOptions> SqmOptionsFromDeployment(const DeploymentConfig& config) {
  SqmOptions options;
  options.gamma = config.gamma;
  options.mu = config.mu;
  options.num_clients = config.parties.size();
  options.backend = MpcBackend::kBgw;
  options.bgw_threshold = config.bgw_threshold;
  options.seed = config.seed;
  SQM_ASSIGN_OR_RETURN(options.dropout_policy,
                       DropoutPolicyFromString(config.dropout_policy));
  SQM_ASSIGN_OR_RETURN(options.mul_backend,
                       MulBackendFromString(config.mul_backend));
  options.dp_delta = config.dp_delta;
  options.record_norm_bound = config.record_norm_bound;
  options.mpc_max_attempts = config.mpc_max_attempts;
  options.max_f_l2 = config.max_f_l2;
  options.quantize_coefficients = config.quantize_coefficients;
  options.check_capacity = config.check_capacity;
  return options;
}

Result<SqmReport> RunPartySqm(const DeploymentConfig& config, size_t me,
                              Transport* transport,
                              const PartySqmHooks& hooks) {
  const size_t num_clients = config.parties.size();
  if (me >= num_clients) {
    return Status::InvalidArgument(
        "party index " + std::to_string(me) + " out of range for " +
        std::to_string(num_clients) + " parties");
  }
  if (transport == nullptr || transport->num_parties() != num_clients) {
    return Status::InvalidArgument(
        "transport party count does not match the deployment roster");
  }
  SQM_ASSIGN_OR_RETURN(const SqmOptions options,
                       SqmOptionsFromDeployment(config));
  SQM_ASSIGN_OR_RETURN(const PolynomialVector f,
                       ParsePolynomialVector(config.polynomial));
  const size_t cols = DeploymentCols(config);
  SQM_RETURN_NOT_OK(
      ValidateSqmRequest(f, config.rows, cols, options).status());

  if (obs::Enabled()) {
    obs::Tracer::Global().SetTrackName(static_cast<int32_t>(me),
                                       "party " + std::to_string(me));
  }
  obs::TrackScope party_track(static_cast<int32_t>(me));
  obs::Span evaluate_span("sqm.party_evaluate", "sqm");
  evaluate_span.AddArg("party", static_cast<int64_t>(me));
  evaluate_span.AddArg("clients", static_cast<int64_t>(num_clients));
  evaluate_span.AddArg("rows", static_cast<int64_t>(config.rows));

  const Matrix x = GenerateDeploymentMatrix(config.rows, cols,
                                            config.data_seed);
  SQM_ASSIGN_OR_RETURN(const SqmInputs inputs,
                       QuantizeAndSampleNoise(f, x, options, num_clients, me));

  const size_t threshold = BgwThreshold(options, num_clients);
  obs::Span bgw_span("sqm.bgw", "sqm");
  bgw_span.AddArg("parties", static_cast<int64_t>(num_clients));
  bgw_span.AddArg("threshold", static_cast<int64_t>(threshold));

  const Circuit circuit =
      BuildSqmCircuit(inputs.qf, config.rows, cols, num_clients);
  BgwEngine engine(ShamirScheme(num_clients, threshold), transport,
                   options.seed ^ 0xb9d7, {me});
  engine.set_mul_level_hook(hooks.mul_level_hook);
  const DropoutPolicy policy = options.dropout_policy;
  const size_t quorum = 2 * threshold + 1;
  LivenessTracker tracker(num_clients);
  if (policy != DropoutPolicy::kAbort) engine.set_liveness(&tracker);

  // Supervised recovery (docs/DEPLOYMENT.md "Recovery & supervision"):
  // durable checkpoints at every phase boundary plus resume barriers on
  // failure, so a kill -9'd party can be respawned and rejoin. Abort runs
  // have no liveness tracker to arbitrate a barrier.
  const bool recovery_enabled = !hooks.checkpoint_dir.empty() &&
                                config.recovery_deadline_seconds > 0.0 &&
                                policy != DropoutPolicy::kAbort;
  const uint64_t fingerprint = ConfigFingerprint(config);
  const CheckpointStore store(hooks.checkpoint_dir);
  BgwCheckpoint checkpoint;
  if (recovery_enabled) {
    SQM_RETURN_NOT_OK(engine.protocol().EnableRecoveryMode());
    engine.set_checkpoint_sink([&](const BgwCheckpoint& ckpt) {
      DurableCheckpoint snap;
      snap.run_id = config.run_id;
      snap.party = static_cast<uint32_t>(me);
      snap.incarnation = hooks.incarnation;
      snap.fingerprint = fingerprint;
      snap.valid = ckpt.valid;
      snap.next_level = ckpt.next_level;
      snap.mul_rounds_done = ckpt.mul_rounds_done;
      snap.wire_shares = ckpt.wire_shares[me];
      engine.protocol().SaveRngState(snap.rng_state);
      const Status saved = store.Save(snap);
      SQM_FLIGHT_EVENT2("ckpt", saved.ok() ? "saved" : "save_failed",
                        static_cast<int64_t>(ckpt.next_level),
                        static_cast<int64_t>(ckpt.mul_rounds_done));
      if (!saved.ok()) {
        // A failed save degrades a future restart to a full redo; this
        // run continues unharmed.
        SQM_LOG(kWarning) << "party " << me
                          << ": durable checkpoint save failed: " << saved;
      }
    });
    if (hooks.incarnation > 0) {
      // Restore the pre-crash shares and RNG cursor so redone levels match.
      Result<DurableCheckpoint> loaded = store.Load();
      DurableCheckpoint* snap = loaded.ok() ? &loaded.ValueOrDie() : nullptr;
      if (snap != nullptr && snap->run_id == config.run_id &&
          snap->party == me && snap->fingerprint == fingerprint &&
          snap->valid &&
          snap->wire_shares.size() == circuit.gates().size()) {
        checkpoint.valid = true;
        checkpoint.next_level = static_cast<size_t>(snap->next_level);
        checkpoint.mul_rounds_done =
            static_cast<size_t>(snap->mul_rounds_done);
        checkpoint.wire_shares.assign(num_clients, {});
        checkpoint.wire_shares[me] = std::move(snap->wire_shares);
        engine.protocol().RestoreRngState(snap->rng_state);
      } else {
        SQM_LOG(kWarning)
            << "party " << me << ": no usable durable checkpoint ("
            << (loaded.ok() ? Status::OK() : loaded.status())
            << "); announcing a full redo at the resume barrier";
      }
    }
  }

  // Supervised recovery cannot realign a restarted party's Beaver triple
  // stream: the pool cursor is not part of the durable checkpoint.
  if (options.mul_backend == MulBackend::kBeaver && recovery_enabled) {
    return Status::InvalidArgument(
        "mul_backend=beaver is not supported with supervised recovery: "
        "the Beaver pool cursor is not part of the durable checkpoint");
  }
  const std::unique_ptr<BeaverTriplePool> beaver_pool =
      MakeBeaverPool(options, num_clients, threshold, circuit);
  engine.protocol().set_beaver_pool(beaver_pool.get());

  const auto compute_start = std::chrono::steady_clock::now();

  // Meets every peer at the resume barrier and redoes from the minimum
  // announced level: 0 = someone lost its input phase, full redo.
  const auto reconcile = [&]() -> Status {
    const uint64_t my_encoded =
        checkpoint.valid ? static_cast<uint64_t>(checkpoint.next_level) + 1
                         : 0;
    SQM_ASSIGN_OR_RETURN(const uint64_t min_encoded,
                         engine.protocol().ResumeBarrier(
                             config.recovery_deadline_seconds, my_encoded));
    if (min_encoded == 0) {
      checkpoint = BgwCheckpoint{};
    } else {
      // min includes our own announcement, so min - 1 <= next_level.
      checkpoint.next_level = static_cast<size_t>(min_encoded - 1);
    }
    SQM_FLIGHT_EVENT2("resume_barrier", "",
                      static_cast<int64_t>(my_encoded),
                      static_cast<int64_t>(min_encoded));
    return Status::OK();
  };

  // Checkpoint retry loop. Under TCP's crash-stop model a failed level
  // usually means a permanent quorum shortfall, so without recovery
  // retries are rare; with recovery, a failed level is the normal
  // rendezvous with a restarted peer.
  BgwCheckpoint* checkpoint_ptr =
      policy != DropoutPolicy::kAbort ? &checkpoint : nullptr;
  const size_t max_attempts = MaxMpcAttempts(options);
  const size_t d = f.output_dim();
  std::vector<std::vector<int64_t>> my_inputs(num_clients);
  my_inputs[me] = PartyInputs(inputs, me, num_clients);
  MpcOutcome outcome;
  if (recovery_enabled && hooks.incarnation > 0) {
    // The peers of this killed-and-respawned party are already waiting at
    // their barriers; answer before the first attempt.
    SQM_RETURN_NOT_OK(reconcile());
    outcome.resumed_from_level = checkpoint.valid ? checkpoint.next_level : 0;
  }

  // One attempt: evaluate (resuming from the possibly rewound checkpoint),
  // add this party's top-up share, open. Nothing is double-added.
  bool evaluated = false;
  const auto attempt = [&]() -> Result<std::vector<int64_t>> {
    evaluated = false;
    SQM_ASSIGN_OR_RETURN(
        SharedVector shares,
        engine.EvaluateToShares(circuit, my_inputs, checkpoint_ptr));
    evaluated = true;
    const TopUpPlan topup = PlanTopUp(options, num_clients, tracker);
    const std::vector<std::vector<int64_t>> topup_noise =
        SampleTopUp(options, topup, d, me);
    for (size_t k = 0; k < topup.survivors.size(); ++k) {
      // Another survivor's draw is known here only by its length.
      std::vector<Field::Element> values = Field::EncodeVector(topup_noise[k]);
      values.resize(d);
      SQM_ASSIGN_OR_RETURN(
          const SharedVector extra_shares,
          engine.protocol().ShareFromParty(topup.survivors[k], values,
                                           "topup"));
      SQM_ASSIGN_OR_RETURN(shares, engine.protocol().Add(shares, extra_shares));
    }
    outcome.topup_mu = topup.mu;
    return engine.OpenOutputs(shares);
  };

  while (true) {
    ++outcome.attempts;
    Result<std::vector<int64_t>> opened = attempt();
    if (opened.ok()) {
      outcome.raw = std::move(opened).ValueOrDie();
      break;
    }
    // Without recovery a top-up or open failure is terminal. Under
    // recovery the opening's full-quorum failure (a laggard peer still at
    // its resume barrier) routes back through reconcile() like any failed
    // level, or the laggard would be stranded with nobody answering it.
    if (evaluated && !recovery_enabled) return opened.status();
    SQM_LOG(kInfo) << "party " << me << " attempt " << outcome.attempts
                   << " failed: " << opened.status();
    bool retryable =
        policy != DropoutPolicy::kAbort && outcome.attempts < max_attempts;
    if (retryable && recovery_enabled) {
      // The barrier may revive a restarted party or declare a vanished
      // one positively dead, so the quorum check comes after it.
      SQM_RETURN_NOT_OK(reconcile());
    }
    retryable = retryable && (checkpoint.valid || recovery_enabled) &&
                tracker.num_alive() >= quorum;
    if (!retryable) return opened.status();
    outcome.resumed_from_level = checkpoint.valid ? checkpoint.next_level : 0;
  }
  outcome.compute_seconds = SecondsSince(compute_start);
  const size_t num_dropped = tracker.num_dead();
  if (num_dropped > 0) {
    SQM_FLIGHT_EVENT2("degrade", config.dropout_policy.c_str(),
                      static_cast<int64_t>(num_dropped),
                      static_cast<int64_t>(outcome.attempts));
  }
  return FinishSqmReport(f, options, inputs, num_clients, tracker,
                         *transport, std::move(outcome));
}

}  // namespace sqm
