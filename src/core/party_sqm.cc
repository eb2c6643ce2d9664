#include "core/party_sqm.h"

#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/sqm_session.h"
#include "mpc/checkpoint_store.h"
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

  // Supervised recovery (docs/DEPLOYMENT.md "Recovery & supervision"):
  // durable checkpoints at every phase boundary plus resume barriers on
  // failure, so a kill -9'd party can be respawned and rejoin. Abort runs
  // have no liveness tracker to arbitrate a barrier.
  const bool recovery_enabled = !hooks.checkpoint_dir.empty() &&
                                config.recovery_deadline_seconds > 0.0 &&
                                options.dropout_policy != DropoutPolicy::kAbort;
  // Supervised recovery cannot realign a restarted party's Beaver triple
  // stream: the pool cursor is not part of the durable checkpoint.
  if (options.mul_backend == MulBackend::kBeaver && recovery_enabled) {
    return Status::InvalidArgument(
        "mul_backend=beaver is not supported with supervised recovery: "
        "the Beaver pool cursor is not part of the durable checkpoint");
  }
  const uint64_t fingerprint = ConfigFingerprint(config);
  const CheckpointStore store(hooks.checkpoint_dir);

  SqmSessionHooks session;
  if (recovery_enabled) {
    session.recovery_deadline_seconds = config.recovery_deadline_seconds;
    // The peers of this killed-and-respawned party are already waiting at
    // their barriers; answer before the first attempt.
    session.resume_first = hooks.incarnation > 0;
  }
  session.prepare = [&](BgwEngine& engine, const Circuit& circuit,
                        BgwCheckpoint& checkpoint) {
    engine.set_mul_level_hook(hooks.mul_level_hook);
    if (!recovery_enabled) return;
    // The engine owns the sink, so its protocol outlives every call.
    engine.set_checkpoint_sink([&, protocol = &engine.protocol()](
                                   const BgwCheckpoint& ckpt) {
      DurableCheckpoint snap;
      snap.run_id = config.run_id;
      snap.party = static_cast<uint32_t>(me);
      snap.incarnation = hooks.incarnation;
      snap.fingerprint = fingerprint;
      snap.valid = ckpt.valid;
      snap.next_level = ckpt.next_level;
      snap.mul_rounds_done = ckpt.mul_rounds_done;
      snap.wire_shares = ckpt.wire_shares[me];
      protocol->SaveRngState(snap.rng_state);
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
    if (hooks.incarnation == 0) return;
    // Restore the pre-crash shares and RNG cursor so redone levels match.
    Result<DurableCheckpoint> loaded = store.Load();
    DurableCheckpoint* snap = loaded.ok() ? &loaded.ValueOrDie() : nullptr;
    if (snap != nullptr && snap->run_id == config.run_id &&
        snap->party == me && snap->fingerprint == fingerprint &&
        snap->valid && snap->wire_shares.size() == circuit.gates().size()) {
      checkpoint.valid = true;
      checkpoint.next_level = static_cast<size_t>(snap->next_level);
      checkpoint.mul_rounds_done = static_cast<size_t>(snap->mul_rounds_done);
      checkpoint.wire_shares.assign(num_clients, {});
      checkpoint.wire_shares[me] = std::move(snap->wire_shares);
      engine.protocol().RestoreRngState(snap->rng_state);
    } else {
      SQM_LOG(kWarning)
          << "party " << me << ": no usable durable checkpoint ("
          << (loaded.ok() ? Status::OK() : loaded.status())
          << "); announcing a full redo at the resume barrier";
    }
  };
  return RunBgwSession(f, options, inputs, num_clients, transport, me,
                       session);
}

}  // namespace sqm
