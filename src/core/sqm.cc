#include "core/sqm.h"

#include <chrono>
#include <memory>

#include "core/sqm_session.h"
#include "mpc/field.h"
#include "net/lockstep.h"
#include "obs/trace.h"

namespace sqm {

const char* DropoutPolicyToString(DropoutPolicy policy) {
  switch (policy) {
    case DropoutPolicy::kAbort:
      return "abort";
    case DropoutPolicy::kDegrade:
      return "degrade";
    case DropoutPolicy::kTopUp:
      return "topup";
  }
  return "unknown";
}

Result<DropoutPolicy> DropoutPolicyFromString(const std::string& name) {
  if (name == "abort") return DropoutPolicy::kAbort;
  if (name == "degrade") return DropoutPolicy::kDegrade;
  if (name == "topup") return DropoutPolicy::kTopUp;
  return Status::InvalidArgument("unknown dropout policy \"" + name +
                                 "\" (expected abort, degrade, or topup)");
}

const char* MulBackendToString(MulBackend backend) {
  switch (backend) {
    case MulBackend::kGrr:
      return "grr";
    case MulBackend::kBeaver:
      return "beaver";
  }
  return "unknown";
}

Result<MulBackend> MulBackendFromString(const std::string& name) {
  if (name == "grr") return MulBackend::kGrr;
  if (name == "beaver") return MulBackend::kBeaver;
  return Status::InvalidArgument("unknown mul backend \"" + name +
                                 "\" (expected grr or beaver)");
}

SqmEvaluator::SqmEvaluator(SqmOptions options)
    : options_(std::move(options)) {}

Result<SqmReport> SqmEvaluator::Evaluate(const PolynomialVector& f,
                                         const Matrix& x) {
  SQM_ASSIGN_OR_RETURN(const size_t num_clients,
                       ValidateSqmRequest(f, x.rows(), x.cols(), options_));

  obs::Span evaluate_span("sqm.evaluate", "sqm");
  evaluate_span.AddArg("clients", static_cast<int64_t>(num_clients));
  evaluate_span.AddArg("rows", static_cast<int64_t>(x.rows()));
  evaluate_span.AddArg("output_dim", static_cast<int64_t>(f.output_dim()));

  SQM_ASSIGN_OR_RETURN(
      const SqmInputs inputs,
      QuantizeAndSampleNoise(f, x, options_, num_clients, kAllParties));

  if (options_.backend == MpcBackend::kPlaintext) {
    return EvaluatePlaintext(inputs);
  }
  return EvaluateBgw(f, inputs, num_clients);
}

Result<SqmReport> SqmEvaluator::EvaluatePlaintext(const SqmInputs& inputs) {
  const QuantizedPolynomial& qf = inputs.qf;
  const size_t d = qf.dims.size();
  SqmReport report;
  report.raw.resize(d);
  report.estimate.resize(d);
  const auto compute_start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < d; ++t) {
    __int128 acc = 0;
    for (size_t i = 0; i < inputs.db.rows; ++i) {
      SQM_ASSIGN_OR_RETURN(int64_t value,
                           EvaluateQuantizedDim(qf.dims[t], inputs.db, i));
      acc += value;
    }
    if (acc > Field::kMaxCentered || acc < -Field::kMaxCentered) {
      return Status::OutOfRange(
          "aggregate exceeds field capacity; lower gamma or split the data");
    }
    // Perturbation: the clients' noise joins the same sum, as in the
    // circuit.
    for (const auto& client_noise : inputs.noise) acc += client_noise[t];
    if (acc > Field::kMaxCentered || acc < -Field::kMaxCentered) {
      return Status::OutOfRange("noisy aggregate exceeds field capacity");
    }
    report.raw[t] = static_cast<int64_t>(acc);
    report.estimate[t] = static_cast<double>(report.raw[t]) / qf.output_scale;
  }
  report.timing.quantize_seconds = inputs.quantize_seconds;
  report.timing.noise_sampling_seconds = inputs.noise_seconds;
  report.timing.mpc_compute_seconds = SecondsSince(compute_start);
  report.timing.noise_injection_seconds = inputs.noise_seconds;
  return report;
}

Result<SqmReport> SqmEvaluator::EvaluateBgw(const PolynomialVector& f,
                                            const SqmInputs& inputs,
                                            size_t num_clients) {
  // Name the party tracks so the exported trace renders one labeled row
  // per party; the driver's own spans go on the track after the parties.
  if (obs::Enabled()) {
    for (size_t j = 0; j < num_clients; ++j) {
      obs::Tracer::Global().SetTrackName(static_cast<int32_t>(j),
                                         "party " + std::to_string(j));
    }
    obs::Tracer::Global().SetTrackName(static_cast<int32_t>(num_clients),
                                       "driver");
  }
  obs::TrackScope driver_track(static_cast<int32_t>(num_clients));

  // The options pick the execution model: deterministic lock-step, or
  // concurrent mailboxes with optional fault injection.
  std::unique_ptr<Transport> network;
  if (options_.transport == TransportMode::kThreaded) {
    ThreadedTransportOptions threaded = options_.threaded;
    threaded.per_round_latency_seconds = options_.network_latency_seconds;
    threaded.element_wire_bytes = Field::kWireBytes;
    network = std::make_unique<ThreadedTransport>(num_clients, threaded);
  } else {
    auto lockstep = std::make_unique<LockstepTransport>(
        num_clients, options_.network_latency_seconds, Field::kWireBytes);
    // Lockstep honors the crash component of the fault options, so the
    // same dropout scenario runs under both transports.
    lockstep->ScheduleCrashes(options_.threaded.faults.EffectiveCrashes());
    network = std::move(lockstep);
  }
  network->SetInterceptor(options_.interceptor);
  return RunBgwSession(f, options_, inputs, num_clients, network.get(),
                       kAllParties);
}

}  // namespace sqm
