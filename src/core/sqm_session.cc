#include "core/sqm_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "core/logging.h"
#include "core/sensitivity.h"
#include "dp/accountant.h"
#include "dp/skellam.h"
#include "mpc/beaver.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sampling/skellam_sampler.h"

namespace sqm {

namespace {

/// options.bgw_threshold, or the largest valid one, (n-1)/2, when 0.
size_t BgwThreshold(const SqmOptions& options, size_t num_clients) {
  return options.bgw_threshold == 0 ? (num_clients - 1) / 2
                                    : options.bgw_threshold;
}

/// Columns owned by client `j`: contiguous blocks, remainder to the first.
std::pair<size_t, size_t> ClientColumnRange(size_t j, size_t cols,
                                            size_t num_clients) {
  const size_t base = cols / num_clients;
  const size_t extra = cols % num_clients;
  const size_t begin = j * base + std::min(j, extra);
  return {begin, begin + base + (j < extra ? 1 : 0)};
}

/// Algorithm 3 lines 1-3. Coefficients are public, so this step costs no
/// privacy.
Result<QuantizedPolynomial> QuantizeCoefficients(const PolynomialVector& f,
                                                 const SqmOptions& options,
                                                 Rng& rng) {
  if (options.quantize_coefficients) {
    Rng coeff_rng = rng.Split(0x0c0eff);
    return QuantizePolynomial(f, options.gamma, coeff_rng);
  }
  // PCA-style: coefficients are already integers of a single-degree
  // polynomial; keep them and down-scale by gamma^lambda only.
  QuantizedPolynomial qf;
  qf.degree = f.Degree();
  qf.output_scale = std::pow(options.gamma, static_cast<double>(qf.degree));
  qf.dims.resize(f.output_dim());
  for (size_t t = 0; t < f.output_dim(); ++t) {
    for (const Monomial& term : f.dims()[t].terms()) {
      if (term.Degree() != f.Degree()) {
        return Status::InvalidArgument(
            "quantize_coefficients=false requires all monomials to have "
            "the polynomial's degree");
      }
      const double c = term.coefficient();
      if (c != std::floor(c)) {
        return Status::InvalidArgument(
            "quantize_coefficients=false requires integer coefficients");
      }
      QuantizedMonomial qm;
      qm.coefficient = static_cast<int64_t>(c);
      qm.exponents = term.exponents();
      qf.dims[t].push_back(std::move(qm));
    }
  }
  return qf;
}

bool Samples(size_t party, size_t j) {
  return party == kAllParties || party == j;
}

}  // namespace

Result<size_t> ValidateSqmRequest(const PolynomialVector& f, size_t rows,
                                  size_t cols, const SqmOptions& options) {
  if (f.output_dim() == 0) {
    return Status::InvalidArgument("polynomial has no output dimensions");
  }
  if (f.MinArity() > cols) {
    return Status::InvalidArgument(
        "polynomial references more variables than the database has columns");
  }
  if (rows == 0) {
    return Status::InvalidArgument("empty database");
  }
  const size_t num_clients =
      options.num_clients == 0 ? cols : options.num_clients;
  if (num_clients < 2) {
    return Status::InvalidArgument(
        "SQM needs >= 2 clients (a single client is the centralized "
        "setting)");
  }
  if (num_clients > cols) {
    return Status::InvalidArgument(
        "more clients than columns: every client must own >= 1 column");
  }
  if (options.gamma < 1.0) {
    return Status::InvalidArgument("gamma must be >= 1");
  }
  if (options.mu < 0.0) {
    return Status::InvalidArgument("mu must be >= 0");
  }
  if (options.check_capacity) {
    SQM_RETURN_NOT_OK(CheckFieldCapacity(rows, options.gamma, f.Degree(),
                                         options.max_f_l2, options.mu));
  }
  if (options.backend == MpcBackend::kBgw) {
    if (num_clients < 3) {
      return Status::InvalidArgument(
          "the BGW backend needs >= 3 clients (threshold < n/2 with "
          "threshold >= 1); use more columns/clients or the plaintext "
          "backend");
    }
    SQM_RETURN_NOT_OK(ShamirScheme::Validate(
        num_clients, BgwThreshold(options, num_clients)));
  }
  return num_clients;
}

Result<SqmInputs> QuantizeAndSampleNoise(const PolynomialVector& f,
                                         const Matrix& x,
                                         const SqmOptions& options,
                                         size_t num_clients, size_t party) {
  SqmInputs inputs;
  Rng rng(options.seed);
  {
    // Algorithm 3 lines 1-5: public coefficients, then each client rounds
    // its own columns privately.
    obs::Span span("sqm.quantize", "sqm");
    const auto start = std::chrono::steady_clock::now();
    SQM_ASSIGN_OR_RETURN(inputs.qf, QuantizeCoefficients(f, options, rng));
    Rng data_rng = rng.Split(0xda7a);
    const auto [begin, end] =
        party == kAllParties
            ? std::pair<size_t, size_t>{0, x.cols()}
            : ClientColumnRange(party, x.cols(), num_clients);
    inputs.db = QuantizeDatabase(x, options.gamma, data_rng, begin, end);
    inputs.quantize_seconds = SecondsSince(start);
  }
  {
    // Lines 6-8: each client draws Sk(mu / n) per output dimension before
    // the MPC phase, which makes the mechanism robust to timing attacks.
    obs::Span span("sqm.noise_sample", "sqm");
    const auto start = std::chrono::steady_clock::now();
    const size_t d = f.output_dim();
    inputs.noise.resize(num_clients);
    for (size_t j = 0; j < num_clients; ++j) {
      if (Samples(party, j)) inputs.noise[j].assign(d, 0);
    }
    if (options.mu > 0.0) {
      const SkellamSampler sampler(options.mu /
                                   static_cast<double>(num_clients));
      for (size_t j = 0; j < num_clients; ++j) {
        Rng client_rng = rng.Split(0x4015e + j);
        if (Samples(party, j)) {
          inputs.noise[j] = sampler.SampleVector(client_rng, d);
        }
      }
    }
    inputs.noise_seconds = SecondsSince(start);
  }
  return inputs;
}

namespace {

/// The public release circuit: each client's columns (row by row), then
/// its noise, as inputs; one output per dimension summing f-hat over the
/// rows plus every client's noise.
Circuit BuildSqmCircuit(const QuantizedPolynomial& qf, size_t rows,
                        size_t cols, size_t num_clients) {
  const size_t d = qf.dims.size();
  Circuit circuit;
  // column_wires[col][row].
  std::vector<std::vector<Circuit::WireId>> column_wires(cols);
  for (size_t j = 0; j < num_clients; ++j) {
    const auto [begin, end] = ClientColumnRange(j, cols, num_clients);
    for (size_t col = begin; col < end; ++col) {
      column_wires[col].resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        column_wires[col][i] = circuit.AddInput(j);
      }
    }
  }
  // noise_wires[j][t].
  std::vector<std::vector<Circuit::WireId>> noise_wires(
      num_clients, std::vector<Circuit::WireId>(d));
  for (size_t j = 0; j < num_clients; ++j) {
    for (size_t t = 0; t < d; ++t) noise_wires[j][t] = circuit.AddInput(j);
  }

  for (size_t t = 0; t < d; ++t) {
    Circuit::WireId acc = circuit.AddConstant(0);
    for (size_t i = 0; i < rows; ++i) {
      for (const QuantizedMonomial& term : qf.dims[t]) {
        // Product of variable powers, then scale by the public quantized
        // coefficient.
        Circuit::WireId prod = 0;
        bool have_prod = false;
        for (const auto& [var, exp] : term.exponents) {
          for (uint32_t e = 0; e < exp; ++e) {
            const Circuit::WireId x = column_wires[var][i];
            prod = have_prod ? circuit.AddMul(prod, x) : x;
            have_prod = true;
          }
        }
        const Field::Element coeff = Field::Encode(term.coefficient);
        const Circuit::WireId scaled =
            have_prod ? circuit.AddMulConst(prod, coeff)
                      : circuit.AddConstant(coeff);
        acc = circuit.AddAdd(acc, scaled);
      }
    }
    for (size_t j = 0; j < num_clients; ++j) {
      acc = circuit.AddAdd(acc, noise_wires[j][t]);
    }
    circuit.MarkOutput(acc);
  }
  return circuit;
}

/// `party`'s inputs in BuildSqmCircuit's declaration order.
std::vector<int64_t> PartyInputs(const SqmInputs& inputs, size_t party,
                                 size_t num_clients) {
  std::vector<int64_t> values;
  const auto [begin, end] =
      ClientColumnRange(party, inputs.db.cols, num_clients);
  for (size_t col = begin; col < end; ++col) {
    const std::vector<int64_t>& column = inputs.db.columns[col];
    values.insert(values.end(), column.begin(), column.end());
  }
  const std::vector<int64_t>& noise = inputs.noise[party];
  values.insert(values.end(), noise.begin(), noise.end());
  return values;
}

/// First run plus checkpoint resumes: 1 under kAbort.
size_t MaxMpcAttempts(const SqmOptions& options) {
  if (options.dropout_policy == DropoutPolicy::kAbort) return 1;
  return std::max<size_t>(options.mpc_max_attempts, 1);
}

/// The Beaver triple pool every party deals offline from the shared seed
/// (kBeaver), sized for MaxMpcAttempts passes; nullptr under kGrr.
std::unique_ptr<BeaverTriplePool> MakeBeaverPool(const SqmOptions& options,
                                                 size_t num_clients,
                                                 size_t threshold,
                                                 const Circuit& circuit) {
  if (options.mul_backend != MulBackend::kBeaver) return nullptr;
  // A checkpoint resume replays Mul levels; running dry mid-protocol is a
  // kFailedPrecondition, never a silent online deal.
  return std::make_unique<BeaverTriplePool>(
      ShamirScheme(num_clients, threshold), options.seed ^ 0xbea7e5,
      circuit.num_multiplications() * MaxMpcAttempts(options));
}

/// kTopUp: when d of n parties died before the opening, each survivor adds
/// Sk(d*mu / (n*(n-d))) so the release carries Sk(mu) again.
struct TopUpPlan {
  std::vector<size_t> survivors;  ///< Empty when no top-up is due.
  double per_survivor_mu = 0.0;
  double mu = 0.0;  ///< Total compensating noise.
};

TopUpPlan PlanTopUp(const SqmOptions& options, size_t num_clients,
                    const LivenessTracker& tracker) {
  TopUpPlan plan;
  const size_t num_dropped = tracker.num_dead();
  if (options.dropout_policy != DropoutPolicy::kTopUp || options.mu <= 0.0 ||
      num_dropped == 0) {
    return plan;
  }
  plan.survivors = tracker.Survivors();
  plan.per_survivor_mu = options.mu * static_cast<double>(num_dropped) /
                         (static_cast<double>(num_clients) *
                          static_cast<double>(plan.survivors.size()));
  // Summed one survivor at a time, as the shares are added.
  for (size_t k = 0; k < plan.survivors.size(); ++k) {
    plan.mu += plan.per_survivor_mu;
  }
  return plan;
}

/// Element k is survivors[k]'s top-up draw; empty unless `party` samples it.
std::vector<std::vector<int64_t>> SampleTopUp(const SqmOptions& options,
                                              const TopUpPlan& plan,
                                              size_t output_dim,
                                              size_t party) {
  std::vector<std::vector<int64_t>> noise(plan.survivors.size());
  const SkellamSampler sampler(plan.per_survivor_mu);
  Rng topup_root(options.seed ^ 0x70bu);
  for (size_t k = 0; k < plan.survivors.size(); ++k) {
    Rng survivor_rng = topup_root.Split(plan.survivors[k]);
    if (Samples(party, plan.survivors[k])) {
      noise[k] = sampler.SampleVector(survivor_rng, output_dim);
    }
  }
  return noise;
}

struct MpcOutcome {
  std::vector<int64_t> raw;  ///< Opened integer release.
  double compute_seconds = 0.0;
  double topup_mu = 0.0;
  size_t attempts = 0;
  size_t resumed_from_level = 0;
};

/// Post-processing (line 11) and the report: traffic, timing, the survivor
/// census, and the realized (epsilon, delta) with its ledger.
Result<SqmReport> FinishSqmReport(const PolynomialVector& f,
                                  const SqmOptions& options,
                                  const SqmInputs& inputs, size_t num_clients,
                                  const LivenessTracker& tracker,
                                  const Transport& transport,
                                  MpcOutcome outcome) {
  const size_t d = f.output_dim();
  SqmReport report;
  report.raw = std::move(outcome.raw);
  report.estimate.resize(d);
  for (size_t t = 0; t < d; ++t) {
    report.estimate[t] =
        static_cast<double>(report.raw[t]) / inputs.qf.output_scale;
  }
  report.network = transport.stats();
  report.transport = transport.Snapshot();
  report.timing.quantize_seconds = inputs.quantize_seconds;
  report.timing.noise_sampling_seconds = inputs.noise_seconds;
  report.timing.mpc_compute_seconds = outcome.compute_seconds;
  report.timing.simulated_network_seconds = transport.SimulatedSeconds();
  // DP adds no protocol step (see SqmTiming): its time is the sampling.
  report.timing.noise_injection_seconds = inputs.noise_seconds;

  // The census includes parties that died during the opening itself; the
  // top-up could only react to deaths known before it. Under kAbort the
  // tracker is never attached, so everyone survives.
  const size_t num_dropped = tracker.num_dead();
  DropoutReport& dropout = report.dropout;
  dropout.policy = options.dropout_policy;
  dropout.num_parties = num_clients;
  dropout.num_dropped = num_dropped;
  dropout.survivors = tracker.Survivors();
  dropout.configured_mu = options.mu;
  dropout.topup_mu = outcome.topup_mu;
  dropout.delta = options.dp_delta;
  dropout.mpc_attempts = outcome.attempts;
  dropout.resumed_from_level = outcome.resumed_from_level;
  if (options.mu <= 0.0) return report;  // No DP configured.

  dropout.realized_mu =
      SkellamMuWithDropouts(options.mu, num_clients, num_dropped) +
      outcome.topup_mu;
  const SensitivityBound sensitivity = PolynomialSensitivity(
      f, options.gamma, options.record_norm_bound, options.max_f_l2,
      options.quantize_coefficients);
  dropout.configured_epsilon = SkellamEpsilonSingleRelease(
      options.mu, sensitivity.l1, sensitivity.l2, options.dp_delta);
  if (dropout.realized_mu <= 0.0) {
    // Every noise contributor dropped: the release is unprotected.
    dropout.realized_epsilon = std::numeric_limits<double>::infinity();
    return report;
  }
  PrivacyAccountant accountant;
  accountant.SetLedgerContext(options.dp_delta, options.gamma, d);
  if (outcome.topup_mu > 0.0) {
    // The top-up restores noise without adding a release: account the
    // single release at its total realized noise.
    accountant.AddSkellam("sqm_release", sensitivity.l1, sensitivity.l2,
                          dropout.realized_mu);
  } else {
    accountant.AddSkellamWithDropouts("sqm_release", sensitivity.l1,
                                      sensitivity.l2, options.mu,
                                      num_clients, num_dropped);
  }
  SQM_ASSIGN_OR_RETURN(const PrivacyGuarantee guarantee,
                       accountant.TotalGuarantee(options.dp_delta));
  dropout.realized_epsilon = guarantee.epsilon;
  dropout.best_alpha = guarantee.best_alpha;
  // Every spend the accountant witnessed, as report data: the ledger rides
  // along in SqmReport and serializes as "privacy_ledger".
  report.ledger = accountant.ledger();
  return report;
}

/// The engine's hosted set: {party}, or every party under kAllParties.
std::vector<size_t> HostedParties(size_t party, size_t num_clients) {
  if (party != kAllParties) return {party};
  std::vector<size_t> all(num_clients);
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

}  // namespace

Result<SqmReport> RunBgwSession(const PolynomialVector& f,
                                const SqmOptions& options,
                                const SqmInputs& inputs, size_t num_clients,
                                Transport* transport, size_t party,
                                const SqmSessionHooks& hooks) {
  const size_t threshold = BgwThreshold(options, num_clients);
  obs::Span bgw_span("sqm.bgw", "sqm");
  bgw_span.AddArg("parties", static_cast<int64_t>(num_clients));
  bgw_span.AddArg("threshold", static_cast<int64_t>(threshold));

  const Circuit circuit = BuildSqmCircuit(inputs.qf, inputs.db.rows,
                                          inputs.db.cols, num_clients);
  BgwEngine engine(ShamirScheme(num_clients, threshold), transport,
                   options.seed ^ 0xb9d7, HostedParties(party, num_clients));
  const DropoutPolicy policy = options.dropout_policy;
  engine.set_verify_sharings(options.verify_sharings &&
                             policy == DropoutPolicy::kAbort);
  const size_t quorum = 2 * threshold + 1;
  LivenessTracker tracker(num_clients);
  if (policy != DropoutPolicy::kAbort) engine.set_liveness(&tracker);
  const bool recovery = hooks.recovery_deadline_seconds > 0.0;
  if (recovery) SQM_RETURN_NOT_OK(engine.protocol().EnableRecoveryMode());
  BgwCheckpoint checkpoint;
  if (hooks.prepare) hooks.prepare(engine, circuit, checkpoint);

  // Beaver backend: the pool is dealt here, before the online clock.
  const std::unique_ptr<BeaverTriplePool> beaver_pool =
      MakeBeaverPool(options, num_clients, threshold, circuit);
  engine.protocol().set_beaver_pool(beaver_pool.get());

  std::vector<std::vector<int64_t>> inputs_per_party(num_clients);
  for (size_t j : engine.protocol().hosted()) {
    inputs_per_party[j] = PartyInputs(inputs, j, num_clients);
  }

  MpcOutcome outcome;
  {
    obs::Span compute_span("sqm.mpc_compute", "sqm");
    const auto compute_start = std::chrono::steady_clock::now();

    // Recovery mode: meets every peer at the resume barrier and redoes from
    // the minimum announced level: 0 = someone lost its input phase, full
    // redo.
    const auto reconcile = [&]() -> Status {
      const uint64_t my_encoded =
          checkpoint.valid ? static_cast<uint64_t>(checkpoint.next_level) + 1
                           : 0;
      SQM_ASSIGN_OR_RETURN(const uint64_t min_encoded,
                           engine.protocol().ResumeBarrier(
                               hooks.recovery_deadline_seconds, my_encoded));
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
    if (recovery && hooks.resume_first) {
      SQM_RETURN_NOT_OK(reconcile());
      outcome.resumed_from_level =
          checkpoint.valid ? checkpoint.next_level : 0;
    }

    // One attempt: evaluate (resuming from the possibly rewound
    // checkpoint), add the survivors' top-up shares, open. Nothing is
    // double-added.
    BgwCheckpoint* checkpoint_ptr =
        policy != DropoutPolicy::kAbort ? &checkpoint : nullptr;
    const size_t d = f.output_dim();
    bool evaluated = false;
    const auto attempt = [&]() -> Result<std::vector<int64_t>> {
      evaluated = false;
      SQM_ASSIGN_OR_RETURN(
          SharedVector shares,
          engine.EvaluateToShares(circuit, inputs_per_party, checkpoint_ptr));
      evaluated = true;
      const TopUpPlan topup = PlanTopUp(options, num_clients, tracker);
      const std::vector<std::vector<int64_t>> topup_noise =
          SampleTopUp(options, topup, d, party);
      for (size_t k = 0; k < topup.survivors.size(); ++k) {
        // A survivor hosted elsewhere is known here only by its length.
        std::vector<Field::Element> values =
            Field::EncodeVector(topup_noise[k]);
        values.resize(d);
        SQM_ASSIGN_OR_RETURN(const SharedVector extra_shares,
                             engine.protocol().ShareFromParty(
                                 topup.survivors[k], values, "topup"));
        SQM_ASSIGN_OR_RETURN(shares,
                             engine.protocol().Add(shares, extra_shares));
      }
      outcome.topup_mu = topup.mu;
      return engine.OpenOutputs(shares);
    };

    // A run that loses a multiplication level to flaky links retries from
    // the last completed level; a quorum shortfall (alive < 2t+1) is final.
    const size_t max_attempts = MaxMpcAttempts(options);
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
      if (evaluated && !recovery) return opened.status();
      SQM_LOG(kInfo) << "BGW attempt " << outcome.attempts
                     << " failed: " << opened.status();
      bool retryable =
          policy != DropoutPolicy::kAbort && outcome.attempts < max_attempts;
      if (retryable && recovery) {
        // The barrier may revive a restarted party or declare a vanished
        // one positively dead, so the quorum check comes after it.
        SQM_RETURN_NOT_OK(reconcile());
      }
      retryable = retryable && (checkpoint.valid || recovery) &&
                  tracker.num_alive() >= quorum;
      if (!retryable) return opened.status();
      outcome.resumed_from_level =
          checkpoint.valid ? checkpoint.next_level : 0;
    }
    outcome.compute_seconds = SecondsSince(compute_start);
  }
  const size_t num_dropped = tracker.num_dead();
  if (num_dropped > 0) {
    SQM_FLIGHT_EVENT2("degrade", DropoutPolicyToString(policy),
                      static_cast<int64_t>(num_dropped),
                      static_cast<int64_t>(outcome.attempts));
  }
  return FinishSqmReport(f, options, inputs, num_clients, tracker,
                         *transport, std::move(outcome));
}

}  // namespace sqm
