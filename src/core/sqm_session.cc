#include "core/sqm_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/sensitivity.h"
#include "dp/accountant.h"
#include "dp/skellam.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "obs/trace.h"
#include "sampling/skellam_sampler.h"

namespace sqm {

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

namespace {

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

size_t MaxMpcAttempts(const SqmOptions& options) {
  if (options.dropout_policy == DropoutPolicy::kAbort) return 1;
  return std::max<size_t>(options.mpc_max_attempts, 1);
}

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

}  // namespace sqm
