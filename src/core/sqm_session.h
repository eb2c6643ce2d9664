#ifndef SQM_CORE_SQM_SESSION_H_
#define SQM_CORE_SQM_SESSION_H_

// One SQM release (Algorithm 3) as plain functions that the in-process
// driver (SqmEvaluator, all parties) and the networked session
// (RunPartySqm, party `me`) both call, so their releases and accounting are
// bit-identical by construction. Each driver only runs its own engine
// between these calls. Functions taking `party` compute what that party
// knows; kAllParties computes every party's values.

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/quantize.h"
#include "core/sqm.h"
#include "core/status.h"
#include "math/matrix.h"
#include "mpc/beaver.h"
#include "mpc/circuit.h"
#include "net/liveness.h"
#include "net/transport.h"
#include "poly/polynomial.h"

namespace sqm {

inline constexpr size_t kAllParties = static_cast<size_t>(-1);

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Refuses a bad request before any work or traffic; returns the client
/// count (options.num_clients, or one per column when 0).
Result<size_t> ValidateSqmRequest(const PolynomialVector& f, size_t rows,
                                  size_t cols, const SqmOptions& options);

/// options.bgw_threshold, or the largest valid one, (n-1)/2, when 0.
inline size_t BgwThreshold(const SqmOptions& options, size_t num_clients) {
  return options.bgw_threshold == 0 ? (num_clients - 1) / 2
                                    : options.bgw_threshold;
}

/// Algorithm 3 lines 1-8: the public quantized coefficients, then the
/// party's quantized columns and Sk(mu/n) noise draws (zeros when mu = 0).
/// Other parties' columns and noise stay empty.
struct SqmInputs {
  QuantizedPolynomial qf;
  QuantizedDatabase db;
  std::vector<std::vector<int64_t>> noise;  ///< [client][output dim].
  double quantize_seconds = 0.0;
  double noise_seconds = 0.0;
};

/// Takes every split of the options.seed RNG schedule but samples only
/// from `party`'s streams, so its values equal a kAllParties run's.
Result<SqmInputs> QuantizeAndSampleNoise(const PolynomialVector& f,
                                         const Matrix& x,
                                         const SqmOptions& options,
                                         size_t num_clients, size_t party);

/// The public release circuit: each client's columns (row by row), then
/// its noise, as inputs; one output per dimension summing f-hat over the
/// rows plus every client's noise.
Circuit BuildSqmCircuit(const QuantizedPolynomial& qf, size_t rows,
                        size_t cols, size_t num_clients);

/// `party`'s inputs in BuildSqmCircuit's declaration order.
std::vector<int64_t> PartyInputs(const SqmInputs& inputs, size_t party,
                                 size_t num_clients);

/// First run plus checkpoint resumes: 1 under kAbort.
size_t MaxMpcAttempts(const SqmOptions& options);

/// The Beaver triple pool every party deals offline from the shared seed
/// (kBeaver), sized for MaxMpcAttempts passes; nullptr under kGrr.
std::unique_ptr<BeaverTriplePool> MakeBeaverPool(const SqmOptions& options,
                                                 size_t num_clients,
                                                 size_t threshold,
                                                 const Circuit& circuit);

/// kTopUp: when d of n parties died before the opening, each survivor adds
/// Sk(d*mu / (n*(n-d))) so the release carries Sk(mu) again.
struct TopUpPlan {
  std::vector<size_t> survivors;  ///< Empty when no top-up is due.
  double per_survivor_mu = 0.0;
  double mu = 0.0;  ///< Total compensating noise.
};

TopUpPlan PlanTopUp(const SqmOptions& options, size_t num_clients,
                    const LivenessTracker& tracker);

/// Element k is survivors[k]'s top-up draw; empty unless `party` samples it.
std::vector<std::vector<int64_t>> SampleTopUp(const SqmOptions& options,
                                              const TopUpPlan& plan,
                                              size_t output_dim,
                                              size_t party);

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
                                  MpcOutcome outcome);

}  // namespace sqm

#endif  // SQM_CORE_SQM_SESSION_H_
