#ifndef SQM_CORE_SQM_SESSION_H_
#define SQM_CORE_SQM_SESSION_H_

// One SQM release (Algorithm 3) as plain functions that the in-process
// driver (SqmEvaluator, all parties) and the networked session
// (RunPartySqm, party `me`) both call, so their releases and accounting are
// bit-identical by construction. The drivers differ only in the transport
// they build and the parties they host. Functions taking `party` compute
// what that party knows; kAllParties computes every party's values.

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/quantize.h"
#include "core/sqm.h"
#include "core/status.h"
#include "math/matrix.h"
#include "mpc/bgw.h"
#include "mpc/circuit.h"
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

/// What a deployed party adds to its BGW session; the in-process driver
/// passes none.
struct SqmSessionHooks {
  /// Runs once on the built engine before the first attempt, with the
  /// release circuit and the session's checkpoint: attaches the mul-level
  /// hook, the durable checkpoint sink, and a restarted party's restored
  /// checkpoint and RNG cursor.
  std::function<void(BgwEngine&, const Circuit&, BgwCheckpoint&)> prepare;

  /// > 0 runs the engine in recovery mode: a failed attempt meets every
  /// peer at a resume barrier that waits this long and redoes from the
  /// lowest level anyone announced.
  double recovery_deadline_seconds = 0.0;

  /// Recovery mode: meet the peers at the barrier before the first attempt
  /// (a restarted party, whose peers already wait at theirs).
  bool resume_first = false;
};

/// Algorithm 3 lines 9-11 over `transport` for `party`'s share (every
/// party's under kAllParties): builds the public release circuit, shares
/// the inputs, evaluates with checkpoint retries under kDegrade/kTopUp,
/// adds the survivors' top-up noise under kTopUp, opens, and returns the
/// report with traffic, timing, the survivor census and the realized
/// (epsilon, delta) and its ledger.
Result<SqmReport> RunBgwSession(const PolynomialVector& f,
                                const SqmOptions& options,
                                const SqmInputs& inputs, size_t num_clients,
                                Transport* transport, size_t party,
                                const SqmSessionHooks& hooks = {});

}  // namespace sqm

#endif  // SQM_CORE_SQM_SESSION_H_
