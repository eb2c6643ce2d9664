#ifndef SQM_CORE_QUANTIZE_H_
#define SQM_CORE_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "math/matrix.h"
#include "poly/polynomial.h"
#include "sampling/rng.h"

namespace sqm {

/// Algorithm 2 of the paper: scale a real value by `scale` and randomly
/// round to one of the two nearest integers, choosing the upper neighbour
/// with probability equal to the fractional part. Unbiased:
/// E[StochasticRound(v, s)] = s * v.
int64_t StochasticRound(double value, double scale, Rng& rng);

/// Vector form of Algorithm 2.
std::vector<int64_t> StochasticRoundVector(const std::vector<double>& values,
                                           double scale, Rng& rng);

/// Deterministic nearest-integer rounding — the ablation comparator
/// (bench/ablation_rounding). Biased for Gram matrices; kept to demonstrate
/// why Algorithm 2 uses randomized rounding.
int64_t NearestRound(double value, double scale);

/// Quantized integer database: column j is client j's processed portion
/// X-hat[:, j] (Algorithm 1 lines 1-2 / Algorithm 3 lines 4-5).
struct QuantizedDatabase {
  size_t rows = 0;
  size_t cols = 0;
  /// Column-major: columns[j][i] = X-hat[i, j]; each column is produced
  /// (and owned) by a single client.
  std::vector<std::vector<int64_t>> columns;

  int64_t at(size_t i, size_t j) const { return columns[j][i]; }
};

/// Quantizes the columns [begin, end) of `x` with scaling factor gamma and
/// leaves the others empty. Each column uses an independent RNG stream
/// split from `rng`, mirroring the fact that each client rounds privately
/// with its own randomness. Every column's split is taken, so a client that
/// rounds only its own columns gets the values a full run gives them.
QuantizedDatabase QuantizeDatabase(const Matrix& x, double gamma, Rng& rng,
                                   size_t begin = 0,
                                   size_t end = static_cast<size_t>(-1));

/// One quantized monomial of one output dimension.
struct QuantizedMonomial {
  /// Processed integer coefficient a-hat_t[l] (Algorithm 3 line 3).
  int64_t coefficient = 0;
  /// Sparse exponents over variables, copied from the source monomial.
  std::vector<std::pair<size_t, uint32_t>> exponents;
};

/// A fully quantized polynomial ready for integer/MPC evaluation.
struct QuantizedPolynomial {
  /// quantized_dims[t] lists the quantized monomials of dimension t.
  std::vector<std::vector<QuantizedMonomial>> dims;
  /// Degree lambda of the original polynomial.
  uint32_t degree = 0;
  /// Common output scale: every evaluated dimension is gamma^{degree+1}
  /// times the true value (Algorithm 3 line 11 divides by this).
  double output_scale = 0.0;
};

/// Algorithm 3 lines 1-3: quantizes the coefficients of `f`, scaling the
/// l-th monomial of dimension t by gamma^{1 + lambda - lambda_t[l]} so every
/// monomial ends up amplified by gamma^{lambda+1} regardless of its degree.
/// Coefficients are public, so this step costs no privacy.
///
/// Fails with OutOfRange if a scaled coefficient cannot be represented as a
/// field-safe integer.
Result<QuantizedPolynomial> QuantizePolynomial(const PolynomialVector& f,
                                               double gamma, Rng& rng);

/// Evaluates one quantized dimension on row `i` of the quantized database
/// using 128-bit intermediate accumulation. Fails with OutOfRange if the
/// value leaves the centered field range (the capacity guard the paper's
/// "numerical precision" discussion calls for).
Result<int64_t> EvaluateQuantizedDim(const std::vector<QuantizedMonomial>& dim,
                                     const QuantizedDatabase& db, size_t row);

}  // namespace sqm

#endif  // SQM_CORE_QUANTIZE_H_
