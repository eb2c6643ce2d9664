#include "core/quantize.h"

#include <cmath>

#include "core/logging.h"
#include "mpc/field.h"

namespace sqm {

int64_t StochasticRound(double value, double scale, Rng& rng) {
  const double scaled = value * scale;
  const double floor_val = std::floor(scaled);
  const double frac = scaled - floor_val;
  // Algorithm 2: heads with probability equal to the fractional part.
  const int64_t base = static_cast<int64_t>(floor_val);
  return rng.NextBernoulli(frac) ? base + 1 : base;
}

std::vector<int64_t> StochasticRoundVector(const std::vector<double>& values,
                                           double scale, Rng& rng) {
  std::vector<int64_t> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = StochasticRound(values[i], scale, rng);
  }
  return out;
}

int64_t NearestRound(double value, double scale) {
  return static_cast<int64_t>(std::llround(value * scale));
}

QuantizedDatabase QuantizeDatabase(const Matrix& x, double gamma, Rng& rng,
                                   size_t begin, size_t end) {
  QuantizedDatabase db;
  db.rows = x.rows();
  db.cols = x.cols();
  db.columns.resize(x.cols());
  for (size_t j = 0; j < x.cols(); ++j) {
    // Each client rounds with its own independent randomness.
    Rng client_rng = rng.Split(j);
    if (j >= begin && j < end) {
      db.columns[j] = StochasticRoundVector(x.Col(j), gamma, client_rng);
    }
  }
  return db;
}

Result<QuantizedPolynomial> QuantizePolynomial(const PolynomialVector& f,
                                               double gamma, Rng& rng) {
  if (gamma < 1.0) {
    return Status::InvalidArgument("gamma must be >= 1");
  }
  QuantizedPolynomial out;
  out.degree = f.Degree();
  out.output_scale = std::pow(gamma, static_cast<double>(out.degree) + 1.0);
  out.dims.resize(f.output_dim());
  for (size_t t = 0; t < f.output_dim(); ++t) {
    for (const Monomial& term : f.dims()[t].terms()) {
      // Scale by gamma^{1 + lambda - lambda_t[l]} (Algorithm 3 line 3):
      // combined with the gamma^{lambda_t[l]} the data quantization
      // contributes, every monomial is amplified by gamma^{lambda+1}.
      const double coeff_scale = std::pow(
          gamma, 1.0 + static_cast<double>(out.degree) -
                     static_cast<double>(term.Degree()));
      const double scaled = term.coefficient() * coeff_scale;
      if (std::fabs(scaled) >= static_cast<double>(Field::kMaxCentered)) {
        return Status::OutOfRange(
            "quantized coefficient exceeds field capacity; lower gamma");
      }
      QuantizedMonomial qm;
      qm.coefficient = StochasticRound(term.coefficient(), coeff_scale, rng);
      qm.exponents = term.exponents();
      out.dims[t].push_back(std::move(qm));
    }
  }
  return out;
}

Result<int64_t> EvaluateQuantizedDim(const std::vector<QuantizedMonomial>& dim,
                                     const QuantizedDatabase& db, size_t row) {
  if (row >= db.rows) {
    return Status::InvalidArgument("row index out of range");
  }
  __int128 acc = 0;
  const __int128 capacity = static_cast<__int128>(Field::kMaxCentered);
  for (const QuantizedMonomial& term : dim) {
    __int128 value = term.coefficient;
    for (const auto& [var, exp] : term.exponents) {
      if (var >= db.cols) {
        return Status::InvalidArgument("monomial references missing column");
      }
      const __int128 x = db.at(row, var);
      for (uint32_t e = 0; e < exp; ++e) {
        value *= x;
        if (value > capacity || value < -capacity) {
          return Status::OutOfRange(
              "quantized monomial value exceeds field capacity; lower gamma");
        }
      }
    }
    acc += value;
    if (acc > capacity || acc < -capacity) {
      return Status::OutOfRange(
          "quantized polynomial value exceeds field capacity; lower gamma");
    }
  }
  return static_cast<int64_t>(acc);
}

}  // namespace sqm
