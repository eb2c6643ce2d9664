#include "vfl/pca.h"

#include <chrono>
#include <cmath>

#include "core/baseline.h"
#include "core/logging.h"
#include "core/quantize.h"
#include "mpc/field.h"
#include "core/sensitivity.h"
#include "dp/gaussian.h"
#include "dp/skellam.h"
#include "math/eigen.h"
#include "math/linalg.h"
#include "sampling/gaussian_sampler.h"
#include "sampling/skellam_sampler.h"
#include "vfl/dataset.h"
#include "vfl/metrics.h"

namespace sqm {
namespace {

Status ValidateOptions(const Matrix& x, const PcaOptions& options) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty data matrix");
  }
  if (options.k == 0 || options.k > x.cols()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (options.epsilon <= 0.0 || options.delta <= 0.0 ||
      options.delta >= 1.0) {
    return Status::InvalidArgument(
        "need epsilon > 0 and delta in (0, 1)");
  }
  if (options.record_norm_bound <= 0.0) {
    return Status::InvalidArgument("record_norm_bound must be positive");
  }
  return Status::OK();
}

Matrix NormalizedCopy(const Matrix& x, double bound) {
  Matrix out = x;
  NormalizeRecords(out, bound);
  return out;
}

Result<PcaResult> FinishFromCovariance(const Matrix& x,
                                       const Matrix& covariance, size_t k,
                                       uint64_t seed) {
  TopKOptions eig;
  eig.seed = seed ^ 0xe16e;
  SQM_ASSIGN_OR_RETURN(Matrix subspace, TopKEigenvectors(covariance, k, eig));
  PcaResult result;
  result.utility = PcaUtility(x, subspace);
  result.subspace = std::move(subspace);
  return result;
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Result<PcaResult> SqmPca(const Matrix& x, const PcaOptions& options) {
  SQM_RETURN_NOT_OK(ValidateOptions(x, options));
  const Matrix clean = NormalizedCopy(x, options.record_norm_bound);
  const size_t n = clean.cols();
  const size_t num_clients =
      options.num_clients == 0 ? n : options.num_clients;
  if (num_clients < 2 || num_clients > n) {
    return Status::InvalidArgument("num_clients must be in [2, n]");
  }

  // Lemma 5 sensitivity and the single-release Skellam calibration.
  const SensitivityBound sens =
      PcaSensitivity(options.gamma, options.record_norm_bound, n);
  SQM_ASSIGN_OR_RETURN(
      const double mu,
      CalibrateSkellamMuSingleRelease(options.epsilon, options.delta,
                                      sens.l1, sens.l2));
  SQM_RETURN_NOT_OK(CheckFieldCapacity(
      clean.rows(), options.gamma, /*degree=*/2,
      options.record_norm_bound * options.record_norm_bound, mu));

  if (options.backend == MpcBackend::kBgw) {
    // Faithful path: the generic SQM evaluator over the upper-triangle
    // outer-product polynomial, run through the BGW engine.
    PolynomialVector f;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j) {
        Polynomial p;
        p.AddTerm(i == j ? Monomial::Power(1.0, i, 2)
                         : Monomial(1.0, {{i, 1}, {j, 1}}));
        f.AddDimension(std::move(p));
      }
    }
    SqmOptions sqm_options;
    sqm_options.gamma = options.gamma;
    sqm_options.mu = mu;
    sqm_options.num_clients = num_clients;
    sqm_options.backend = MpcBackend::kBgw;
    sqm_options.network_latency_seconds = options.network_latency_seconds;
    sqm_options.seed = options.seed;
    sqm_options.max_f_l2 =
        options.record_norm_bound * options.record_norm_bound;
    sqm_options.quantize_coefficients = false;  // Section V-A.
    SqmEvaluator evaluator(sqm_options);
    SQM_ASSIGN_OR_RETURN(SqmReport report, evaluator.Evaluate(f, clean));

    Matrix covariance(n, n);
    size_t t = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j, ++t) {
        covariance(i, j) = report.estimate[t];
        covariance(j, i) = report.estimate[t];
      }
    }
    SQM_ASSIGN_OR_RETURN(
        PcaResult result,
        FinishFromCovariance(clean, covariance, options.k, options.seed));
    result.mu = mu;
    result.timing = report.timing;
    result.network = report.network;
    return result;
  }

  // Fast plaintext path: Algorithm 3 specialized to the Gram polynomial.
  // Identical RNG discipline to SqmEvaluator (same seed splits), so the two
  // paths produce bit-identical releases — asserted by the integration
  // tests.
  const auto quantize_start = std::chrono::steady_clock::now();
  Rng rng(options.seed);
  Rng data_rng = rng.Split(0xda7a);
  const QuantizedDatabase db = QuantizeDatabase(clean, options.gamma,
                                                data_rng);
  const double quantize_seconds = SecondsSince(quantize_start);

  const size_t d = n * (n + 1) / 2;
  const auto noise_start = std::chrono::steady_clock::now();
  std::vector<std::vector<int64_t>> noise_per_client(num_clients);
  {
    const SkellamSampler sampler(mu / static_cast<double>(num_clients));
    for (size_t j = 0; j < num_clients; ++j) {
      Rng client_rng = rng.Split(0x4015e + j);
      noise_per_client[j] = sampler.SampleVector(client_rng, d);
    }
  }
  const double noise_seconds = SecondsSince(noise_start);

  // Integer Gram matrix of the quantized columns.
  const auto compute_start = std::chrono::steady_clock::now();
  const double gamma_sq = options.gamma * options.gamma;
  Matrix covariance(n, n);
  for (size_t i = 0; i < n; ++i) {
    const auto& col_i = db.columns[i];
    for (size_t j = i; j < n; ++j) {
      const auto& col_j = db.columns[j];
      __int128 acc = 0;
      for (size_t r = 0; r < db.rows; ++r) {
        acc += static_cast<__int128>(col_i[r]) * col_j[r];
      }
      if (acc > Field::kMaxCentered || acc < -Field::kMaxCentered) {
        return Status::OutOfRange(
            "Gram entry exceeds field capacity; lower gamma");
      }
      covariance(i, j) = static_cast<double>(static_cast<int64_t>(acc));
    }
  }

  // Perturbation: the clients' noise joins the same entries.
  size_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j, ++t) {
      int64_t noise = 0;
      for (size_t c = 0; c < num_clients; ++c) noise += noise_per_client[c][t];
      const double noisy = (covariance(i, j) +
                            static_cast<double>(noise)) /
                           gamma_sq;
      covariance(i, j) = noisy;
      covariance(j, i) = noisy;
    }
  }
  const double compute_seconds = SecondsSince(compute_start);

  SQM_ASSIGN_OR_RETURN(
      PcaResult result,
      FinishFromCovariance(clean, covariance, options.k, options.seed));
  result.mu = mu;
  result.timing.quantize_seconds = quantize_seconds;
  result.timing.noise_sampling_seconds = noise_seconds;
  result.timing.mpc_compute_seconds = compute_seconds;
  result.timing.noise_injection_seconds = noise_seconds;
  return result;
}

Result<PcaResult> CentralDpPca(const Matrix& x, const PcaOptions& options) {
  SQM_RETURN_NOT_OK(ValidateOptions(x, options));
  const Matrix clean = NormalizedCopy(x, options.record_norm_bound);
  const size_t n = clean.cols();

  // Analyze-Gauss: Frobenius sensitivity of X^T X is c^2 (Section V-A).
  const double c2 =
      options.record_norm_bound * options.record_norm_bound;
  SQM_ASSIGN_OR_RETURN(
      const double sigma,
      CalibrateGaussianSigma(options.epsilon, options.delta, c2));

  Matrix covariance = Gram(clean);
  Rng rng(options.seed ^ 0xa6a55);
  GaussianSampler sampler(sigma);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double noise = sampler.Sample(rng);
      covariance(i, j) += noise;
      if (j != i) covariance(j, i) += noise;
    }
  }
  SQM_ASSIGN_OR_RETURN(
      PcaResult result,
      FinishFromCovariance(clean, covariance, options.k, options.seed));
  result.sigma = sigma;
  return result;
}

Result<PcaResult> LocalDpPca(const Matrix& x, const PcaOptions& options) {
  SQM_RETURN_NOT_OK(ValidateOptions(x, options));
  const Matrix clean = NormalizedCopy(x, options.record_norm_bound);

  SQM_ASSIGN_OR_RETURN(
      const double sigma,
      CalibrateLocalDpSigma(options.epsilon, options.delta,
                            options.record_norm_bound));
  const Matrix noisy =
      PerturbDatabaseLocally(clean, sigma, options.seed ^ 0x10ca1);
  const Matrix covariance = Gram(noisy);
  SQM_ASSIGN_OR_RETURN(
      PcaResult result,
      FinishFromCovariance(clean, covariance, options.k, options.seed));
  result.sigma = sigma;
  return result;
}

Result<PcaResult> NonPrivatePca(const Matrix& x, size_t k) {
  if (k == 0 || k > x.cols()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  return FinishFromCovariance(x, Gram(x), k, /*seed=*/0);
}

}  // namespace sqm
