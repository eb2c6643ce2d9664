// Table II reproduction: overall time of SQM (gamma = 18, BGW, P = 4
// clients, m = 1000 records in the paper) versus the data dimension n, for
// PCA and LR, next to the time for DP noise (the local sampling).
// Expected shape: overall time grows superlinearly in n (n^2 m for PCA,
// n m for LR) while the DP time stays near-constant, so the DP overhead
// fraction -> 0 as n grows.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/timing_common.h"

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  const size_t m = config.paper_scale ? 1000 : 60;
  const std::vector<size_t> dims =
      config.paper_scale ? std::vector<size_t>{20, 100, 500}
                         : std::vector<size_t>{8, 16, 32, 64};
  const size_t clients = 4;
  const double gamma = 18.0;
  const double latency = config.paper_scale ? 0.1 : 0.0;

  bench::PrintHeader(
      "Table II: SQM time vs data dimension n (gamma=18, P=4, m=" +
          std::to_string(m) + ")",
      config.paper_scale
          ? "scale=paper (0.1 s simulated per-round latency)"
          : "scale=small (latency 0; wall-clock compute only)");

  std::printf("\nTask: principal component analysis (PCA)\n");
  bench::PrintTimingHeader("dimension n");
  for (size_t n : dims) {
    bench::PrintTimingRow(n,
                          bench::TimePcaRelease(m, n, clients, gamma,
                                                latency));
  }

  std::printf("\nTask: logistic regression (LR)\n");
  bench::PrintTimingHeader("dimension n");
  for (size_t n : dims) {
    bench::PrintTimingRow(n,
                          bench::TimeLrRelease(m, n, clients, gamma,
                                               latency));
  }

  std::printf(
      "\nReading: overall time grows ~n^2 (PCA) / ~n (LR) while the DP "
      "column stays near-flat, so the relative DP overhead vanishes with "
      "n (cf. paper Table II).\n");
  return 0;
}
