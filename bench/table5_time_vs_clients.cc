// Table V reproduction: overall time of SQM (gamma = 18, BGW, m = n = 500
// in the paper) versus the number of clients P. Expected shape: the overall
// time grows with P (BGW traffic is quadratic in P), and the DP time (the
// local noise sampling, one draw per client) stays a small fraction of it.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/timing_common.h"

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  const size_t n = config.paper_scale ? 500 : 20;
  const size_t m = config.paper_scale ? 500 : 60;
  const std::vector<size_t> client_counts{4, 10, 20};
  const double gamma = 18.0;
  const double latency = config.paper_scale ? 0.1 : 0.0;

  bench::PrintHeader(
      "Table V: SQM time vs number of clients P (gamma=18, m=" +
          std::to_string(m) + ", n=" + std::to_string(n) + ")",
      config.paper_scale ? "scale=paper" : "scale=small");

  std::printf("\nTask: principal component analysis (PCA)\n");
  bench::PrintTimingHeader("clients P");
  for (size_t p : client_counts) {
    bench::PrintTimingRow(p,
                          bench::TimePcaRelease(m, n, p, gamma, latency));
  }

  std::printf("\nTask: logistic regression (LR)\n");
  bench::PrintTimingHeader("clients P");
  for (size_t p : client_counts) {
    bench::PrintTimingRow(p,
                          bench::TimeLrRelease(m, n, p, gamma, latency));
  }

  std::printf(
      "\nReading: time grows with P (quadratic BGW traffic) and the DP "
      "column grows too (P noise shares), but remains a small fraction of "
      "the overall cost — cf. paper Table V.\n");
  return 0;
}
