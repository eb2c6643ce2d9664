// Table IV reproduction: overall time of SQM (gamma = 18, BGW, P = 4,
// n = 500 in the paper) versus the record count m. Expected shape: overall
// time grows linearly in m while the DP time (the local noise sampling) is
// independent of m (the noise dimension depends only on n).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/timing_common.h"

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  const size_t n = config.paper_scale ? 500 : 16;
  const std::vector<size_t> record_counts =
      config.paper_scale ? std::vector<size_t>{20, 100, 500, 2500}
                         : std::vector<size_t>{20, 100, 500, 1000};
  const size_t clients = 4;
  const double gamma = 18.0;
  const double latency = config.paper_scale ? 0.1 : 0.0;

  bench::PrintHeader(
      "Table IV: SQM time vs record count m (gamma=18, P=4, n=" +
          std::to_string(n) + ")",
      config.paper_scale ? "scale=paper" : "scale=small");

  std::printf("\nTask: principal component analysis (PCA)\n");
  bench::PrintTimingHeader("records m");
  for (size_t m : record_counts) {
    bench::PrintTimingRow(m,
                          bench::TimePcaRelease(m, n, clients, gamma,
                                                latency));
  }

  std::printf("\nTask: logistic regression (LR)\n");
  bench::PrintTimingHeader("records m");
  for (size_t m : record_counts) {
    bench::PrintTimingRow(m,
                          bench::TimeLrRelease(m, n, clients, gamma,
                                               latency));
  }

  std::printf(
      "\nReading: overall time grows ~linearly in m while the DP column "
      "is flat (noise dimension depends only on n) — cf. paper Table "
      "IV.\n");
  return 0;
}
