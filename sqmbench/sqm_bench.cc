// SQM benchmark harness: runs one workload through the library's public API
// in a closed loop (one analyst, one operation at a time) and checks every
// release against a plaintext-backend reference. sqmbench/run.py builds and
// drives it; sqmbench/README.md lists the workloads, the metrics and the
// layer each per-layer metric measures.
//
//   sqm_bench --workload pca_bgw --seed 1 --seconds 5 --trace 0
//             --data-dir DIR [--wrong-reference]
//
// The last line of stdout is one JSON object. --trace 0 reports the raw
// end-to-end samples ("samples"), which run.py pools over several processes
// into the end-to-end metrics. --trace 1 is the separate traced run: it
// times each layer from outside, by calling that layer's public functions
// at the operation's shapes, and reports the per-layer metrics
// ("metrics"). Nothing here adds tracing inside the library.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/party_sqm.h"
#include "core/quantize.h"
#include "core/sensitivity.h"
#include "core/sqm.h"
#include "dp/skellam.h"
#include "mpc/beaver.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/lockstep.h"
#include "net/runner.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"
#include "net/threaded.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "poly/parser.h"
#include "sampling/rng.h"
#include "sampling/skellam_sampler.h"
#include "vfl/csv.h"
#include "vfl/dataset.h"
#include "vfl/logistic.h"
#include "vfl/pca.h"

namespace sqm::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double Timed(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return Since(start);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// CPU rotation. On a shared host the CPUs differ in speed by up to ~40 %
/// for tens of seconds at a time, and a single-threaded process tends to
/// stay on one CPU, so one run's timings would follow whichever CPU the
/// scheduler picked. Pinning iteration k's computing threads to CPU
/// k mod n (of the CPUs the process may use) spreads every run's samples
/// evenly over all of them. Threads the library starts keep the full mask:
/// pins are lifted before any set-up runs.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

void PinToSlot(size_t slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void Unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : AllowedCpus()) CPU_SET(cpu, &set);
  if (CPU_COUNT(&set) > 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
}

/// The paper's latency model: every communication round costs 0.1 s. It
/// is reported as its own metric and never added to wall time.
constexpr double kRoundLatencySeconds = 0.1;

/// Minimum of timed operations per process. run.py pools the samples of
/// four processes and needs at least 40 in all, so at least ten lie beyond
/// the reported p75.
constexpr size_t kMinOps = 10;

/// A traced run makes at least this many iterations (each: one operation
/// with telemetry on, one with it off, the plaintext operation and the
/// layer measurements).
constexpr size_t kMinTracedIterations = 9;

// ---------------------------------------------------------------------------
// Inputs. Generated here from --seed with the harness's own generator, so
// a change to the library's synthetic-data code cannot change the inputs.

class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed ^ 0x5eedbe9c4a11ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() {  // In (0, 1).
    return (static_cast<double>(Next() >> 11) + 0.5) * 0x1.0p-53;
  }
  double Gaussian() {
    return std::sqrt(-2.0 * std::log(Uniform())) *
           std::cos(6.283185307179586 * Uniform());
  }

 private:
  uint64_t state_;
};

/// Low-rank-plus-noise rows (PCA input): rank-5 signal, 10% noise.
std::vector<std::vector<double>> LowRankRows(size_t rows, size_t cols,
                                             InputRng& rng) {
  constexpr size_t kRank = 5;
  std::vector<std::vector<double>> basis(kRank, std::vector<double>(cols));
  for (auto& v : basis) {
    for (double& e : v) e = rng.Gaussian();
  }
  std::vector<std::vector<double>> out(rows, std::vector<double>(cols));
  for (auto& row : out) {
    for (size_t r = 0; r < kRank; ++r) {
      const double z = rng.Gaussian() * std::pow(0.6, static_cast<double>(r));
      for (size_t j = 0; j < cols; ++j) row[j] += z * basis[r][j];
    }
    for (double& e : row) e += 0.1 * rng.Gaussian();
  }
  return out;
}

/// Two Gaussian class clouds separated along a hidden direction (LR
/// input); the last column is the 0/1 label.
std::vector<std::vector<double>> LabelledRows(size_t rows, size_t features,
                                              InputRng& rng) {
  std::vector<double> direction(features);
  for (double& e : direction) e = rng.Gaussian();
  std::vector<std::vector<double>> out(rows,
                                       std::vector<double>(features + 1));
  for (auto& row : out) {
    const int label = rng.Uniform() < 0.5 ? 0 : 1;
    const double shift = label == 1 ? 1.0 : -1.0;
    for (size_t j = 0; j < features; ++j) {
      row[j] = shift * direction[j] / std::sqrt(static_cast<double>(features)) +
               rng.Gaussian();
    }
    row[features] = label;
  }
  return out;
}

bool WriteCsv(const std::string& path,
              const std::vector<std::vector<double>>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t j = 0; j < rows.front().size(); ++j) {
    out << (j ? "," : "") << "c" << j;
  }
  out << "\n";
  char buf[32];
  for (const auto& row : rows) {
    for (size_t j = 0; j < row.size(); ++j) {
      std::snprintf(buf, sizeof(buf), "%.17g", row[j]);
      out << (j ? "," : "") << buf;
    }
    out << "\n";
  }
  return static_cast<bool>(out);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// Per-operation outcome and the per-layer samples a traced run collects.

struct OpResult {
  bool ok = false;
  bool match = false;
  std::string error;
  uint64_t rounds = 0;
  uint64_t messages = 0;
  uint64_t elements = 0;
  uint64_t wire_bytes = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  /// Networked only: per-party Send and blocked-Receive seconds, averaged
  /// over parties (each party runs on its own thread).
  double send_s = 0.0;
  double recv_wait_s = 0.0;
};

/// Layer times measured from outside for one operation's shapes.
struct LayerTimes {
  double calibrate = 0.0;
  double quantize = 0.0;
  double noise = 0.0;
  double field = 0.0;
  double share = 0.0;
  double reconstruct = 0.0;
  /// Transport Send / Receive, replayed at the op's traffic for the
  /// in-process transports (the networked workload times the real ones).
  double send = 0.0;
  double recv_wait = 0.0;
  double connect = 0.0;
  double shutdown = 0.0;
};

/// The BGW work of one operation, as the circuit's public shape fixes it.
struct MpcShape {
  size_t parties = 0;
  size_t threshold = 0;
  /// Width of each Mul level (the circuits here have one level per
  /// release) and how many releases the operation makes.
  size_t mul_width = 0;
  size_t releases = 1;
  /// Inputs shared per release (data cells plus every party's noise) and
  /// outputs opened per release.
  size_t inputs = 0;
  size_t outputs = 0;
  bool beaver = false;
  /// SqmEvaluator runs every party's share of the work on one thread, so
  /// the per-party kernel time is multiplied by the party count; the
  /// networked run has one thread per party and pays it once.
  bool one_thread = true;
};

std::vector<Field::Element> RandomElements(size_t n, uint64_t seed) {
  InputRng rng(seed);
  std::vector<Field::Element> out(n);
  for (Field::Element& e : out) e = Field::Reduce(rng.Next());
  return out;
}

/// Times the field, sharing and reconstruction kernels one party runs for
/// `shape`: per GRR Mul a local MulVec, a ShareBatch re-share and a
/// (2t+1)-term MulAddVec recombination; per Beaver Mul the pool deal, two
/// SubVec, a packed ReconstructBatch open and the 3 MulVec + 3 AddVec
/// combine; per release one input ShareBatch and one output open.
void MeasureMpcKernels(const MpcShape& shape, LayerTimes* layers) {
  const size_t n = shape.parties;
  const size_t w = shape.mul_width;
  const ShamirScheme scheme(n, shape.threshold);
  Rng rng(0x6b65726e);
  const std::vector<Field::Element> a = RandomElements(w, 1);
  const std::vector<Field::Element> b = RandomElements(w, 2);
  std::vector<Field::Element> out(w, 0);
  double field = 0.0;
  double share = 0.0;
  double reconstruct = 0.0;

  const size_t own_inputs = (shape.inputs + n - 1) / n;
  const std::vector<Field::Element> inputs = RandomElements(own_inputs, 3);
  share += Timed([&] { (void)scheme.ShareBatch(inputs, rng); });
  std::vector<std::vector<Field::Element>> opened(
      n, RandomElements(shape.outputs, 4));
  reconstruct += Timed([&] { (void)scheme.ReconstructBatch(opened); });

  if (!shape.beaver) {
    field += Timed([&] { Field::MulVec(a.data(), b.data(), out.data(), w); });
    share += Timed([&] { (void)scheme.ShareBatch(out, rng); });
    const size_t dealers = 2 * shape.threshold + 1;
    field += Timed([&] {
      for (size_t j = 0; j < dealers; ++j) {
        Field::MulAddVec(out.data(), a.data(), b[j], w);
      }
    });
  } else {
    share += Timed([&] {
      BeaverTriplePool pool(scheme, 0xbea7e5, w);
      (void)pool;
    });
    std::vector<Field::Element> packed(2 * w);
    field += Timed([&] {
      Field::SubVec(a.data(), b.data(), packed.data(), w);
      Field::SubVec(b.data(), a.data(), packed.data() + w, w);
    });
    std::vector<std::vector<Field::Element>> rows(n, packed);
    reconstruct += Timed([&] { (void)scheme.ReconstructBatch(rows); });
    field += Timed([&] {
      for (int k = 0; k < 3; ++k) {
        Field::MulVec(a.data(), b.data(), packed.data(), w);
        Field::AddVec(out.data(), packed.data(), out.data(), w);
      }
    });
  }
  const double scale = static_cast<double>(shape.releases) *
                       (shape.one_thread ? static_cast<double>(n) : 1.0);
  layers->field = field * scale;
  layers->share = share * scale;
  layers->reconstruct = reconstruct * scale;
}

/// Replays an in-process operation's traffic (`messages` cross-party sends
/// carrying `elements` field elements in total) through a fresh transport
/// of the kind the operation used, timing construction, every Send, every
/// Receive and destruction.
void MeasureInProcessTransport(TransportMode mode, size_t parties,
                               const OpResult& op, LayerTimes* layers) {
  std::unique_ptr<Transport> transport;
  layers->connect = Timed([&] {
    if (mode == TransportMode::kThreaded) {
      ThreadedTransportOptions options;
      options.per_round_latency_seconds = kRoundLatencySeconds;
      options.element_wire_bytes = Field::kWireBytes;
      transport = std::make_unique<ThreadedTransport>(parties, options);
    } else {
      transport = std::make_unique<LockstepTransport>(
          parties, kRoundLatencySeconds, Field::kWireBytes);
    }
  });
  const uint64_t messages = std::max<uint64_t>(op.messages, 1);
  const size_t per_message =
      static_cast<size_t>(std::max<uint64_t>(op.elements / messages, 1));
  double send = 0.0;
  double recv = 0.0;
  size_t from = 0;
  size_t to = 1;
  for (uint64_t m = 0; m < messages; ++m) {
    Transport::Payload payload(per_message, m);
    send += Timed([&] { transport->Send(from, to, std::move(payload)); });
    recv += Timed([&] { (void)transport->Receive(from, to); });
    to = (to + 1) % parties;
    if (to == from) {
      from = (from + 1) % parties;
      to = (from + 1) % parties;
    }
  }
  layers->send = send;
  layers->recv_wait = recv;
  layers->shutdown = Timed([&] { transport.reset(); });
}

/// Samples `parties` Skellam shares of dimension `dim` at mu/parties,
/// `releases` times — the noise each operation draws.
double MeasureNoise(double mu, size_t parties, size_t dim, size_t releases) {
  const SkellamSampler sampler(mu / static_cast<double>(parties));
  Rng rng(0x4015e);
  return Timed([&] {
    for (size_t r = 0; r < releases; ++r) {
      for (size_t j = 0; j < parties; ++j) {
        (void)sampler.SampleVector(rng, dim);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;

  /// Writes the run's generated inputs under the data directory (harness
  /// work, not timed).
  virtual Status MakeInputs(const std::string& data_dir, uint64_t seed) = 0;

  /// Program set-up before the first operation; timed as setup_s.
  virtual Status SetUp() = 0;

  /// Ends the session SetUp began; part of a one-shot session's time.
  virtual void TearDown() {}

  /// Runs the same operation with MpcBackend::kPlaintext and keeps its
  /// release as the reference every operation must match bit for bit.
  /// `wrong` perturbs the kept reference, which must make every operation
  /// count as failed.
  virtual Status ComputeReference(bool wrong) = 0;

  /// The same operation with MpcBackend::kPlaintext on the inputs
  /// ComputeReference prepared (vfl.plaintext_op_s).
  virtual void RunPlaintextOp() = 0;

  /// One operation with the workload's MPC backend, checked against the
  /// reference.
  virtual OpResult RunOp() = 0;

  /// Layer times measured from outside at the shapes of `op`.
  virtual LayerTimes MeasureLayers(const OpResult& op) = 0;

  /// How many one-shot sessions (set up, one operation, tear down) to
  /// measure apart from the timed loop. 0 means every timed operation runs
  /// in a one-shot session of its own, which is cheap in process. The
  /// networked workload's teardown waits out a 250 ms acceptor poll, so it
  /// runs its timed operations on one long-lived mesh instead.
  virtual size_t SeparateSessions() const { return 0; }

  /// Networked only: wall time of the last TearDown.
  virtual double LastShutdownSeconds() const { return 0.0; }

  /// Extra setup_s samples, taken before any session opens.
  virtual Result<std::vector<double>> ExtraSetUpSeconds() {
    return std::vector<double>{};
  }

  /// Share of its part of op_s that the layers timed from outside must
  /// claim at least, where they are meant to cover that part: `app` for
  /// dp + core + sampling against vfl.plaintext_op_s, `mpc` for the mpc
  /// kernels + transport against mpc.protocol_s. 0 sets no lower bound.
  struct Cover {
    double app = 0.0;
    double mpc = 0.0;
  };
  virtual Cover MinCover() const { return {}; }
};

/// `pca_bgw`: SqmPca over BGW on the lockstep transport (Table II's PCA row).
class PcaWorkload : public Workload {
 public:
  static constexpr size_t kRows = 100;
  static constexpr size_t kCols = 32;
  static constexpr size_t kParties = 8;

  Status MakeInputs(const std::string& data_dir, uint64_t seed) override {
    path_ = data_dir + "/pca.csv";
    InputRng rng(seed);
    options_.k = 5;
    options_.epsilon = 1.0;
    options_.delta = 1e-5;
    options_.gamma = 18.0;
    options_.num_clients = kParties;
    options_.network_latency_seconds = kRoundLatencySeconds;
    options_.seed = rng.Next();
    return WriteCsv(path_, LowRankRows(kRows, kCols, rng))
               ? Status::OK()
               : Status::IoError("cannot write " + path_);
  }

  Status SetUp() override {
    CsvOptions csv;
    csv.has_header = true;
    SQM_ASSIGN_OR_RETURN(VflDataset data, LoadCsvDataset(path_, csv));
    x_ = std::move(data.features);
    return Status::OK();
  }

  Status ComputeReference(bool wrong) override {
    SQM_ASSIGN_OR_RETURN(const PcaResult result, SqmPca(x_, Plaintext()));
    reference_subspace_ = result.subspace.data();
    reference_utility_ = result.utility;
    mu_ = result.mu;
    if (wrong) {
      reference_subspace_[0] = std::nextafter(reference_subspace_[0], 2.0);
    }
    return Status::OK();
  }

  void RunPlaintextOp() override { (void)SqmPca(x_, Plaintext()); }

  OpResult RunOp() override {
    OpResult op;
    PcaOptions options = options_;
    options.backend = MpcBackend::kBgw;
    Result<PcaResult> result = SqmPca(x_, options);
    if (!result.ok()) {
      op.error = result.status().ToString();
      return op;
    }
    const PcaResult& pca = result.ValueOrDie();
    op.ok = true;
    op.match = SameBits(pca.subspace.data(), reference_subspace_) &&
               SameBits({pca.utility}, {reference_utility_});
    op.rounds = pca.network.rounds;
    op.messages = pca.network.messages;
    op.elements = pca.network.field_elements;
    op.wire_bytes = pca.network.wire_bytes;
    return op;
  }

  LayerTimes MeasureLayers(const OpResult& op) override {
    LayerTimes layers;
    const SensitivityBound sens =
        PcaSensitivity(options_.gamma, options_.record_norm_bound, kCols);
    layers.calibrate = Timed([&] {
      (void)CalibrateSkellamMuSingleRelease(options_.epsilon, options_.delta,
                                            sens.l1, sens.l2);
    });
    PolynomialVector f;
    for (size_t i = 0; i < kCols; ++i) {
      for (size_t j = i; j < kCols; ++j) {
        Polynomial p;
        p.AddTerm(i == j ? Monomial::Power(1.0, i, 2)
                         : Monomial(1.0, {{i, 1}, {j, 1}}));
        f.AddDimension(std::move(p));
      }
    }
    const size_t dims = f.output_dim();
    layers.quantize = Timed([&] {
      Matrix clean = x_;
      NormalizeRecords(clean, options_.record_norm_bound);
      Rng rng(options_.seed);
      (void)QuantizeDatabase(clean, options_.gamma, rng);
      (void)QuantizePolynomial(f, options_.gamma, rng);
    });
    layers.noise = MeasureNoise(mu_, kParties, dims, 1);
    MpcShape shape;
    shape.parties = kParties;
    shape.threshold = (kParties - 1) / 2;
    shape.mul_width = kRows * dims;
    shape.inputs = kRows * kCols + kParties * dims;
    shape.outputs = dims;
    MeasureMpcKernels(shape, &layers);
    MeasureInProcessTransport(TransportMode::kLockstep, kParties, op,
                              &layers);
    return layers;
  }

  /// One wide Mul level: the batched kernels are most of the protocol.
  /// The plaintext operation is mostly the eigendecomposition, which no
  /// layer here times.
  Cover MinCover() const override { return {0.0, 0.25}; }

 private:
  PcaOptions Plaintext() const {
    PcaOptions options = options_;
    options.backend = MpcBackend::kPlaintext;
    return options;
  }

  std::string path_;
  PcaOptions options_;
  Matrix x_;
  std::vector<double> reference_subspace_;
  double reference_utility_ = 0.0;
  double mu_ = 0.0;
};

/// `lr_train`: TrainSqmLogistic over BGW — many narrow releases.
///
/// The Poisson sampling seed sets the batch sizes, and with them whether an
/// operation pays the heap-trim churn (README, Known defects), which about
/// one sampling seed in five does. So the operations of one process cycle
/// through kSamplingSeeds sampling seeds, and each of run.py's processes
/// draws its own: a run then pays the churn at about its rate, instead of
/// all or nothing by --seed.
class LrWorkload : public Workload {
 public:
  static constexpr size_t kTrainRows = 2000;
  static constexpr size_t kFeatures = 16;
  static constexpr size_t kParties = 4;
  static constexpr size_t kSamplingSeeds = 8;

  /// `process` is the harness process's index within the run.
  explicit LrWorkload(size_t process) : process_(process) {}

  Status MakeInputs(const std::string& data_dir, uint64_t seed) override {
    path_ = data_dir + "/lr.csv";
    InputRng rng(seed);
    options_.epsilon = 1.0;
    options_.delta = 1e-5;
    options_.sample_rate = 0.05;
    options_.rounds = 20;
    options_.gamma = 64.0;
    options_.num_clients = kParties;
    options_.network_latency_seconds = kRoundLatencySeconds;
    InputRng sampling(rng.Next() + process_);
    sampling_seeds_.clear();
    for (size_t k = 0; k < kSamplingSeeds; ++k) {
      sampling_seeds_.push_back(sampling.Next());
    }
    split_seed_ = rng.Next();
    // 80/20 train/test split of kTrainRows / 0.8 records.
    return WriteCsv(path_, LabelledRows(kTrainRows * 5 / 4, kFeatures, rng))
               ? Status::OK()
               : Status::IoError("cannot write " + path_);
  }

  Status SetUp() override {
    CsvOptions csv;
    csv.has_header = true;
    csv.label_column = static_cast<int>(kFeatures);
    SQM_ASSIGN_OR_RETURN(const VflDataset data, LoadCsvDataset(path_, csv));
    SQM_ASSIGN_OR_RETURN(TrainTestSplit split,
                         SplitTrainTest(data, 0.8, split_seed_));
    train_ = std::move(split.train);
    test_ = std::move(split.test);
    return Status::OK();
  }

  /// One reference per sampling seed.
  Status ComputeReference(bool wrong) override {
    reference_weights_.clear();
    for (uint64_t seed : sampling_seeds_) {
      SQM_ASSIGN_OR_RETURN(const LogisticResult result,
                           TrainSqmLogistic(train_, test_, Plaintext(seed)));
      reference_weights_.push_back(result.weights);
      mu_ = result.mu;
      if (wrong) {
        reference_weights_.back()[0] =
            std::nextafter(reference_weights_.back()[0], 2.0);
      }
    }
    return Status::OK();
  }

  /// The plaintext operation at the last operation's sampling seed.
  void RunPlaintextOp() override {
    (void)TrainSqmLogistic(train_, test_, Plaintext(sampling_seeds_[last_]));
  }

  OpResult RunOp() override {
    OpResult op;
    last_ = ops_run_++ % kSamplingSeeds;
    LogisticOptions options = options_;
    options.backend = MpcBackend::kBgw;
    options.seed = sampling_seeds_[last_];
    Result<LogisticResult> result = TrainSqmLogistic(train_, test_, options);
    if (!result.ok()) {
      op.error = result.status().ToString();
      return op;
    }
    const LogisticResult& lr = result.ValueOrDie();
    op.ok = true;
    op.match = SameBits(lr.weights, reference_weights_[last_]);
    op.rounds = lr.network.rounds;
    op.messages = lr.network.messages;
    op.elements = lr.network.field_elements;
    // TrainSqmLogistic never accumulates NetworkStats::wire_bytes (it
    // stays 0), so the bytes are derived from the element count.
    op.wire_bytes = lr.network.field_elements * Field::kWireBytes;
    return op;
  }

  LayerTimes MeasureLayers(const OpResult& op) override {
    LayerTimes layers;
    const size_t rounds = options_.rounds;
    const SensitivityBound sens =
        LogisticGradientSensitivity(options_.gamma, kFeatures);
    layers.calibrate = Timed([&] {
      (void)CalibrateSkellamMuSubsampled(options_.epsilon, options_.delta,
                                         sens.l1, sens.l2,
                                         options_.sample_rate, rounds);
    });
    // Each round quantizes a Poisson batch of about q*m records (features
    // plus label) and the round's gradient polynomial.
    const size_t batch = static_cast<size_t>(
        std::lround(options_.sample_rate * static_cast<double>(kTrainRows)));
    Matrix batch_db(batch, kFeatures + 1);
    for (size_t i = 0; i < batch; ++i) {
      for (size_t j = 0; j < kFeatures; ++j) {
        batch_db(i, j) = train_.features(i, j);
      }
      batch_db(i, kFeatures) = train_.labels[i];
    }
    NormalizeRecords(batch_db, 1.0);
    const PolynomialVector f =
        BuildLogisticGradientPolynomial(reference_weights_[last_], 1);
    layers.quantize = Timed([&] {
      Rng rng(sampling_seeds_[last_]);
      for (size_t r = 0; r < rounds; ++r) {
        (void)QuantizeDatabase(batch_db, options_.gamma, rng);
        (void)QuantizePolynomial(f, options_.gamma, rng);
      }
    });
    layers.noise = MeasureNoise(mu_, kParties, kFeatures, rounds);
    size_t products = 0;
    for (const Polynomial& p : f.dims()) products += p.terms().size() - 1;
    MpcShape shape;
    shape.parties = kParties;
    shape.threshold = (kParties - 1) / 2;
    shape.mul_width = batch * products;
    shape.releases = rounds;
    shape.inputs = batch * (kFeatures + 1) + kParties * kFeatures;
    shape.outputs = kFeatures;
    MeasureMpcKernels(shape, &layers);
    MeasureInProcessTransport(TransportMode::kLockstep, kParties, op,
                              &layers);
    return layers;
  }

  /// µ calibration is most of the plaintext operation; the kernels are a
  /// smaller share of a protocol that builds a circuit every round.
  Cover MinCover() const override { return {0.5, 0.15}; }

 private:
  LogisticOptions Plaintext(uint64_t sampling_seed) const {
    LogisticOptions options = options_;
    options.backend = MpcBackend::kPlaintext;
    options.seed = sampling_seed;
    return options;
  }

  size_t process_;
  std::string path_;
  LogisticOptions options_;
  std::vector<uint64_t> sampling_seeds_;
  uint64_t split_seed_ = 0;
  VflDataset train_;
  VflDataset test_;
  std::vector<std::vector<double>> reference_weights_;
  double mu_ = 0.0;
  size_t ops_run_ = 0;
  size_t last_ = 0;  ///< Index of the last operation's sampling seed.
};

/// Shared by the two release workloads: one SQM release of every pairwise
/// product of kCols columns over kRows records, at a fixed mu.
class ReleaseWorkload : public Workload {
 public:
  static constexpr size_t kParties = 3;
  static constexpr size_t kRows = 1400;
  static constexpr size_t kCols = 12;

  Status MakeInputs(const std::string& data_dir, uint64_t seed) override {
    path_ = data_dir + "/deployment.json";
    InputRng rng(seed);
    DeploymentConfig config;
    config.run_id = rng.Next() | 1;
    config.session_key = rng.Next();
    config.parties.assign(kParties, TcpPeer{"127.0.0.1", 0});
    config.rows = kRows;
    config.cols = kCols;
    config.data_seed = rng.Next();
    std::string poly;
    for (size_t i = 0; i < kCols; ++i) {
      for (size_t j = i; j < kCols; ++j) {
        if (!poly.empty()) poly += "; ";
        poly.append("x").append(std::to_string(i));
        poly.append("*x").append(std::to_string(j));
      }
    }
    config.polynomial = poly;
    config.gamma = 64.0;
    config.mu = 1e4;
    config.seed = rng.Next();
    config.mul_backend = mul_backend();
    config.receive_timeout_seconds = 5.0;
    std::ofstream out(path_);
    out << DeploymentConfigToJson(config);
    return out ? Status::OK() : Status::IoError("cannot write " + path_);
  }

  Status ComputeReference(bool wrong) override {
    SQM_ASSIGN_OR_RETURN(plain_options_, SqmOptionsFromDeployment(config_));
    plain_options_.backend = MpcBackend::kPlaintext;
    SQM_ASSIGN_OR_RETURN(const SqmReport report, PlaintextRelease());
    reference_raw_ = report.raw;
    if (wrong) reference_raw_[0] += 1;
    return Status::OK();
  }

  /// What a networked party does outside MPC: parse the query, generate
  /// the deployment's data, evaluate in plaintext.
  void RunPlaintextOp() override { (void)PlaintextRelease(); }

 protected:
  virtual const char* mul_backend() const = 0;

  Status LoadConfig() {
    std::ifstream in(path_);
    std::stringstream text;
    text << in.rdbuf();
    SQM_ASSIGN_OR_RETURN(config_, ParseDeploymentConfig(text.str()));
    return Status::OK();
  }

  Result<SqmReport> PlaintextRelease() const {
    SQM_ASSIGN_OR_RETURN(const PolynomialVector f,
                         ParsePolynomialVector(config_.polynomial));
    const Matrix x = GenerateDeploymentMatrix(
        config_.rows, DeploymentCols(config_), config_.data_seed);
    SqmEvaluator evaluator(plain_options_);
    return evaluator.Evaluate(f, x);
  }

  /// The dp, core and sampling layers of one release, timed from outside.
  void MeasureReleaseLayers(LayerTimes* layers) {
    const PolynomialVector f =
        ParsePolynomialVector(config_.polynomial).ValueOrDie();
    const Matrix x = GenerateDeploymentMatrix(
        config_.rows, DeploymentCols(config_), config_.data_seed);
    layers->calibrate = Timed([&] {
      const SensitivityBound sens = PolynomialSensitivity(
          f, config_.gamma, config_.record_norm_bound, config_.max_f_l2,
          config_.quantize_coefficients);
      (void)SkellamEpsilonSingleRelease(config_.mu, sens.l1, sens.l2,
                                        config_.dp_delta);
    });
    layers->quantize = Timed([&] {
      Rng rng(config_.seed);
      (void)QuantizeDatabase(x, config_.gamma, rng);
      (void)QuantizePolynomial(f, config_.gamma, rng);
    });
    layers->noise = MeasureNoise(config_.mu, kParties, f.output_dim(), 1);
  }

  MpcShape ReleaseShape() const {
    const size_t dims = kCols * (kCols + 1) / 2;
    MpcShape shape;
    shape.parties = kParties;
    shape.threshold = (kParties - 1) / 2;
    shape.mul_width = kRows * dims;
    shape.inputs = kRows * kCols + kParties * dims;
    shape.outputs = dims;
    return shape;
  }

  std::string path_;
  DeploymentConfig config_;
  SqmOptions plain_options_;
  std::vector<int64_t> reference_raw_;
};

/// `release_threaded`: the release via SqmEvaluator on the threaded
/// transport, GRR multiplication.
class ThreadedReleaseWorkload : public ReleaseWorkload {
 public:
  Status SetUp() override {
    SQM_RETURN_NOT_OK(LoadConfig());
    SQM_ASSIGN_OR_RETURN(options_, SqmOptionsFromDeployment(config_));
    options_.backend = MpcBackend::kBgw;
    options_.transport = TransportMode::kThreaded;
    options_.network_latency_seconds = kRoundLatencySeconds;
    SQM_ASSIGN_OR_RETURN(f_, ParsePolynomialVector(config_.polynomial));
    x_ = GenerateDeploymentMatrix(config_.rows, DeploymentCols(config_),
                                  config_.data_seed);
    return Status::OK();
  }

  OpResult RunOp() override {
    OpResult op;
    SqmEvaluator evaluator(options_);
    Result<SqmReport> report = evaluator.Evaluate(f_, x_);
    if (!report.ok()) {
      op.error = report.status().ToString();
      return op;
    }
    const SqmReport& r = report.ValueOrDie();
    op.ok = true;
    op.match = r.raw == reference_raw_;
    op.rounds = r.transport.totals.rounds;
    op.messages = r.transport.totals.messages;
    op.elements = r.transport.totals.field_elements;
    op.wire_bytes = r.transport.totals.wire_bytes;
    op.retries = r.transport.retries;
    op.timeouts = r.transport.receive_timeouts;
    return op;
  }

  /// This workload generates the data in SetUp, so the plaintext operation
  /// is the evaluation alone.
  void RunPlaintextOp() override {
    (void)SqmEvaluator(plain_options_).Evaluate(f_, x_);
  }

  LayerTimes MeasureLayers(const OpResult& op) override {
    LayerTimes layers;
    MeasureReleaseLayers(&layers);
    MeasureMpcKernels(ReleaseShape(), &layers);
    MeasureInProcessTransport(TransportMode::kThreaded, kParties, op,
                              &layers);
    return layers;
  }

 protected:
  const char* mul_backend() const override { return "grr"; }

 private:
  SqmOptions options_;
  PolynomialVector f_;
  Matrix x_;
};

/// Forwards every call to a party's TcpTransport and times Send and
/// Receive. RunPartySqm reads its report's traffic counters from the
/// transport it is given, so those come from the inner transport instead.
class TimedTransport : public Transport {
 public:
  explicit TimedTransport(Transport* inner)
      : Transport(inner->num_parties(), inner->per_round_latency(),
                  inner->element_wire_bytes()),
        inner_(inner) {}

  void Send(size_t from, size_t to, Payload payload) override {
    send_seconds_ += Timed([&] { inner_->Send(from, to, std::move(payload)); });
  }
  Result<Payload> Receive(size_t from, size_t to) override {
    const Clock::time_point start = Clock::now();
    Result<Payload> payload = inner_->Receive(from, to);
    recv_seconds_ += Since(start);
    return payload;
  }
  bool HasPending(size_t from, size_t to) const override {
    return inner_->HasPending(from, to);
  }
  void EndRound() override { inner_->EndRound(); }
  size_t Reset() override { return inner_->Reset(); }

  double send_seconds() const { return send_seconds_; }
  double recv_seconds() const { return recv_seconds_; }

 private:
  Transport* inner_;
  double send_seconds_ = 0.0;
  double recv_seconds_ = 0.0;
};

/// `release_tcp`: every party runs RunPartySqm on its own thread over its
/// own TcpTransport on a loopback mesh; Beaver multiplication.
class TcpReleaseWorkload : public ReleaseWorkload {
 public:
  /// Extra mesh set-ups per process (see ExtraSetUpSeconds).
  static constexpr size_t kExtraSetUps = 16;

  ~TcpReleaseWorkload() override { TearDown(); }

  /// Parses the deployment and connects the full mesh.
  Status SetUp() override {
    SQM_RETURN_NOT_OK(LoadConfig());
    SQM_ASSIGN_OR_RETURN(transports_, Connect());
    return Status::OK();
  }

  /// Shuts every party's transport down concurrently. Shutdown joins the
  /// acceptor thread, which polls accept with a 250 ms deadline, so its
  /// time is mostly that poll's remainder.
  void TearDown() override {
    if (transports_.empty()) return;
    last_shutdown_ = Timed([&] { ShutdownAll(transports_); });
    transports_.clear();
  }

  /// A mesh sets up in under a millisecond, so the few sessions a process
  /// opens give too few setup_s samples for a steady median. These meshes
  /// are set up one after another, each timed as SetUp is, and then shut
  /// down all at once, so together they wait out one acceptor poll.
  Result<std::vector<double>> ExtraSetUpSeconds() override {
    std::vector<double> seconds;
    std::vector<std::unique_ptr<TcpTransport>> open;
    Status status = Status::OK();
    for (size_t k = 0; k < kExtraSetUps && status.ok(); ++k) {
      const Clock::time_point start = Clock::now();
      status = SetUp();
      seconds.push_back(Since(start));
      for (auto& t : transports_) open.push_back(std::move(t));
      transports_.clear();
    }
    ShutdownAll(open);
    if (!status.ok()) return status;
    return seconds;
  }

  OpResult RunOp() override {
    std::vector<TransportStats> before;
    std::vector<std::unique_ptr<TimedTransport>> timed;
    for (const auto& t : transports_) {
      before.push_back(t->Snapshot());
      timed.push_back(std::make_unique<TimedTransport>(t.get()));
    }
    std::vector<Result<SqmReport>> reports(kParties,
                                           Status::Internal("not run"));
    ++ops_run_;
    (void)PartyRunner(kParties).Run([&](size_t i) {
      PinToSlot(ops_run_ + i);
      reports[i] = RunPartySqm(config_, i, timed[i].get());
      return Status::OK();
    });

    OpResult op;
    op.ok = true;
    op.match = true;
    for (size_t i = 0; i < kParties; ++i) {
      if (!reports[i].ok()) {
        op.ok = false;
        op.error = "party " + std::to_string(i) + ": " +
                   reports[i].status().ToString();
        continue;
      }
      op.match = op.match && reports[i].ValueOrDie().raw == reference_raw_;
      const TransportStats after = transports_[i]->Snapshot();
      const NetworkStats delta = after.totals - before[i].totals;
      op.rounds = std::max(op.rounds, delta.rounds);
      op.messages += delta.messages;
      op.elements += delta.field_elements;
      op.wire_bytes += delta.wire_bytes;
      op.retries += after.retries - before[i].retries;
      op.timeouts += after.receive_timeouts - before[i].receive_timeouts;
      op.send_s += timed[i]->send_seconds() / kParties;
      op.recv_wait_s += timed[i]->recv_seconds() / kParties;
    }
    op.match = op.match && op.ok;
    return op;
  }

  LayerTimes MeasureLayers(const OpResult& op) override {
    LayerTimes layers;
    MeasureReleaseLayers(&layers);
    MpcShape shape = ReleaseShape();
    shape.beaver = true;
    shape.one_thread = false;
    MeasureMpcKernels(shape, &layers);
    layers.send = op.send_s;
    layers.recv_wait = op.recv_wait_s;
    return layers;
  }

  size_t SeparateSessions() const override { return 2; }
  double LastShutdownSeconds() const override { return last_shutdown_; }

 protected:
  const char* mul_backend() const override { return "beaver"; }

 private:
  /// Binds a listener per party, then runs every party's
  /// TcpTransport::Create concurrently, as the parties' processes would.
  Result<std::vector<std::unique_ptr<TcpTransport>>> Connect() {
    std::vector<int> fds;
    for (size_t i = 0; i < kParties; ++i) {
      SQM_ASSIGN_OR_RETURN(net::Socket listener,
                           net::ListenOn("127.0.0.1", 0));
      SQM_ASSIGN_OR_RETURN(config_.parties[i].port,
                           net::LocalPort(listener));
      fds.push_back(listener.Release());
    }
    std::vector<std::unique_ptr<TcpTransport>> mesh(kParties);
    const Status status = PartyRunner(kParties).Run([&](size_t i) -> Status {
      SQM_ASSIGN_OR_RETURN(
          mesh[i],
          TcpTransport::Create(TcpOptionsFromDeployment(config_, i, fds[i])));
      return Status::OK();
    });
    if (!status.ok()) {
      ShutdownAll(mesh);
      return status;
    }
    return mesh;
  }

  /// Shuts the transports down, each on a thread of its own.
  static void ShutdownAll(
      const std::vector<std::unique_ptr<TcpTransport>>& transports) {
    if (transports.empty()) return;
    (void)PartyRunner(transports.size()).Run([&](size_t i) {
      if (transports[i] != nullptr) transports[i]->Shutdown();
      return Status::OK();
    });
  }

  size_t ops_run_ = 0;
  std::vector<std::unique_ptr<TcpTransport>> transports_;
  double last_shutdown_ = 0.0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       size_t process) {
  if (name == "pca_bgw") return std::make_unique<PcaWorkload>();
  if (name == "lr_train") return std::make_unique<LrWorkload>(process);
  if (name == "release_tcp") return std::make_unique<TcpReleaseWorkload>();
  if (name == "release_threaded") {
    return std::make_unique<ThreadedReleaseWorkload>();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Run loop.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  size_t process = 0;  ///< This process's index within run.py's run.
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".";
  bool wrong_reference = false;
};

/// Metrics in output order: name -> (value, unit).
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void PrintTable() const {
    for (const Entry& e : entries_) {
      std::printf("  %-22s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Counts checked operations and remembers the first failure.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Count(const OpResult& op) {
    ++attempted;
    if (!op.ok || !op.match) {
      ++failed;
      if (first_error.empty()) {
        first_error = op.ok ? "release differs from the plaintext reference"
                            : op.error;
      }
    }
  }
};

/// Everything a run measures, one entry per iteration (per session for
/// setup/session/shutdown).
struct Samples {
  std::vector<double> setup;
  std::vector<double> session;
  std::vector<double> shutdown;
  std::vector<double> op;
  std::vector<double> op_cpu;
  std::vector<OpResult> results;
  // Traced run only.
  std::vector<double> op_untraced;
  std::vector<double> plaintext;
  std::vector<LayerTimes> layers;
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "sqm_bench: %s\n", what.c_str());
  return 2;
}

/// Times one operation (wall and process CPU), counts it, and empties the
/// tracer afterwards so span buffers do not grow peak RSS with run length.
void TimedOp(Workload& workload, Tally* tally, std::vector<double>* wall,
             std::vector<double>* cpu, std::vector<OpResult>* results) {
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  OpResult op = workload.RunOp();
  wall->push_back(Since(start));
  if (cpu != nullptr) cpu->push_back(CpuSeconds() - cpu_start);
  obs::Tracer::Global().Clear();
  tally->Count(op);
  if (results != nullptr) results->push_back(std::move(op));
}

/// The end-to-end samples as a JSON object of arrays; run.py pools them
/// over its processes and computes the metrics.
std::string EndToEndSamplesJson(const Samples& s) {
  std::vector<double> sim_net;
  std::vector<double> mb;
  for (const OpResult& op : s.results) {
    sim_net.push_back(static_cast<double>(op.rounds) * kRoundLatencySeconds);
    mb.push_back(static_cast<double>(op.wire_bytes) / 1e6);
  }
  const auto array = [](const std::vector<double>& values) {
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
      out += (i ? ", " : "") + std::string(buf);
    }
    return out + "]";
  };
  return "{\"op_s\": " + array(s.op) + ", \"cpu_s\": " + array(s.op_cpu) +
         ", \"setup_s\": " + array(s.setup) + ", \"session_s\": " +
         array(s.session) + ", \"sim_net_s\": " + array(sim_net) +
         ", \"wire_mb\": " + array(mb) + ", \"peak_rss_mb\": " +
         array({PeakRssMb()}) + "}";
}

/// Per-layer metrics of a traced run; false when the reconciliation fails.
bool PrintPerLayer(const Samples& s, const Workload::Cover& cover,
                   Metrics* metrics) {
  const auto layer = [&](double LayerTimes::*field) {
    std::vector<double> v;
    for (const LayerTimes& t : s.layers) v.push_back(t.*field);
    return Median(v);
  };
  const auto count = [&](uint64_t OpResult::*field) {
    std::vector<double> v;
    for (const OpResult& o : s.results) {
      v.push_back(static_cast<double>(o.*field));
    }
    return Median(v);
  };
  const double op_s = Median(s.op);
  const double plain = Median(s.plaintext);
  const double protocol = op_s - plain;
  const double calibrate = layer(&LayerTimes::calibrate);
  const double quantize = layer(&LayerTimes::quantize);
  const double noise = layer(&LayerTimes::noise);
  const double field = layer(&LayerTimes::field);
  const double share = layer(&LayerTimes::share);
  const double reconstruct = layer(&LayerTimes::reconstruct);
  const double send = layer(&LayerTimes::send);
  const double recv_wait = layer(&LayerTimes::recv_wait);
  const double mpc_layers = field + share + reconstruct + send + recv_wait;
  const double unattributed = protocol - mpc_layers;
  // The networked workload times its real mesh's set-up and teardown; the
  // in-process ones time constructing and destroying their transport.
  const double connect =
      s.shutdown.empty() ? layer(&LayerTimes::connect) : Median(s.setup);
  const double shutdown =
      s.shutdown.empty() ? layer(&LayerTimes::shutdown) : Median(s.shutdown);

  metrics->Add("vfl.plaintext_op_s", plain, "s");
  metrics->Add("mpc.protocol_s", protocol, "s");
  metrics->Add("dp.calibrate_s", calibrate, "s");
  metrics->Add("core.quantize_s", quantize, "s");
  metrics->Add("sampling.noise_s", noise, "s");
  metrics->Add("mpc.field_s", field, "s");
  metrics->Add("mpc.share_s", share, "s");
  metrics->Add("mpc.reconstruct_s", reconstruct, "s");
  metrics->Add("mpc.elements", count(&OpResult::elements), "count");
  metrics->Add("mpc.unattributed_s", unattributed, "s");
  metrics->Add("net.rounds", count(&OpResult::rounds), "count");
  metrics->Add("net.msgs", count(&OpResult::messages), "count");
  metrics->Add("net.send_s", send, "s");
  metrics->Add("net.recv_wait_s", recv_wait, "s");
  metrics->Add("net.wait_share", recv_wait / op_s, "ratio");
  metrics->Add("net.connect_s", connect, "s");
  metrics->Add("net.shutdown_s", shutdown, "s");
  metrics->Add("net.retries", count(&OpResult::retries), "count");
  metrics->Add("net.timeouts", count(&OpResult::timeouts), "count");
  metrics->Add("obs.overhead_s", op_s - Median(s.op_untraced), "s");

  // Reconciliation. plaintext + protocol = op_s is an identity (protocol
  // is defined as the difference) and is printed, not checked. The layers
  // timed from outside are checked against the part of op_s they belong
  // to: dp + core + sampling against the plaintext operation, mpc kernels
  // + transport against the protocol. They must not claim more than that
  // part by more than kReconcileTolerance of it, and, where the workload
  // says they cover the part, not less than its MinCover share of it.
  constexpr double kReconcileTolerance = 0.25;
  const double app_layers = calibrate + quantize + noise;
  const double upper = 1.0 + kReconcileTolerance;
  const bool app_ok = app_layers <= upper * plain &&
                      app_layers >= cover.app * plain;
  const bool mpc_ok = mpc_layers <= upper * protocol &&
                      mpc_layers >= cover.mpc * protocol;
  std::printf("reconcile: op_s %.6f = plaintext %.6f + protocol %.6f "
              "(identity); dp+core+sampling %.6f in [%.2f, %.2f] x "
              "plaintext [%s]; mpc+net %.6f in [%.2f, %.2f] x protocol "
              "[%s]\n",
              op_s, plain, protocol, app_layers, cover.app, upper,
              app_ok ? "ok" : "FAIL", mpc_layers, cover.mpc, upper,
              mpc_ok ? "ok" : "FAIL");
  return app_ok && mpc_ok;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.process);
  if (workload == nullptr) return Fail("unknown workload " + args.workload);
  if (Status s = workload->MakeInputs(args.data_dir, args.seed); !s.ok()) {
    return Fail(s.ToString());
  }

  // Reference first, in a session of its own that is not timed.
  if (Status s = workload->SetUp(); !s.ok()) return Fail(s.ToString());
  if (Status s = workload->ComputeReference(args.wrong_reference); !s.ok()) {
    return Fail(s.ToString());
  }
  workload->TearDown();

  Tally tally;
  Samples s;
  Result<std::vector<double>> extra_setups = workload->ExtraSetUpSeconds();
  if (!extra_setups.ok()) return Fail(extra_setups.status().ToString());
  s.setup = std::move(extra_setups).ValueOrDie();
  const auto set_up = [&]() -> Status {
    const Clock::time_point start = Clock::now();
    SQM_RETURN_NOT_OK(workload->SetUp());
    s.setup.push_back(Since(start));
    return Status::OK();
  };

  // Networked one-shot sessions, measured apart from the timed loop.
  std::vector<double> unused;
  for (size_t k = 0; k < workload->SeparateSessions(); ++k) {
    const Clock::time_point start = Clock::now();
    if (Status st = set_up(); !st.ok()) return Fail(st.ToString());
    TimedOp(*workload, &tally, &unused, nullptr, nullptr);
    workload->TearDown();
    s.session.push_back(Since(start));
    s.shutdown.push_back(workload->LastShutdownSeconds());
  }
  // In-process workloads open a one-shot session per operation; the
  // networked one runs every timed operation on one long-lived mesh.
  const bool session_per_op = workload->SeparateSessions() == 0;
  if (!session_per_op) {
    if (Status st = set_up(); !st.ok()) return Fail(st.ToString());
  }

  // One untimed warm-up operation, then the closed loop.
  size_t iterations = 0;
  const size_t min_iterations =
      1 + (args.trace ? kMinTracedIterations : kMinOps);
  Samples warm_up_samples;
  const Clock::time_point loop_start = Clock::now();
  while (iterations < min_iterations || Since(loop_start) < args.seconds) {
    const bool warm_up = iterations++ == 0;
    Samples& into = warm_up ? warm_up_samples : s;
    const Clock::time_point start = Clock::now();
    if (session_per_op) {
      if (Status st = workload->SetUp(); !st.ok()) {
        return Fail(st.ToString());
      }
      into.setup.push_back(Since(start));
    }
    PinToSlot(iterations);
    TimedOp(*workload, &tally, &into.op, &into.op_cpu, &into.results);
    if (args.trace) {
      obs::SetEnabled(false);
      TimedOp(*workload, &tally, &into.op_untraced, nullptr, nullptr);
      obs::SetEnabled(true);
      into.plaintext.push_back(Timed([&] { workload->RunPlaintextOp(); }));
      into.layers.push_back(workload->MeasureLayers(into.results.back()));
    }
    Unpin();
    if (session_per_op) {
      workload->TearDown();
      into.session.push_back(Since(start));
    }
  }
  if (!session_per_op) workload->TearDown();

  std::printf("%s: %zu timed operations, %llu checked, %llu failed\n",
              args.workload.c_str(), s.op.size(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::string payload;
  if (!args.trace) {
    payload = "\"samples\": " + EndToEndSamplesJson(s);
  } else {
    Metrics metrics;
    if (!PrintPerLayer(s, workload->MinCover(), &metrics)) {
      ++tally.failed;
      if (tally.first_error.empty()) tally.first_error = "reconciliation";
    }
    metrics.PrintTable();
    payload = "\"metrics\": " + metrics.Json();
  }
  if (!tally.first_error.empty()) {
    std::printf("first failure: %s\n", tally.first_error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "%s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), payload.c_str());
  return 0;
}

}  // namespace
}  // namespace sqm::bench

int main(int argc, char** argv) {
  sqm::Logger::SetLevel(sqm::LogLevel::kError);
  sqm::bench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--wrong-reference") {
      args.wrong_reference = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (flag == "--process" && has_value) {
      args.process = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--data-dir" && has_value) {
      args.data_dir = argv[++i];
    } else {
      std::fprintf(stderr, "sqm_bench: bad argument %s\n", flag.c_str());
      return 2;
    }
  }
  return sqm::bench::Run(args);
}
