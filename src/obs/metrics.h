#ifndef SQM_OBS_METRICS_H_
#define SQM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sync.h"
#include "obs/obs.h"

namespace sqm::obs {

/// Monotone counter. Add is one relaxed atomic fetch-add — safe to call
/// from every party thread with no coordination.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Last-written-value gauge (e.g. the Jacobi off-diagonal norm per sweep).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram of non-negative integer samples (typically
/// microsecond durations or element counts). Bucket i counts values whose
/// bit width is i: bucket 0 holds exactly {0}, bucket i holds
/// [2^(i-1), 2^i). Record is three relaxed atomic adds.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;  // bit widths 0..64

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Record(uint64_t v) {
    buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of a bucket: 0, 1, 3, 7, ... (2^i - 1).
  static uint64_t BucketUpper(int bucket) {
    if (bucket >= 64) return UINT64_MAX;
    return (uint64_t{1} << bucket) - 1;
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

  static int BucketFor(uint64_t v) {
    int width = 0;
    while (v != 0) {
      v >>= 1;
      ++width;
    }
    return width;
  }

 private:
  std::string name_;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time copy of every metric, detached from the registry so it can
/// be serialized or compared without holding locks.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramBucket {
    uint64_t upper = 0;  ///< Inclusive upper bound of the bucket.
    uint64_t count = 0;
  };
  struct HistogramSample {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<HistogramBucket> buckets;  ///< Non-empty buckets only.
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Value of a counter by name, or 0 if absent.
  uint64_t CounterValue(const std::string& name) const;

  std::string ToJson() const;
};

/// Process-wide registry of named metrics. GetCounter et al. create on
/// first use and return a reference with a stable address for the life of
/// the process — ResetAll zeroes values but never invalidates references,
/// so call sites may cache the pointer (the SQM_OBS_* macros do).
///
/// Naming convention: dot-separated "<subsystem>.<object>.<what>", e.g.
/// "mpc.beaver.pool_remaining", "sampler.poisson.ptrs_rejections",
/// "eigen.jacobi.off_diag_norm" (see docs/OBSERVABILITY.md).
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Lookup without creating; nullptr when the metric does not exist.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  MetricsSnapshot Snapshot() const;
  std::string SnapshotJson() const { return Snapshot().ToJson(); }

  /// Zeroes every metric. References and pointers stay valid.
  void ResetAll();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SQM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SQM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SQM_GUARDED_BY(mu_);
};

/// Records the wall time of a scope, in microseconds, into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(Enabled() ? &histogram : nullptr),
        start_(histogram_ != nullptr ? NowMicros() : 0) {}
  explicit ScopedTimer(const std::string& name)
      : ScopedTimer(Registry::Global().GetHistogram(name)) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(NowMicros() - start_);
  }

 private:
  Histogram* histogram_;
  uint64_t start_;
};

}  // namespace sqm::obs

/// Hot-path macros: gated on the kill switch, with a function-local cached
/// pointer so the registry map lookup happens once per call site.
#define SQM_OBS_COUNTER_ADD(metric_name, n)                              \
  do {                                                                   \
    if (::sqm::obs::Enabled()) {                                         \
      static ::sqm::obs::Counter& sqm_obs_counter_ =                     \
          ::sqm::obs::Registry::Global().GetCounter(metric_name);        \
      sqm_obs_counter_.Add(static_cast<uint64_t>(n));                    \
    }                                                                    \
  } while (false)

#define SQM_OBS_COUNTER_INC(metric_name) SQM_OBS_COUNTER_ADD(metric_name, 1)

#define SQM_OBS_GAUGE_SET(metric_name, v)                                \
  do {                                                                   \
    if (::sqm::obs::Enabled()) {                                         \
      static ::sqm::obs::Gauge& sqm_obs_gauge_ =                         \
          ::sqm::obs::Registry::Global().GetGauge(metric_name);          \
      sqm_obs_gauge_.Set(static_cast<double>(v));                        \
    }                                                                    \
  } while (false)

#define SQM_OBS_HISTOGRAM_RECORD(metric_name, v)                         \
  do {                                                                   \
    if (::sqm::obs::Enabled()) {                                         \
      static ::sqm::obs::Histogram& sqm_obs_histogram_ =                 \
          ::sqm::obs::Registry::Global().GetHistogram(metric_name);      \
      sqm_obs_histogram_.Record(static_cast<uint64_t>(v));               \
    }                                                                    \
  } while (false)

#endif  // SQM_OBS_METRICS_H_
