// Shared plumbing of the staq benchmark: the fixed city and load shape,
// seeded input generation, quantiles, peak memory, the result line, and
// the in-memory span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/access_query.h"
#include "core/columnar.h"
#include "core/gravity.h"
#include "gtfs/time.h"
#include "synth/city_builder.h"

namespace staqbench {

using namespace staq;

using SteadyClock = std::chrono::steady_clock;

inline double MillisBetween(SteadyClock::time_point from,
                            SteadyClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline SteadyClock::duration FromMillis(double ms) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// One run's command line.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// The service interval every server of the run answers for.
  gtfs::TimeInterval interval = gtfs::WeekdayAmPeak();
  /// Directory for the run's own files (WAL segments, snapshots).
  std::string work_dir;
  /// Where a traced run writes its spans, one JSON object per line.
  std::string trace_file;
};

// Every workload serves the same city: Brindale at scale 0.1 (324 zones)
// with 12 TODAM start-time samples per hour. The city seed is fixed; the
// workload seed drives only the generated inputs, so runs differ in what
// they ask, never in the city they ask it of. The gated workloads differ
// only in the service interval (Args::interval).
inline constexpr double kScale = 0.1;
inline constexpr int kSamplesPerHour = 12;
inline constexpr uint64_t kCitySeed = 42;
/// Set-up runs this many times per run and setup_s reports the median, so
/// one slow build does not move the metric.
inline constexpr int kSetupRepeats = 3;

synth::CitySpec BenchSpec();
core::GravityConfig BenchGravity();
/// Builds the evaluation city; exits the process on failure.
synth::City BuildBenchCity();

/// The four POI categories in paper order.
std::vector<synth::PoiCategory> Categories();
/// Metric-name form of a category ("school", "hospital", "vax", "jobs").
const char* CategoryTag(synth::PoiCategory category);
/// The 16-member cost sweep: journey time plus a 3x5 GAC grid (wait-time
/// weight x transfer penalty), the grid bench_load uses.
std::vector<core::CostMember> SweepMembers();

/// Equality of everything an answer reports except timing and SPQ
/// accounting, which differ between memoised and from-scratch paths.
bool SameAnswer(const core::AccessQueryResult& a,
                const core::AccessQueryResult& b);

/// Nearest-rank q-quantile, q in (0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// SplitMix64: every generated input derives from the workload seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  size_t Below(size_t n);
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      std::swap((*values)[i - 1], (*values)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// The run's result; Json() is the last line the run prints on stdout.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void Wrong(const std::string& why);
  std::string Json() const;
};

/// A reported metric's name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// End-to-end metrics of a session run (untraced): the ones BENCHMARK.json
/// gates, each measured by one of the session's two phases.
const std::vector<MetricSpec>& SessionEndToEndMetrics();
/// Per-layer metrics of a traced session run.
const std::vector<MetricSpec>& SessionLayerMetrics();
/// Adds `values` to the report in the order of `specs`. A spec without a
/// value, or a value without a spec, marks the run wrong: every reported
/// metric is measured, never filled in.
void AddMetrics(const std::vector<MetricSpec>& specs,
                const std::map<std::string, double>& values, Report* report);

// --- tracing -----------------------------------------------------------------

/// One timed interval of one layer. Spans of one request share `request`;
/// `parent` is the id of the span that caused it (0 for a root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  SteadyClock::time_point start;
  SteadyClock::time_point end;
};

/// In-memory span recorder. Each recording thread owns a Buffer, so
/// recording takes no lock; spans are merged and written once, at the end.
class Tracer {
 public:
  class Buffer {
   public:
    explicit Buffer(uint64_t index) : index_(index) {}
    /// Reserves the id of a span about to start (children need it).
    uint64_t NextId() { return (index_ << 40) | ++count_; }
    void Add(const Span& span) { spans_.push_back(span); }
    /// Records a finished interval under a fresh id and returns the id.
    uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                    SteadyClock::time_point start,
                    SteadyClock::time_point end);

   private:
    friend class Tracer;
    uint64_t index_;
    uint64_t count_ = 0;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A new per-thread buffer, or null when tracing is off; every recording
  /// helper treats a null buffer as "record nothing".
  Buffer* NewBuffer();

  /// Self time of every span, ms — its duration minus the part of it that
  /// its child spans cover — grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesMs() const;
  /// Self time per request and span name, ms (summed over same-named
  /// spans of one request).
  std::map<uint64_t, std::map<std::string, double>> SelfTimesByRequest()
      const;
  /// Durations grouped by span name, ms.
  std::map<std::string, std::vector<double>> DurationsMs() const;

  /// Writes every span as one JSON object per line. Call once all
  /// recording threads have finished.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> AllSpans() const;

  bool enabled_;
  mutable std::mutex mu_;  // guards buffers_ (creation only)
  std::deque<Buffer> buffers_;
};

/// RAII span around a call into one layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, const char* name, uint64_t request,
             uint64_t parent = 0)
      : buffer_(buffer) {
    if (buffer_ == nullptr) return;
    span_.name = name;
    span_.id = buffer_->NextId();
    span_.parent = parent;
    span_.request = request;
    span_.start = SteadyClock::now();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    span_.end = SteadyClock::now();
    buffer_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer::Buffer* buffer_;
  Span span_;
};

}  // namespace staqbench
