#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

namespace staqbench {

synth::CitySpec BenchSpec() {
  return synth::CitySpec::Brindale(kScale, kCitySeed);
}

core::GravityConfig BenchGravity() {
  core::GravityConfig gravity = core::CalibratedGravityConfig(BenchSpec());
  gravity.sample_rate_per_hour = kSamplesPerHour;
  return gravity;
}

synth::City BuildBenchCity() {
  auto built = synth::BuildCity(BenchSpec());
  if (!built.ok()) {
    std::fprintf(stderr, "city build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

std::vector<synth::PoiCategory> Categories() {
  return {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital,
          synth::PoiCategory::kVaxCenter, synth::PoiCategory::kJobCenter};
}

const char* CategoryTag(synth::PoiCategory category) {
  switch (category) {
    case synth::PoiCategory::kSchool:
      return "school";
    case synth::PoiCategory::kHospital:
      return "hospital";
    case synth::PoiCategory::kVaxCenter:
      return "vax";
    case synth::PoiCategory::kJobCenter:
      return "jobs";
  }
  return "unknown";
}

std::vector<core::CostMember> SweepMembers() {
  std::vector<core::CostMember> members;
  members.push_back(
      core::CostMember{core::CostKind::kJourneyTime, router::GacWeights{}});
  for (double lambda_wt : {1.5, 2.0, 2.5}) {
    for (double penalty_s : {0.0, 300.0, 600.0, 900.0, 1200.0}) {
      router::GacWeights gac;
      gac.lambda_wt = lambda_wt;
      gac.transfer_penalty_s = penalty_s;
      members.push_back(
          core::CostMember{core::CostKind::kGeneralizedCost, gac});
    }
  }
  return members;
}

bool SameAnswer(const core::AccessQueryResult& a,
                const core::AccessQueryResult& b) {
  return a.mac == b.mac && a.acsd == b.acsd && a.classes == b.classes &&
         a.mean_mac == b.mean_mac && a.mean_acsd == b.mean_acsd &&
         a.fairness == b.fairness &&
         a.population_fairness == b.population_fairness &&
         a.vulnerable_fairness == b.vulnerable_fairness &&
         a.gravity_trips == b.gravity_trips;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::clamp(
      rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

size_t Rng::Below(size_t n) { return static_cast<size_t>(Next() % n); }

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Wrong("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::Wrong(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "WRONG: %s\n", why.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<MetricSpec>& SessionEndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      // whatif_cold phase.
      {"exact_p50_ms", "ms"},
      {"exact_p90_ms", "ms"},
      {"ssr_p50_ms", "ms"},
      {"ssr_p90_ms", "ms"},
      {"sweep_p50_ms", "ms"},
      // edit_replicate phase.
      {"edit_p50_ms", "ms"},
      {"edit_p90_ms", "ms"},
      {"read_p50_ms", "ms"},
      {"recover_s", "s"},
  };
  return metrics;
}

const std::vector<MetricSpec>& SessionLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      // Set-up.
      {"synth.build_city_ms", "ms"},
      {"router.connections_build_ms", "ms"},
      {"serve.offline_build_ms", "ms"},
      // core, whatif_cold: the replayed decomposition of cold requests.
      {"core.todam_ms", "ms"},
      {"core.labeling_ms", "ms"},
      {"core.labeling_p90_ms", "ms"},
      {"core.spqs_per_state", "count"},
      {"core.expansions_per_state", "count"},
      {"core.measures_ms", "ms"},
      {"core.features_ms", "ms"},
      {"core.features.school_ms", "ms"},
      {"core.features.hospital_ms", "ms"},
      {"core.features.vax_ms", "ms"},
      {"core.features.jobs_ms", "ms"},
      {"core.sample_label_ms", "ms"},
      {"core.capture_ms", "ms"},
      {"core.columnar_ms", "ms"},
      // ml, whatif_cold.
      {"ml.fit.ols_ms", "ms"},
      {"ml.fit.coreg_ms", "ms"},
      {"ml.fit.mlp_ms", "ms"},
      {"ml.predict.ols_ms", "ms"},
      {"ml.predict.coreg_ms", "ms"},
      {"ml.predict.mlp_ms", "ms"},
      // serve: the queue and AqServer::stats() of whatif_cold, patching of
      // edit_replicate.
      {"serve.queue_wait_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.state_builds", "count"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"serve.patch_ms", "ms"},
      {"serve.patch_p90_ms", "ms"},
      {"serve.zones_relabeled_per_edit", "count"},
      {"serve.patch_spqs_per_edit", "count"},
      // wal, edit_replicate.
      {"wal.syncs_per_edit", "count"},
      {"wal.bytes_per_edit", "bytes"},
      {"wal.ack_overhead_ms", "ms"},
      // net, edit_replicate.
      {"net.read_overhead_ms", "ms"},
      {"net.read_overhead_p99_ms", "ms"},
      {"net.codec_us", "us"},
      {"net.reply_bytes", "bytes"},
      {"net.failovers", "count"},
      {"net.redials", "count"},
      // store and replicas, edit_replicate.
      {"store.snapshot_save_ms", "ms"},
      {"store.snapshot_bytes", "bytes"},
      {"store.snapshot_load_ms", "ms"},
      {"replica.bootstrap_ms", "ms"},
      {"replica.catchup_ms", "ms"},
      // The cost of tracing (traced minus untraced p50 of the cold exact AQ
      // and of the routed edit) and the closure checks.
      {"trace.exact_overhead_ms", "ms"},
      {"trace.edit_overhead_ms", "ms"},
      {"closure.exact_ratio", "ratio"},
      {"closure.read_ratio", "ratio"},
  };
  return metrics;
}

void AddMetrics(const std::vector<MetricSpec>& specs,
                const std::map<std::string, double>& values, Report* report) {
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      report->Wrong(std::string("metric ") + spec.name + " was not measured");
      continue;
    }
    report->Add(spec.name, it->second, spec.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || name == spec.name;
    if (!known) report->Wrong("unregistered metric " + name);
  }
}

uint64_t Tracer::Buffer::Record(const char* name, uint64_t request,
                                uint64_t parent,
                                SteadyClock::time_point start,
                                SteadyClock::time_point end) {
  Span span;
  span.name = name;
  span.id = NextId();
  span.parent = parent;
  span.request = request;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
  return span.id;
}

Tracer::Buffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back(buffers_.size() + 1);
  return &buffers_.back();
}

std::vector<Span> Tracer::AllSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const Buffer& buffer : buffers_) {
    all.insert(all.end(), buffer.spans_.begin(), buffer.spans_.end());
  }
  return all;
}

namespace {

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it.
std::vector<double> SelfMs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<SteadyClock::time_point,
                                    SteadyClock::time_point>>>
      children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    auto it = index.find(span.parent);
    if (it != index.end()) {
      children[it->second].push_back({span.start, span.end});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    SteadyClock::time_point cursor = spans[i].start;
    for (const auto& [start, end] : kids) {
      const auto from = std::max(start, cursor);
      const auto to = std::min(end, spans[i].end);
      if (to > from) {
        covered += MillisBetween(from, to);
        cursor = to;
      }
    }
    self[i] = MillisBetween(spans[i].start, spans[i].end) - covered;
  }
  return self;
}

}  // namespace

std::map<std::string, std::vector<double>> Tracer::SelfTimesMs() const {
  const std::vector<Span> spans = AllSpans();
  const std::vector<double> self = SelfMs(spans);
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(self[i]);
  }
  return out;
}

std::map<uint64_t, std::map<std::string, double>>
Tracer::SelfTimesByRequest() const {
  const std::vector<Span> spans = AllSpans();
  const std::vector<double> self = SelfMs(spans);
  std::map<uint64_t, std::map<std::string, double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].request][spans[i].name] += self[i];
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::DurationsMs() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : AllSpans()) {
    out[span.name].push_back(MillisBetween(span.start, span.end));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<Span> spans = AllSpans();
  SteadyClock::time_point origin = SteadyClock::time_point::max();
  for (const Span& span : spans) origin = std::min(origin, span.start);
  for (const Span& span : spans) {
    std::fprintf(file,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 MillisBetween(origin, span.start) * 1e3,
                 MillisBetween(origin, span.end) * 1e3);
  }
  return std::fclose(file) == 0;
}

}  // namespace staqbench
