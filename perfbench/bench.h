// Shared pieces of the end-to-end benchmark: options, the result record,
// order statistics, and the span log that the traced run fills from the
// benchmark's own code around each call into a library layer.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/window_dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The three workloads, one phase each. An untraced run executes only the
/// named workload's phase, for all of `--seconds`, and reports the
/// end-to-end metrics of that phase's operation. A traced run executes all
/// three phases for a share of `--seconds` each, so that every traced run
/// reports every per-layer metric; the named workload's phase is set up
/// first and leads every round.
enum class Phase { kTrain, kForecast, kServe };

/// Share of `--seconds` each phase measures for in a traced run. The serve
/// phase splits its share between its two fixed rates; its rate search
/// runs after the rounds, on top.
inline constexpr double kTrainShare = 0.20;
inline constexpr double kForecastShare = 0.35;
inline constexpr double kServeShare = 0.40;

/// Model, window and thread geometry of one workload's phase.
struct Geometry {
  conformer::data::WindowConfig window;
  conformer::models::ModelHyperParams hyper;
  int64_t batch = 1;
  int64_t threads = 1;
};
Geometry GeometryFor(Phase phase);

/// Dataset scale of the synthetic etth1 series every phase windows.
inline constexpr double kDataScale = 0.1;

struct Options {
  Phase workload = Phase::kTrain;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// > 0 installs serve::FaultInjector with this Predict stall (the
  /// sensitivity drill).
  int64_t stall_us = 0;
  std::string work_dir;   ///< Scratch directory for checkpoints.
  std::string trace_dir;  ///< Where a traced run writes its Chrome trace.
};

/// Everything one run reports. Metrics are name -> (value, unit).
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> violations;  ///< Failed correctness checks.
  /// Non-empty when the run cannot be trusted as a measurement (the
  /// open-loop generator ran late), which is not a regression.
  std::string invalid;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// Sets the end-to-end latency metric of the named workload's operation
/// (an optimizer step, a batch Predict, a request at 64 req/s):
/// op_latency_ms_p90. A failed operation is +inf in `ms` and counts as
/// 1e6 ms, so it misses any limit.
void SetOpLatency(Report& report, const std::vector<double>& ms);

/// q-quantile (q in [0,1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// In-memory span recorder (one thread). Spans nest by call order; a span's
/// self time is its duration minus its direct children's durations. The
/// log is written as a Chrome-trace JSON at the end of a traced run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t child_ns = 0;  ///< Summed duration of direct children.
    double ms() const { return (end_ns - start_ns) * 1e-6; }
    double self_ms() const { return (end_ns - start_ns - child_ns) * 1e-6; }
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int Begin(const std::string& name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`, oldest first.
  std::vector<double> Durations(const std::string& name) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records one span for its scope when the log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), index_(log.enabled() ? log.Begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) log_.End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// One workload's phase. A run sets its phases up, runs them in kRounds
/// rounds of slices (interleaved, in a traced run), and then times further
/// set-ups of the named phase on fresh instances for setup_s.
class PhaseRunner {
 public:
  virtual ~PhaseRunner() = default;
  /// Builds the phase: model/session/fleet construction, the checkpoint
  /// writes it needs, and untimed warm-up calls. The run times it for
  /// setup_s, also on fresh instances while another instance of the same
  /// phase is live, so instances must not share files.
  virtual void SetUp() = 0;
  /// Measures for about `seconds`. `traced` records layer spans.
  virtual void RunSlice(double seconds, bool traced) = 0;
  /// Checks outputs and adds the phase's metrics to the report.
  virtual void Finish() = 0;
};

inline constexpr int kRounds = 4;
/// Set-ups of the named phase timed per run; setup_s is their median.
inline constexpr int kSetups = 9;

/// Phase factories (train_forecast.cc, serve.cc).
std::unique_ptr<PhaseRunner> MakeTrainPhase(const Options& opt,
                                            SpanLog& spans, Report& report);
std::unique_ptr<PhaseRunner> MakeForecastPhase(const Options& opt,
                                               Report& report);
std::unique_ptr<PhaseRunner> MakeServePhase(const Options& opt,
                                            Report& report);

/// Per-layer probes (layers.cc) at the geometry and thread count of
/// `opt.workload`: kernels, thread-pool fan-out, standalone core/flow
/// modules, the static runtime, and tensor allocation counts.
void RunLayerProbes(const Options& opt, SpanLog& spans, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
