// perfbench: the repository's end-to-end benchmark binary. perfbench/run.py
// builds it and is the supported entry point; see perfbench/README.md.
//
//   perfbench --workload train|forecast_batch|serve_open --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR]
//             [--stall-us US] [--source-id ID]
//
// Prints a fingerprint line, then one JSON line with every metric it
// measured; exits 1 when a correctness check failed and 3 when the run is
// invalid as a measurement.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "serve/fault_injector.h"
#include "tensor/vec/vec.h"
#include "util/trace_writer.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace conformer;

Geometry GeometryFor(Phase phase) {
  Geometry g;
  switch (phase) {
    case Phase::kTrain:  // The quick bench geometry.
      g.window = {.input_len = 48, .label_len = 24, .pred_len = 24};
      g.hyper.d_model = 16;
      g.hyper.n_heads = 2;
      g.hyper.ma_kernel = 13;
      g.batch = 16;
      g.threads = 1;
      break;
    case Phase::kForecast:  // Paper scale.
      g.window = {.input_len = 96, .label_len = 48, .pred_len = 96};
      g.hyper.d_model = 64;
      g.hyper.n_heads = 8;
      g.hyper.ma_kernel = 25;
      g.batch = 32;
      g.threads = std::clamp<int64_t>(std::thread::hardware_concurrency(), 1, 4);
      break;
    case Phase::kServe:  // conformer@24; conformer@48 doubles pred_len.
      g.window = {.input_len = 48, .label_len = 24, .pred_len = 24};
      g.batch = 8;
      g.threads = 1;
      break;
  }
  return g;
}

void SetOpLatency(Report& report, const std::vector<double>& ms) {
  const double p90 = Quantile(ms, 0.9);
  report.Set("op_latency_ms_p90", std::isfinite(p90) ? p90 : 1e6, "ms");
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

int SpanLog::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int index) {
  Span& s = spans_[index];
  s.end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  prof::TraceWriter writer;
  if (!writer.Open(path)) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    const std::string cat = s.name.substr(0, s.name.find('.'));
    writer.AddCompleteEvent(s.name, cat, s.start_ns - origin,
                            s.end_ns - s.start_ns, 1);
  }
  return writer.Close();
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Peak RSS of this process in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload train|forecast_batch|serve_open"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--trace-dir DIR] [--stall-us US] [--source-id ID]\n";
  std::exit(2);
}

int Main(int argc, char** argv) {
  Options opt;
  std::string workload, source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--stall-us") {
      opt.stall_us = std::stoll(value);
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else if (key == "--source-id") {
      source_id = value;
    } else {
      Usage("unknown flag " + key);
    }
  }
  if (argc % 2 == 0) Usage("flags take one value each");
  if (workload == "train") {
    opt.workload = Phase::kTrain;
  } else if (workload == "forecast_batch") {
    opt.workload = Phase::kForecast;
  } else if (workload == "serve_open") {
    opt.workload = Phase::kServe;
  } else {
    Usage("unknown workload '" + workload + "'");
  }
  if (opt.work_dir.empty()) Usage("--work-dir is required");
  if (opt.trace && opt.trace_dir.empty()) Usage("--trace 1 needs --trace-dir");
  if (!(opt.seconds > 0.0)) Usage("--seconds must be positive");
  std::filesystem::create_directories(opt.work_dir);

  if (opt.stall_us > 0) {
    serve::FaultInjector::Config faults;
    faults.stall_us = opt.stall_us;
    faults.stall_every = 1;
    serve::FaultInjector::Install(faults);
  }

  // Fingerprint: absolute numbers compare only between equal fingerprints.
  std::ostringstream fp;
  fp << "{\"cpu\": " << JsonString(CpuModel())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"simd\": "
     << JsonString(vec::SimdLevelName(vec::ActiveSimdLevel()))
     << ", \"compiler\": " << JsonString(__VERSION__)
     << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"threads\": {\"train\": " << GeometryFor(Phase::kTrain).threads
     << ", \"forecast_batch\": " << GeometryFor(Phase::kForecast).threads
     << ", \"serve_open\": " << GeometryFor(Phase::kServe).threads
     << "}, \"source\": " << JsonString(source_id)
     << ", \"workload\": " << JsonString(workload)
     << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
     << ", \"stall_us\": " << opt.stall_us << "}";
  std::cout << "fingerprint " << fp.str() << std::endl;

  // An untraced run sets up only the named phase and gives it all of
  // --seconds; a traced run sets every phase up, the named one first, and
  // interleaves them in rounds led by the named phase, recording layer
  // spans in its second half of rounds. setup_s is the median of the named
  // phase's set-up timed once before the rounds and, on fresh instances,
  // kSetups - 1 times after them. peak_rss_mb is the process's peak RSS when
  // the rounds end, before those extra set-ups.
  Report report;
  SpanLog spans;
  auto make = [&](Phase phase) {
    return phase == Phase::kTrain      ? MakeTrainPhase(opt, spans, report)
           : phase == Phase::kForecast ? MakeForecastPhase(opt, report)
                                       : MakeServePhase(opt, report);
  };
  std::vector<std::pair<Phase, std::unique_ptr<PhaseRunner>>> phases;
  phases.emplace_back(opt.workload, make(opt.workload));
  for (const Phase phase : {Phase::kTrain, Phase::kForecast, Phase::kServe}) {
    if (opt.trace && phase != opt.workload) {
      phases.emplace_back(phase, make(phase));
    }
  }
  std::vector<double> setup_s;
  auto timed_setup = [&](PhaseRunner& runner) {
    const auto start = Clock::now();
    runner.SetUp();
    setup_s.push_back(MsSince(start) * 1e-3);
  };
  timed_setup(*phases.front().second);
  for (size_t i = 1; i < phases.size(); ++i) phases[i].second->SetUp();
  for (int round = 0; round < kRounds; ++round) {
    for (auto& [phase, runner] : phases) {
      const double share = !opt.trace                  ? 1.0
                           : phase == Phase::kTrain    ? kTrainShare
                           : phase == Phase::kForecast ? kForecastShare
                                                       : kServeShare;
      runner->RunSlice(share * opt.seconds / kRounds,
                       opt.trace && round >= kRounds / 2);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  while (static_cast<int>(setup_s.size()) < kSetups) {
    timed_setup(*make(opt.workload));
  }
  report.Set("setup_s", Median(setup_s), "s");
  for (auto& [phase, runner] : phases) runner->Finish();
  phases.clear();

  if (opt.trace) {
    RunLayerProbes(opt, spans, report);
    const std::string path = opt.trace_dir + "/" + workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    std::filesystem::create_directories(opt.trace_dir);
    report.Check(spans.WriteChromeTrace(path),
                 "could not write the Chrome trace " + path);
    std::cout << "chrome trace " << path << std::endl;
  } else {
    report.Set("peak_rss_mb", peak_rss_mb, "MB");
  }

  for (const std::string& v : report.violations) {
    std::cout << "VIOLATION " << v << std::endl;
  }
  if (!report.invalid.empty()) {
    std::cout << "INVALID " << report.invalid << std::endl;
    return 3;
  }
  std::ostringstream out;
  out << "{\"correct\": " << (report.violations.empty() ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return report.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
