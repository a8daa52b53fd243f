// The serve_open phase: open-loop Poisson arrivals into one FleetServer
// (FleetServer::Submit / FleetServer::Reload) with two tenants, at fixed
// absolute rates plus a search for the highest rate that meets the limit.
//
// Threads: the generator (submits on a schedule fixed in advance from the
// seed and stamps completions), this thread (issues the periodic Reload),
// and the fleet's 2 dispatcher shards. Latency runs from when a request was
// due to be sent, so a stall also charges the requests queued behind it.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "data/dataset_registry.h"
#include "serve/fleet_server.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "train/optimizer.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace conformer;

namespace {

constexpr double kLatencyLimitMs = 500.0;   // p99 limit of serve_max_rps.
constexpr double kMaxFailShare = 0.01;
constexpr double kReloadEverySec = 2.0;
constexpr double kLadderStep = 1.1;        // serve_max_rps search ratio.
constexpr double kTrialSeconds = 2.0;       // Per search rate.
constexpr double kGenLagLimitMs = 20.0;     // Above this a run is invalid.
constexpr int64_t kPoolRequests = 64;       // Distinct requests per tenant.
// Bitwise-checked OK responses: evenly spaced over each segment's
// schedule, so they cover every slice, the reloads and, in a traced run,
// both rates.
constexpr int64_t kSamplesPerSegment = 4;
constexpr size_t kMaxSamples = 48;
constexpr double kFailedMs = std::numeric_limits<double>::infinity();

struct Tenant {
  std::string key;
  serve::SessionConfig config;
  std::vector<data::Batch> requests;
  std::string checkpoint[2];  // Reload alternates between these.
  std::unique_ptr<serve::InferenceSession> reference[2];
};

struct Pending {
  std::future<Result<serve::Forecast>> future;
  Clock::time_point due;
  int64_t request = 0;
  bool sample = false;  // Bitwise-check this response when it is OK.
};

struct Segment {
  std::vector<double> latency_ms;  // Failed requests are +inf.
  std::vector<double> lag_ms;      // Generator lateness per send.
  int64_t sent = 0;
  int64_t failed = 0;
  // Growth of the outstanding requests over the second half of the send
  // window, and the window's length.
  int64_t backlog_growth = 0;
  double seconds = 0.0;

  // Folds another segment at the same rate into this one.
  void Merge(const Segment& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    sent += other.sent;
    failed += other.failed;
    backlog_growth += other.backlog_growth;
    seconds += other.seconds;
  }
};

// Registry counter deltas over the fixed-rate segments of one rate.
struct RateCounters {
  int64_t rejected = 0;
  int64_t shed = 0;
  double batch_size_sum = 0.0;
  int64_t batches = 0;
  double batch_latency_s = 0.0;
};

class ServePhase : public PhaseRunner {
 public:
  ServePhase(const Options& opt, Report& report);

  void SetUp() override;
  void RunSlice(double seconds, bool traced) override;
  void Finish() override;

 private:
  Segment RunSegment(double rate, double seconds);
  bool Meets(const Segment& s, double rate) const;
  double SearchMaxRps();
  void MaybeReload();
  void VerifySamples();
  void ReportLayers();

  static inline int instances_ = 0;  // Names each instance's directory.
  const Options& opt_;
  Report& report_;
  const int instance_ = ++instances_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<serve::FleetServer> fleet_;
  int64_t segments_ = 0;  // Seeds each segment's schedule.
  std::map<int, Segment> fixed_;
  std::map<int, RateCounters> counters_;
  bool reloads_started_ = false;
  Clock::time_point next_reload_;
  int reload_version_ = 0;
  std::vector<double> reload_ms_;
  int64_t reload_failures_ = 0;
  // Sampled OK responses: (tenant, request, point forecast).
  struct Sample {
    size_t tenant;
    int64_t request;
    Tensor point;
  };
  std::vector<Sample> samples_;
  std::vector<double> gen_lag_;
  int64_t plan_hits_ = 0, plan_total_ = 0;
};

ServePhase::ServePhase(const Options& opt, Report& report)
    : opt_(opt), report_(report) {
  const Geometry g = GeometryFor(Phase::kServe);
  const data::TimeSeries series =
      data::MakeDataset("etth1", kDataScale, opt_.seed).value();
  Rng rng(opt.seed * 15485863 + 5);
  for (const int64_t pred : {g.window.pred_len, 2 * g.window.pred_len}) {
    Tenant t;
    t.config.window = g.window;
    t.config.window.pred_len = pred;
    t.config.dims = series.dims();
    t.config.hyper = g.hyper;
    t.key = serve::MakeTenantKey("conformer", pred);
    const data::DatasetSplits splits = data::MakeSplits(series, t.config.window);
    for (int64_t i = 0; i < kPoolRequests; ++i) {
      t.requests.push_back(
          splits.test.GetRange(rng.UniformInt(splits.test.size()), 1));
    }
    tenants_.push_back(std::move(t));
  }
}

// Writes both checkpoints of every tenant, opens the fleet from the first,
// and warms each tenant with one full micro-batch and one single request.
void ServePhase::SetUp() {
  ThreadPool::Global().SetNumThreads(GeometryFor(Phase::kServe).threads);
  fleet_.reset();
  for (size_t ti = 0; ti < tenants_.size(); ++ti) {
    Tenant& t = tenants_[ti];
    for (int v = 0; v < 2; ++v) {
      models::ModelHyperParams hyper = t.config.hyper;
      hyper.seed = t.config.hyper.seed + v;
      std::unique_ptr<models::Forecaster> model =
          models::MakeForecaster("conformer", t.config.window, t.config.dims,
                                 hyper)
              .value();
      train::Adam adam(model->Parameters());
      t.checkpoint[v] = opt_.work_dir + "/serve_ckpt_" +
                        std::to_string(instance_) + "/" + std::to_string(ti) +
                        "_" + std::to_string(v);
      std::filesystem::remove_all(t.checkpoint[v]);
      train::CheckpointManager manager(t.checkpoint[v], 1);
      const Status st = manager.Save(*model, adam, train::TrainProgress{});
      report_.Check(st.ok(), "serve_open: checkpoint save: " + st.ToString());
    }
  }
  auto fleet = std::make_unique<serve::FleetServer>(
      serve::FleetConfig{.num_dispatchers = 2});
  for (const Tenant& t : tenants_) {
    serve::TenantSpec spec;
    spec.session = t.config;
    spec.checkpoint = t.checkpoint[0];
    spec.queue.max_batch_size = 8;
    const Status st = fleet->AddTenant(t.key, spec);
    report_.Check(st.ok(), "serve_open: AddTenant: " + st.ToString());
  }
  std::vector<std::future<Result<serve::Forecast>>> warm;
  for (const Tenant& t : tenants_) {
    for (int64_t i = 0; i < 8; ++i) {
      warm.push_back(fleet->Submit(t.key, t.requests[i]));
    }
  }
  for (auto& f : warm) f.get();
  for (const Tenant& t : tenants_) fleet->Submit(t.key, t.requests[0]).get();
  fleet_ = std::move(fleet);
}

void ServePhase::MaybeReload() {
  if (Clock::now() < next_reload_) return;
  next_reload_ += std::chrono::milliseconds(
      static_cast<int64_t>(kReloadEverySec * 1e3));
  reload_version_ = 1 - reload_version_;
  for (const Tenant& t : tenants_) {
    const auto start = Clock::now();
    const Status st = fleet_->Reload(t.key, t.checkpoint[reload_version_]);
    reload_ms_.push_back(MsSince(start));
    if (!st.ok()) ++reload_failures_;
  }
}

// One open-loop segment: Poisson arrivals at `rate` req/s for `seconds`,
// split 1:1 between the tenants, then a drain until every future resolved.
//
// The generator thread sends each request at its due time and, while it
// waits for the next one, stamps completions; this thread meanwhile issues
// the periodic Reload. A slow Reload therefore costs the fleet CPU and the
// session lock, as in production, but never delays a completion stamp.
Segment ServePhase::RunSegment(double rate, double seconds) {
  struct Arrival {
    double at_s;
    size_t tenant;
    int64_t request;
  };
  // The schedule depends only on the seed, the segment's place in the run
  // and its rate.
  Rng rng(opt_.seed * 1000003 + static_cast<uint64_t>(++segments_) * 7919 +
          static_cast<uint64_t>(rate * 1000));
  std::vector<Arrival> schedule;
  for (double at = 0.0;;) {
    at += -std::log(1.0 - rng.Uniform()) / rate;
    if (at >= seconds) break;
    schedule.push_back({at, static_cast<size_t>(rng.UniformInt(2)),
                        rng.UniformInt(kPoolRequests)});
  }

  Segment seg;
  seg.sent = static_cast<int64_t>(schedule.size());
  seg.seconds = seconds;
  std::atomic<bool> done{false};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due_at = [&](size_t i) {
    return start + std::chrono::nanoseconds(
                       static_cast<int64_t>(schedule[i].at_s * 1e9));
  };

  std::thread generator([&] {
    // A tenant's requests resolve in submission order, so only the head of
    // each tenant's queue needs polling.
    std::vector<std::deque<Pending>> pending(tenants_.size());
    int64_t completed = 0;
    int64_t backlog_mid = 0;
    bool mid_taken = false;
    const Clock::time_point mid =
        start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 5e8));
    auto collect = [&] {
      for (size_t ti = 0; ti < pending.size(); ++ti) {
        while (!pending[ti].empty() &&
               pending[ti].front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
          Pending p = std::move(pending[ti].front());
          pending[ti].pop_front();
          const Result<serve::Forecast> r = p.future.get();
          ++completed;
          if (!r.ok()) {
            ++seg.failed;
            seg.latency_ms.push_back(kFailedMs);
            continue;
          }
          seg.latency_ms.push_back(MsSince(p.due));
          if (p.sample && samples_.size() < kMaxSamples) {
            samples_.push_back({ti, p.request, r.value().point});
          }
        }
      }
    };
    const size_t n = schedule.size();
    auto sampled = [&](size_t i) {
      for (int64_t k = 0; k < kSamplesPerSegment; ++k) {
        if (i == (2 * k + 1) * n / (2 * kSamplesPerSegment)) return true;
      }
      return false;
    };
    size_t next = 0;
    while (completed < seg.sent) {
      const Clock::time_point now = Clock::now();
      if (next < schedule.size() && now >= due_at(next)) {
        const Arrival& a = schedule[next];
        const Clock::time_point due = due_at(next);
        seg.lag_ms.push_back(MsSince(due));
        pending[a.tenant].push_back(
            {fleet_->Submit(tenants_[a.tenant].key,
                            tenants_[a.tenant].requests[a.request]),
             due, a.request, sampled(next)});
        if (++next == schedule.size()) {
          seg.backlog_growth =
              static_cast<int64_t>(next) - completed - backlog_mid;
        }
        continue;
      }
      if (!mid_taken && now >= mid) {
        backlog_mid = static_cast<int64_t>(next) - completed;
        mid_taken = true;
      }
      collect();
      Clock::time_point wake = now + std::chrono::microseconds(200);
      if (next < schedule.size()) wake = std::min(wake, due_at(next));
      std::this_thread::sleep_until(wake);
    }
    done.store(true, std::memory_order_release);
  });

  while (!done.load(std::memory_order_acquire)) {
    MaybeReload();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  generator.join();
  gen_lag_.insert(gen_lag_.end(), seg.lag_ms.begin(), seg.lag_ms.end());
  report_.attempted += seg.sent;
  report_.failed += seg.failed;
  return seg;
}

// The limit: p99 within kLatencyLimitMs, at most 1% failed, and a backlog
// that does not grow over the second half of the send window.
bool ServePhase::Meets(const Segment& s, double rate) const {
  const double growth_allowed = std::max(16.0, 0.1 * rate * s.seconds * 0.5);
  const double p99 = Quantile(s.latency_ms, 0.99);
  const bool ok = p99 <= kLatencyLimitMs && s.failed <= kMaxFailShare * s.sent &&
                  s.backlog_growth <= growth_allowed;
  std::printf("serve search: rate %.1f/s sent %lld p99 %.1f ms failed %lld "
              "backlog growth %lld: %s\n",
              rate, static_cast<long long>(s.sent), p99,
              static_cast<long long>(s.failed),
              static_cast<long long>(s.backlog_growth),
              ok ? "meets" : "misses");
  return ok;
}

// Every sampled response must be bitwise equal to a direct single-row
// Predict on one of the two checkpoints the tenant alternates between.
void ServePhase::VerifySamples() {
  ClearBufferPool();  // Drop the other phases' buffers from this thread.
  int64_t matched[2] = {0, 0};
  for (const Sample& s : samples_) {
    Tenant& t = tenants_[s.tenant];
    bool match = false;
    for (int v = 0; v < 2 && !match; ++v) {
      if (t.reference[v] == nullptr) {
        t.reference[v] =
            serve::InferenceSession::Open(t.config, t.checkpoint[v]).value();
      }
      const Tensor direct = t.reference[v]->Predict(t.requests[s.request]).point;
      match = direct.shape() == s.point.shape() &&
              std::memcmp(direct.data(), s.point.data(),
                          sizeof(float) * direct.numel()) == 0;
      matched[v] += match;
    }
    report_.Check(match, "serve_open: batched response for " + t.key +
                             " differs from a direct single-row Predict");
  }
  report_.Check(!samples_.empty(), "serve_open: no response was sampled");
  std::printf("serve check: %zu sampled responses, %lld matched checkpoint 0,"
              " %lld checkpoint 1\n",
              samples_.size(), static_cast<long long>(matched[0]),
              static_cast<long long>(matched[1]));
}

double P(const std::vector<double>& v, double q) {
  const double x = Quantile(v, q);
  return std::isfinite(x) ? x : 1e6;  // A failed request misses any limit.
}

// One slice: a fixed-rate segment at 64 req/s, and in a traced run one at
// 192 req/s as well.
void ServePhase::RunSlice(double seconds, bool /*traced*/) {
  ThreadPool::Global().SetNumThreads(GeometryFor(Phase::kServe).threads);
  if (!reloads_started_) {
    reloads_started_ = true;
    next_reload_ = Clock::now() + std::chrono::milliseconds(static_cast<int64_t>(
                                      kReloadEverySec * 1e3));
  }
  metrics::Registry& registry = metrics::Registry::Global();
  auto counter = [&](const char* name) {
    return registry.GetCounter(name).value();
  };
  auto hist = [&](const char* name) {
    return registry.GetHistogram(name).GetSnapshot();
  };
  auto plan_counts = [&] {
    return std::pair(counter("serve.plan_hits"),
                     counter("serve.plan_hits") + counter("serve.plan_builds") +
                         counter("serve.plan_fallbacks"));
  };
  const auto plan0 = plan_counts();
  const std::vector<int> rates =
      opt_.trace ? std::vector<int>{64, 192} : std::vector<int>{64};
  for (const int rate : rates) {
    const int64_t rejected = counter("serve.rejected");
    const int64_t shed = counter("serve.shed_expired");
    const auto sizes = hist("serve.batch_size");
    const auto latency = hist("serve.batch_latency_seconds");
    const Segment seg = RunSegment(rate, seconds / rates.size());
    auto it = fixed_.find(rate);
    if (it == fixed_.end()) {
      fixed_[rate] = seg;
    } else {
      it->second.Merge(seg);
    }
    RateCounters& c = counters_[rate];
    c.rejected += counter("serve.rejected") - rejected;
    c.shed += counter("serve.shed_expired") - shed;
    const auto sizes1 = hist("serve.batch_size");
    const auto latency1 = hist("serve.batch_latency_seconds");
    c.batch_size_sum += sizes1.sum - sizes.sum;
    c.batches += sizes1.count - sizes.count;
    c.batch_latency_s += latency1.sum - latency.sum;
  }
  const auto plan1 = plan_counts();
  plan_hits_ += plan1.first - plan0.first;
  plan_total_ += plan1.second - plan0.second;
}

double ServePhase::SearchMaxRps() {
  // Highest passing rate: the r192 segments are the first rung of a ladder
  // that climbs by kLadderStep until a trial misses the limit (or descends
  // until one meets it). Only traced runs search: latency against rate is
  // not monotone on small batches, so the result jumps between rungs from
  // run to run and is not an end-to-end gate.
  double pass = 0.0;
  double rate = 192.0;
  if (Meets(fixed_[192], rate)) {
    do {
      pass = rate;
      rate *= kLadderStep;
    } while (rate < 8192.0 && Meets(RunSegment(rate, kTrialSeconds), rate));
  } else {
    while (pass == 0.0 && rate > 8.0) {
      rate /= kLadderStep;
      if (Meets(RunSegment(rate, kTrialSeconds), rate)) pass = rate;
    }
  }
  return pass;
}

void ServePhase::Finish() {
  ThreadPool::Global().SetNumThreads(GeometryFor(Phase::kServe).threads);
  const double max_rps = opt_.trace ? SearchMaxRps() : 0.0;
  VerifySamples();
  report_.Check(reload_failures_ == 0,
                "serve_open: " + std::to_string(reload_failures_) +
                    " reloads failed");
  const double lag_p99 = Quantile(gen_lag_, 0.99);
  if (lag_p99 > kGenLagLimitMs) {
    report_.invalid = "serve_open: generator ran " + std::to_string(lag_p99) +
                      " ms late at p99 (limit " +
                      std::to_string(kGenLagLimitMs) + " ms)";
  }

  if (opt_.workload == Phase::kServe) {
    SetOpLatency(report_, fixed_[64].latency_ms);
  }
  if (opt_.trace) {
    report_.Set("serve_p50_ms_r64", P(fixed_[64].latency_ms, 0.5), "ms");
    report_.Set("serve_p99_ms_r64", P(fixed_[64].latency_ms, 0.99), "ms");
    report_.Set("serve_p50_ms_r192", P(fixed_[192].latency_ms, 0.5), "ms");
    report_.Set("serve_p99_ms_r192", P(fixed_[192].latency_ms, 0.99), "ms");
    report_.Set("serve_max_rps", max_rps, "1/s");
    ReportLayers();
  }
}

void ServePhase::ReportLayers() {
  report_.Set("serve.gen_lag_ms_p99", Quantile(gen_lag_, 0.99), "ms");
  const RateCounters& c192 = counters_[192];
  const int64_t batches = std::max<int64_t>(1, c192.batches);
  report_.Set("serve.batch_size_mean", c192.batch_size_sum / batches,
              "count");
  report_.Set("serve.queue_wait_ms_p50",
              P(fixed_[192].latency_ms, 0.5) -
                  1e3 * c192.batch_latency_s / batches,
              "ms");
  report_.Set("serve.plan_hit_rate",
              plan_total_ == 0 ? 0.0
                               : static_cast<double>(plan_hits_) / plan_total_,
              "ratio");
  report_.Set("serve.reload_ms_p50", Median(reload_ms_), "ms");
  for (const int r : {64, 192}) {
    const std::string suffix = "_r" + std::to_string(r);
    report_.Set("serve.rejected" + suffix, counters_[r].rejected, "count");
    report_.Set("serve.shed" + suffix, counters_[r].shed, "count");
    report_.Set("serve.failed" + suffix, fixed_[r].failed, "count");
  }

  // Direct Predict on a default session of the first tenant, no queue.
  Tenant& t = tenants_[0];
  if (t.reference[0] == nullptr) {
    t.reference[0] = serve::InferenceSession::Open(t.config, "").value();
  }
  for (const int64_t b : {int64_t{1}, int64_t{8}}) {
    std::vector<Tensor> x, xm, y, ym;
    for (int64_t i = 0; i < b; ++i) {
      x.push_back(t.requests[i].x);
      xm.push_back(t.requests[i].x_mark);
      y.push_back(t.requests[i].y);
      ym.push_back(t.requests[i].y_mark);
    }
    const data::Batch batch{Concat(x, 0), Concat(xm, 0), Concat(y, 0),
                            Concat(ym, 0)};
    ClearBufferPool();  // Drop other geometries' buffers from this thread.
    t.reference[0]->Predict(batch);  // Warm-up for this geometry.
    std::vector<double> ms;
    for (int i = 0; i < 15; ++i) {
      const auto start = Clock::now();
      t.reference[0]->Predict(batch);
      ms.push_back(MsSince(start));
    }
    report_.Set("serve.predict_ms_b" + std::to_string(b), Median(ms), "ms");
  }
}

}  // namespace

std::unique_ptr<PhaseRunner> MakeServePhase(const Options& opt,
                                            Report& report) {
  return std::make_unique<ServePhase>(opt, report);
}

}  // namespace perfbench
