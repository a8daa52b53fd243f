// The train and forecast_batch phases: closed loops over the library's
// public entry points (Forecaster::Loss, Tensor::Backward, ClipGradNorm,
// Adam::Step, CheckpointManager::Save; InferenceSession::Predict).

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "data/dataset_registry.h"
#include "serve/inference_session.h"
#include "tensor/alloc_stats.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "train/optimizer.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace conformer;

namespace {

constexpr int64_t kLossWindow = 20;  // Steps averaged by the loss check.
constexpr int64_t kMinSteps = 2 * kLossWindow;
constexpr int64_t kCheckpointEvery = 50;
constexpr double kLearningRate = 1e-3;
constexpr double kClipNorm = 1.0;

double Mean(const std::vector<double>& v, size_t first, size_t count) {
  double sum = 0.0;
  for (size_t i = first; i < first + count; ++i) sum += v[i];
  return sum / static_cast<double>(count);
}

class TrainPhase : public PhaseRunner {
 public:
  TrainPhase(const Options& opt, SpanLog& spans, Report& report)
      : opt_(opt),
        spans_(spans),
        report_(report),
        g_(GeometryFor(Phase::kTrain)),
        series_(data::MakeDataset("etth1", kDataScale, opt.seed).value()),
        splits_(data::MakeSplits(series_, g_.window)),
        rng_(opt.seed * 7919 + 1),
        dir_(opt.work_dir + "/train_ckpt_" + std::to_string(++instances_)) {}

  // Model, optimizer and checkpoint directory, plus one untimed warm-up
  // forward/backward so first-touch allocation is not billed to step 1.
  void SetUp() override {
    Enter();
    model_ = models::MakeForecaster("conformer", g_.window, series_.dims(),
                                    g_.hyper)
                 .value();
    model_->SetTraining(true);
    params_ = model_->Parameters();
    adam_ = std::make_unique<train::Adam>(params_, kLearningRate);
    std::filesystem::remove_all(dir_);
    checkpoints_ = std::make_unique<train::CheckpointManager>(dir_, 2);
    Tensor loss = model_->Loss(splits_.train.GetRange(0, g_.batch));
    loss.Backward();
    adam_->ZeroGrad();
  }

  // A traced slice traces every other step; the steps in between are the
  // untraced side of trace.overhead_pct, taken in the same spells of host
  // speed as the traced side.
  void RunSlice(double seconds, bool traced) override {
    Enter();
    const auto start = Clock::now();
    bool trace_step = traced;
    do {
      Step(trace_step, traced);
      trace_step = traced && !trace_step;
    } while (MsSince(start) < seconds * 1e3);
  }

  void Finish() override {
    Enter();
    while (static_cast<int64_t>(losses_.size()) < kMinSteps) {
      Step(false, false);
    }
    {
      // Final checkpoint, so every run times at least one Save.
      spans_.set_enabled(opt_.trace);
      ScopedSpan s(spans_, "train.checkpoint");
      Save();
    }
    spans_.set_enabled(false);
    std::filesystem::remove_all(dir_);

    report_.attempted += static_cast<int64_t>(losses_.size());
    report_.failed += nonfinite_;
    report_.Check(nonfinite_ == 0, "train: non-finite loss in " +
                                       std::to_string(nonfinite_) + " steps");
    const double first = Mean(losses_, 0, kLossWindow);
    const double last =
        Mean(losses_, losses_.size() - kLossWindow, kLossWindow);
    report_.Check(last < first, "train: mean loss of the last 20 steps (" +
                                    std::to_string(last) +
                                    ") is not below the first 20 (" +
                                    std::to_string(first) + ")");

    // Untraced steps only, also in a traced run.
    if (opt_.workload == Phase::kTrain) SetOpLatency(report_, step_ms_);
    report_.Set("train_step_ms_p50", Quantile(step_ms_, 0.5), "ms");
    report_.Set("train_step_ms_p95", Quantile(step_ms_, 0.95), "ms");
    if (!opt_.trace) return;
    for (const char* name : {"train.forward", "train.backward", "train.clip",
                             "train.optimizer", "train.checkpoint",
                             "data.get_range"}) {
      report_.Set(std::string(name) + "_ms", Median(spans_.Durations(name)),
                  "ms");
    }
    report_.Set("tensor.allocs_per_step", Median(allocs_), "count");
    if (opt_.workload == Phase::kTrain) {
      report_.Set("tensor.peak_alloc_mb", Median(peak_mb_), "MB");
    }
    report_.Set("trace.step_coverage", Median(coverage_), "ratio");
    const double untraced = Median(paired_ms_);
    report_.Set("trace.overhead_pct",
                100.0 * (Median(traced_ms_) - untraced) / untraced, "%");
  }

 private:
  void Enter() { ThreadPool::Global().SetNumThreads(g_.threads); }

  void Save() {
    progress_.global_step = static_cast<int64_t>(losses_.size());
    const Status st = checkpoints_->Save(*model_, *adam_, progress_);
    report_.Check(st.ok(), "train: checkpoint save failed: " + st.ToString());
  }

  // One optimizer step. A traced step records a span around each layer
  // call; the untraced steps of a traced slice are the overhead baseline.
  void Step(bool traced, bool traced_slice) {
    spans_.set_enabled(traced);
    if (traced) ResetAllocPeak();
    const AllocStats before = GetAllocStats();
    const int step_span = traced ? spans_.Begin("train.step") : -1;

    data::Batch batch;
    {
      ScopedSpan s(spans_, "data.get_range");
      batch = splits_.train.GetRange(
          rng_.UniformInt(splits_.train.size() - g_.batch + 1), g_.batch);
    }
    const auto start = Clock::now();
    Tensor loss;
    {
      ScopedSpan s(spans_, "train.forward");
      loss = model_->Loss(batch);
    }
    {
      ScopedSpan s(spans_, "train.backward");
      loss.Backward();
    }
    {
      ScopedSpan s(spans_, "train.clip");
      train::ClipGradNorm(params_, kClipNorm);
    }
    {
      ScopedSpan s(spans_, "train.optimizer");
      adam_->Step();
      adam_->ZeroGrad();
    }
    const double ms = MsSince(start);
    const float value = loss.item();
    if (!std::isfinite(value)) ++nonfinite_;
    losses_.push_back(value);
    if (losses_.size() % kCheckpointEvery == 0) {
      ScopedSpan s(spans_, "train.checkpoint");
      Save();
    }
    if (step_span >= 0) {
      spans_.End(step_span);
      const SpanLog::Span& s = spans_.spans()[step_span];
      coverage_.push_back(static_cast<double>(s.child_ns) /
                          static_cast<double>(s.end_ns - s.start_ns));
      const AllocStats after = GetAllocStats();
      allocs_.push_back(static_cast<double>(after.total_allocs));
      peak_mb_.push_back((after.peak_bytes - before.current_bytes) /
                         1048576.0);
    }
    spans_.set_enabled(false);
    if (!traced) step_ms_.push_back(ms);
    if (traced_slice) (traced ? traced_ms_ : paired_ms_).push_back(ms);
  }

  static inline int instances_ = 0;  // Names each instance's directory.
  const Options& opt_;
  SpanLog& spans_;
  Report& report_;
  const Geometry g_;
  const data::TimeSeries series_;
  const data::DatasetSplits splits_;
  Rng rng_;
  const std::string dir_;
  std::unique_ptr<models::Forecaster> model_;
  std::vector<Tensor> params_;
  std::unique_ptr<train::Adam> adam_;
  std::unique_ptr<train::CheckpointManager> checkpoints_;
  train::TrainProgress progress_;
  std::vector<double> losses_, step_ms_, traced_ms_, paired_ms_, allocs_,
      peak_mb_, coverage_;
  int64_t nonfinite_ = 0;
};

class ForecastPhase : public PhaseRunner {
 public:
  ForecastPhase(const Options& opt, Report& report)
      : report_(report),
        named_(opt.workload == Phase::kForecast),
        g_(GeometryFor(Phase::kForecast)) {
    const data::TimeSeries series =
        data::MakeDataset("etth1", kDataScale, opt.seed).value();
    const data::DatasetSplits splits = data::MakeSplits(series, g_.window);
    // Full batches only, so every Predict has the same geometry; the seed
    // picks where in the test split the first batch starts.
    const int64_t num_batches = splits.test.size() / g_.batch;
    Rng rng(opt.seed * 104729 + 3);
    const int64_t offset =
        rng.UniformInt(splits.test.size() - num_batches * g_.batch + 1);
    for (int64_t i = 0; i < num_batches; ++i) {
      batches_.push_back(splits.test.GetRange(offset + i * g_.batch, g_.batch));
    }
    probe_ = rng.UniformInt(num_batches);
    config_.window = g_.window;
    config_.dims = series.dims();
    config_.hyper = g_.hyper;
  }

  // Only this phase predicts on the main thread, so after the pool is
  // emptied here no other phase's buffer sizes reach it.
  void SetUp() override {
    Enter();
    session_.reset();
    ClearBufferPool();
    session_ = serve::InferenceSession::Open(config_, "").value();
    session_->Predict(batches_[0]);  // Warm-up.
  }

  void RunSlice(double seconds, bool /*traced*/) override {
    Enter();
    const auto start = Clock::now();
    do {
      const auto t = Clock::now();
      const serve::Forecast out =
          session_->Predict(batches_[predicts_ % batches_.size()]);
      predict_ms_.push_back(MsSince(t));
      if (predicts_ < static_cast<int64_t>(batches_.size())) {
        const float* p = out.point.data();
        for (int64_t i = 0; i < out.point.numel(); ++i) {
          finite_ = finite_ && std::isfinite(p[i]);
        }
      }
      ++predicts_;
    } while (MsSince(start) < seconds * 1e3);
    seconds_ += MsSince(start) * 1e-3;
  }

  // Session output must be bitwise equal to the model's own eval Forward.
  void Finish() override {
    Enter();
    const data::Batch& probe = batches_[probe_];
    const Tensor served = session_->Predict(probe).point;
    Tensor direct;
    {
      NoGradGuard no_grad;
      direct = session_->model().Forward(probe);
    }
    const bool same =
        served.shape() == direct.shape() &&
        std::memcmp(served.data(), direct.data(),
                    sizeof(float) * served.numel()) == 0;
    report_.Check(same,
                  "forecast_batch: session output differs from eval Forward");
    report_.Check(finite_, "forecast_batch: non-finite forecast");
    report_.attempted += predicts_ + 1;
    report_.failed += same ? 0 : 1;
    if (named_) SetOpLatency(report_, predict_ms_);
    report_.Set("forecast_series_per_s",
                static_cast<double>(predicts_ * g_.batch) / seconds_, "1/s");
  }

 private:
  void Enter() { ThreadPool::Global().SetNumThreads(g_.threads); }

  Report& report_;
  const bool named_;
  const Geometry g_;
  std::vector<data::Batch> batches_;
  int64_t probe_ = 0;
  serve::SessionConfig config_;
  std::unique_ptr<serve::InferenceSession> session_;
  int64_t predicts_ = 0;
  std::vector<double> predict_ms_;
  double seconds_ = 0.0;
  bool finite_ = true;
};

}  // namespace

std::unique_ptr<PhaseRunner> MakeTrainPhase(const Options& opt,
                                            SpanLog& spans, Report& report) {
  return std::make_unique<TrainPhase>(opt, spans, report);
}

std::unique_ptr<PhaseRunner> MakeForecastPhase(const Options& opt,
                                               Report& report) {
  return std::make_unique<ForecastPhase>(opt, report);
}

}  // namespace perfbench
