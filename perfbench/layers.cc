// Per-layer probes of the traced run. Every number here comes from timing a
// public entry point from outside the library, at the geometry and thread
// count of the run's workload: kernels, thread-pool fan-out, the Conformer
// layers rebuilt as standalone modules from the same config, the static
// runtime, and tensor allocation counts.

#include <algorithm>
#include <memory>

#include "attention/multi_head_attention.h"
#include "attention/sliding_window_attention.h"
#include "bench.h"
#include "core/conformer_model.h"
#include "core/input_representation.h"
#include "core/sirn.h"
#include "data/dataset_registry.h"
#include "fft/autocorrelation.h"
#include "flow/gaussian_head.h"
#include "flow/normalizing_flow.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "serve/inference_session.h"
#include "tensor/alloc_stats.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace conformer;

namespace {

// Median milliseconds of `fn` after one warm-up call, over at least
// `min_reps` calls and at least `min_ms` of wall time.
template <typename Fn>
double TimeMs(Fn&& fn, int min_reps = 10, double min_ms = 200.0) {
  fn();
  std::vector<double> ms;
  const auto start = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps || MsSince(start) < min_ms) {
    const auto t = Clock::now();
    fn();
    ms.push_back(MsSince(t));
  }
  return Median(ms);
}

// The Conformer forward of core/conformer_model.cc, rebuilt from standalone
// modules built from the same config so the benchmark can put a span
// around every layer call.
class LayerPipeline {
 public:
  LayerPipeline(const Geometry& g, int64_t dims) : g_(g) {
    const core::ConformerConfig c;  // Paper defaults for everything else.
    core::InputRepresentationConfig enc;
    enc.dims = dims;
    enc.length = g.window.input_len;
    enc.d_model = g.hyper.d_model;
    core::InputRepresentationConfig dec = enc;
    dec.length = g.window.label_len + g.window.pred_len;
    enc_input_ = std::make_shared<core::InputRepresentation>(enc);
    dec_input_ = std::make_shared<core::InputRepresentation>(dec);
    auto sirn = [&](int64_t rnn_layers) {
      core::SirnConfig s;
      s.d_model = g.hyper.d_model;
      s.n_heads = g.hyper.n_heads;
      s.window = c.window;
      s.eta = c.eta;
      s.ma_kernel = g.hyper.ma_kernel;
      s.rnn_layers = rnn_layers;
      s.dropout = g.hyper.dropout;
      return std::make_shared<core::Sirn>(s);
    };
    for (int64_t i = 0; i < c.enc_layers; ++i) {
      enc_layers_.push_back(sirn(c.enc_rnn_layers));
    }
    for (int64_t i = 0; i < c.dec_layers; ++i) {
      dec_layers_.push_back(sirn(c.dec_rnn_layers));
    }
    cross_ = std::make_shared<attention::MultiHeadAttention>(
        g.hyper.d_model, g.hyper.n_heads, attention::AttentionKind::kFull);
    cross_norm_ = std::make_shared<nn::LayerNorm>(g.hyper.d_model);
    out_proj_ = std::make_shared<nn::Linear>(g.hyper.d_model, dims);
    flow_ = std::make_shared<flow::NormalizingFlow>(g.hyper.d_model,
                                                    c.flow_transforms);
    flow_head_ = std::make_shared<flow::FlowOutputHead>(
        g.hyper.d_model, g.window.pred_len, dims);
  }

  void SetTraining(bool training) {
    for (nn::Module* m : modules()) m->SetTraining(training);
  }

  void Forward(const data::Batch& batch, SpanLog& spans) {
    ScopedSpan forward(spans, "core.forward");
    core::LayerOutput enc_last, dec_last;
    Tensor memory;
    {
      ScopedSpan s(spans, "core.encoder");
      Tensor h;
      {
        ScopedSpan ir(spans, "core.input_representation");
        h = enc_input_->Forward(batch.x, batch.x_mark);
      }
      for (const auto& layer : enc_layers_) {
        ScopedSpan l(spans, "core.sirn");
        enc_last = layer->Forward(h);
        h = enc_last.sequence;
      }
      memory = h;
    }
    {
      ScopedSpan s(spans, "core.decoder");
      const int64_t label = g_.window.label_len;
      const Tensor y_in = Concat(
          {Slice(batch.y, 1, 0, label),
           Tensor::Zeros({batch.y.size(0), g_.window.pred_len,
                          batch.y.size(2)})},
          1);
      Tensor h;
      {
        ScopedSpan ir(spans, "core.input_representation");
        h = dec_input_->Forward(y_in, batch.y_mark);
      }
      for (const auto& layer : dec_layers_) {
        ScopedSpan l(spans, "core.sirn");
        dec_last = layer->Forward(h);
        h = dec_last.sequence;
      }
      h = cross_norm_->Forward(Add(h, cross_->Forward(h, memory, memory)));
      out_proj_->Forward(h);
    }
    {
      ScopedSpan s(spans, "flow");
      Rng rng(1);
      const Tensor z = flow_->Forward(enc_last.hidden_first,
                                      dec_last.hidden_first,
                                      /*sample=*/false, &rng);
      flow_head_->Forward(z);
    }
    {
      ScopedSpan s(spans, "core.multivariate_correlation");
      enc_input_->MultivariateWeights(batch.x);
    }
  }

 private:
  std::vector<nn::Module*> modules() {
    std::vector<nn::Module*> all = {enc_input_.get(), dec_input_.get(),
                                    cross_.get(),     cross_norm_.get(),
                                    out_proj_.get(),  flow_.get(),
                                    flow_head_.get()};
    for (const auto& l : enc_layers_) all.push_back(l.get());
    for (const auto& l : dec_layers_) all.push_back(l.get());
    return all;
  }

  Geometry g_;
  std::shared_ptr<core::InputRepresentation> enc_input_, dec_input_;
  std::vector<std::shared_ptr<core::Sirn>> enc_layers_, dec_layers_;
  std::shared_ptr<attention::MultiHeadAttention> cross_;
  std::shared_ptr<nn::LayerNorm> cross_norm_;
  std::shared_ptr<nn::Linear> out_proj_;
  std::shared_ptr<flow::NormalizingFlow> flow_;
  std::shared_ptr<flow::FlowOutputHead> flow_head_;
};

// Sum of the durations of every span called `name` that starts inside
// each `parent` span, one value per parent.
std::vector<double> PerParent(const SpanLog& log, const std::string& parent,
                              const std::string& name, bool self) {
  std::vector<double> out;
  const auto& spans = log.spans();
  for (const SpanLog::Span& p : spans) {
    if (p.name != parent) continue;
    double sum = 0.0;
    for (const SpanLog::Span& s : spans) {
      if (s.name == name && s.start_ns >= p.start_ns && s.end_ns <= p.end_ns) {
        sum += self ? s.self_ms() : s.ms();
      }
    }
    out.push_back(sum);
  }
  return out;
}

void ProbeKernels(const Geometry& g, int64_t dims, Report& report) {
  NoGradGuard no_grad;
  Rng rng(3);
  const int64_t b = g.batch, l = g.window.input_len, d = g.hyper.d_model;
  const int64_t heads = g.hyper.n_heads;

  // A Linear projection over every position: [B*L, d] x [d, d].
  const Tensor a = Tensor::Randn({b * l, d}, &rng);
  const Tensor w = Tensor::Randn({d, d}, &rng);
  auto matmul = [&] { MatMul(a, w); };
  const double matmul_ms = TimeMs(matmul);
  report.Set("tensor.matmul_ms", matmul_ms, "ms");
  report.Set("tensor.matmul_gflops",
             2.0 * b * l * d * d / (matmul_ms * 1e-3) * 1e-9, "GFLOP/s");

  ThreadPool& pool = ThreadPool::Global();
  pool.SetNumThreads(4);
  const double t4 = TimeMs(matmul);
  pool.SetNumThreads(1);
  const double t1 = TimeMs(matmul);
  pool.SetNumThreads(g.threads);
  report.Set("tensor.matmul_t4_over_t1", t4 / t1, "ratio");

  // SIRN's seasonal convolution: [B, d, L], kernel 3, replicate padding.
  const Tensor x = Tensor::Randn({b, d, l}, &rng);
  const Tensor cw = Tensor::Randn({d, d, 3}, &rng);
  const Tensor cb = Tensor::Randn({d}, &rng);
  report.Set("tensor.conv1d_ms",
             TimeMs([&] { Conv1d(x, cw, cb, 1, PadMode::kReplicate); }), "ms");

  // SIRN's windowed attention over [B*heads, L, d/heads].
  const attention::SlidingWindowAttention swa(2);
  const Tensor q = Tensor::Randn({b * heads, l, d / heads}, &rng);
  report.Set("attention.sliding_window_ms",
             TimeMs([&] { swa.Forward(q, q, q, false); }), "ms");

  // The input representation's per-(batch, variable) auto-correlation.
  std::vector<double> series(static_cast<size_t>(b * dims * l));
  for (double& v : series) v = rng.Normal();
  report.Set("fft.autocorrelation_ms",
             TimeMs([&] { fft::AutoCorrelationBatch(series, b * dims, l); }),
             "ms");

  // An empty-body ParallelFor: pure dispatch and join cost.
  report.Set("util.thread_pool.fanout_us",
             1e3 * TimeMs([&] {
               pool.ParallelFor(0, 64, 1, [](int64_t, int64_t) {});
             }, 100, 50.0),
             "us");
}

}  // namespace

void RunLayerProbes(const Options& opt, SpanLog& spans, Report& report) {
  // The pool recycles buffers by size; the phases left other geometries'
  // buffers in this thread's pool.
  ClearBufferPool();
  const Geometry g = GeometryFor(opt.workload);
  ThreadPool::Global().SetNumThreads(g.threads);
  const data::TimeSeries series =
      data::MakeDataset("etth1", kDataScale, opt.seed).value();
  const data::DatasetSplits splits = data::MakeSplits(series, g.window);
  const data::Batch batch = splits.test.GetRange(0, g.batch);
  const int64_t dims = series.dims();

  // Slice of one timestep of a [16, 48, 48] input, then Backward.
  {
    Rng rng(5);
    Tensor x = Tensor::Randn({16, 48, 48}, &rng).set_requires_grad(true);
    int64_t t = 0;
    report.Set("tensor.slice_backward_us", 1e3 * TimeMs([&] {
                                             Sum(Slice(x, 1, t, t + 1))
                                                 .Backward();
                                             x.ZeroGrad();
                                             t = (t + 1) % 48;
                                           }, 50, 100.0),
               "us");
  }

  ProbeKernels(g, dims, report);

  // Standalone layers; the train workload runs them recording autograd in
  // training mode, the others in inference mode like a session does.
  {
    LayerPipeline pipeline(g, dims);
    const bool train = opt.workload == Phase::kTrain;
    pipeline.SetTraining(train);
    auto forward = [&] {
      if (train) {
        pipeline.Forward(batch, spans);
      } else {
        InferenceModeGuard inference;
        pipeline.Forward(batch, spans);
      }
    };
    forward();  // Warm-up, untraced.
    spans.set_enabled(true);
    const auto start = Clock::now();
    for (int i = 0; i < 5 || MsSince(start) < 300.0; ++i) forward();
    spans.set_enabled(false);
    auto per_forward = [&](const std::string& name, bool self) {
      return Median(PerParent(spans, "core.forward", name, self));
    };
    report.Set("core.input_representation_ms",
               per_forward("core.input_representation", false), "ms");
    report.Set("core.multivariate_correlation_ms",
               per_forward("core.multivariate_correlation", false), "ms");
    report.Set("core.sirn_ms", per_forward("core.sirn", false), "ms");
    report.Set("core.encoder_self_ms", per_forward("core.encoder", true),
               "ms");
    report.Set("core.decoder_self_ms", per_forward("core.decoder", true),
               "ms");
    report.Set("flow.ms", per_forward("flow", false), "ms");
  }

  serve::SessionConfig config;
  config.window = g.window;
  config.dims = dims;
  config.hyper = g.hyper;

  // Allocation counts of one default-session Predict.
  {
    std::unique_ptr<serve::InferenceSession> session =
        serve::InferenceSession::Open(config, "").value();
    session->Predict(batch);
    session->Predict(batch);
    ResetAllocPeak();
    const AllocStats before = GetAllocStats();
    session->Predict(batch);
    const AllocStats after = GetAllocStats();
    report.Set("tensor.allocs_per_predict",
               static_cast<double>(after.total_allocs), "count");
    if (opt.workload != Phase::kTrain) {
      report.Set("tensor.peak_alloc_mb",
                 (after.peak_bytes - before.current_bytes) / 1048576.0, "MB");
    }
  }

  // The static runtime: trace on the first Predict, replay afterwards.
  {
    config.use_static_plan = true;
    std::unique_ptr<serve::InferenceSession> session =
        serve::InferenceSession::Open(config, "").value();
    const auto start = Clock::now();
    session->Predict(batch);
    report.Set("runtime.trace_ms", MsSince(start), "ms");
    report.Set("runtime.replay_ms",
               TimeMs([&] { session->Predict(batch); }, 5, 200.0), "ms");
    const runtime::Plan* plan = session->plan_for(batch);
    report.Set("runtime.plan_steps",
               plan == nullptr ? 0.0 : static_cast<double>(plan->steps().size()),
               "count");
    report.Set("runtime.arena_mb",
               plan == nullptr ? 0.0 : plan->arena_numel() * 4.0 / 1048576.0,
               "MB");
  }
}

}  // namespace perfbench
