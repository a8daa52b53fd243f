#include <algorithm>
#include <cmath>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Softmax / LogSoftmax share the row iteration. `dim` is moved innermost by
// operating on (outer, n, inner) coordinates directly.
struct DimSplit {
  int64_t outer = 1;
  int64_t n = 1;
  int64_t inner = 1;
};

DimSplit SplitAt(const Shape& shape, int64_t dim) {
  DimSplit s;
  const int64_t rank = static_cast<int64_t>(shape.size());
  for (int64_t i = 0; i < dim; ++i) s.outer *= shape[i];
  s.n = shape[dim];
  for (int64_t i = dim + 1; i < rank; ++i) s.inner *= shape[i];
  return s;
}

// Runs `row_fn(base)` for every (outer, inner) row of the split in parallel;
// each row owns the disjoint offsets {base + j * inner}, so the per-row
// reduction order is sequential and the result thread-count independent.
template <typename RowFn>
void ParallelRows(const DimSplit& s, RowFn row_fn) {
  const int64_t rows = s.outer * s.inner;
  const int64_t grain =
      std::max<int64_t>(1, kernels::kGrainStrided / std::max<int64_t>(1, s.n));
  ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t o = r / s.inner;
      const int64_t i = r % s.inner;
      row_fn(o * s.n * s.inner + i);
    }
  });
}

}  // namespace

Tensor Softmax(const Tensor& a, int64_t dim) {
  CONFORMER_PROFILE_SCOPE("softmax");
  CONFORMER_CHECK(a.defined());
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const DimSplit s = SplitAt(a.shape(), dim);

  std::vector<float> out(a.numel());
  auto forward = [s](const float* ad, float* dst) {
    if (s.inner == 1) {
      // Contiguous rows: the dispatched SIMD row kernel (same max/exp/sum
      // algorithm with the fixed 8-bin fold; see docs/SIMD.md).
      ParallelRows(s, [&](int64_t base) {
        vec::SoftmaxRowN(ad + base, dst + base, s.n);
      });
      return;
    }
    ParallelRows(s, [&](int64_t base) {
      float mx = ad[base];
      for (int64_t j = 1; j < s.n; ++j) {
        mx = std::max(mx, ad[base + j * s.inner]);
      }
      float total = 0.0f;
      for (int64_t j = 0; j < s.n; ++j) {
        const float e = std::exp(ad[base + j * s.inner] - mx);
        dst[base + j * s.inner] = e;
        total += e;
      }
      const float inv = 1.0f / total;
      for (int64_t j = 0; j < s.n; ++j) dst[base + j * s.inner] *= inv;
    });
  };
  forward(a.data(), out.data());

  Tensor a_in = a;
  auto backward = [a_in, s](TensorImpl& self) mutable {
    // dx_j = y_j * (g_j - sum_k g_k y_k)
    std::vector<float> delta(a_in.numel());
    const float* gd = self.grad.data();
    const float* yd = self.data.data();
    ParallelRows(s, [&](int64_t base) {
      float dot = 0.0f;
      for (int64_t j = 0; j < s.n; ++j) {
        const int64_t off = base + j * s.inner;
        dot += gd[off] * yd[off];
      }
      for (int64_t j = 0; j < s.n; ++j) {
        const int64_t off = base + j * s.inner;
        delta[off] = yd[off] * (gd[off] - dot);
      }
    });
    a_in.impl()->AccumulateGrad(delta.data(), a_in.numel());
  };
  Tensor result = internal::MakeOpResult(a.shape(), std::move(out), {a},
                                         std::move(backward), "Softmax");
  internal::MaybeCaptureStep(
      result, {a}, {"Softmax", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor LogSoftmax(const Tensor& a, int64_t dim) {
  CONFORMER_PROFILE_SCOPE("log_softmax");
  CONFORMER_CHECK(a.defined());
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  const DimSplit s = SplitAt(a.shape(), dim);

  std::vector<float> out(a.numel());
  auto forward = [s](const float* ad, float* dst) {
    if (s.inner == 1) {
      ParallelRows(s, [&](int64_t base) {
        vec::LogSoftmaxRowN(ad + base, dst + base, s.n);
      });
      return;
    }
    ParallelRows(s, [&](int64_t base) {
      float mx = ad[base];
      for (int64_t j = 1; j < s.n; ++j) {
        mx = std::max(mx, ad[base + j * s.inner]);
      }
      float total = 0.0f;
      for (int64_t j = 0; j < s.n; ++j) {
        total += std::exp(ad[base + j * s.inner] - mx);
      }
      const float lse = mx + std::log(total);
      for (int64_t j = 0; j < s.n; ++j) {
        dst[base + j * s.inner] = ad[base + j * s.inner] - lse;
      }
    });
  };
  forward(a.data(), out.data());

  Tensor a_in = a;
  auto backward = [a_in, s](TensorImpl& self) mutable {
    // dx_j = g_j - softmax_j * sum_k g_k
    std::vector<float> delta(a_in.numel());
    const float* gd = self.grad.data();
    const float* yd = self.data.data();
    ParallelRows(s, [&](int64_t base) {
      float gsum = 0.0f;
      for (int64_t j = 0; j < s.n; ++j) gsum += gd[base + j * s.inner];
      for (int64_t j = 0; j < s.n; ++j) {
        const int64_t off = base + j * s.inner;
        delta[off] = gd[off] - std::exp(yd[off]) * gsum;
      }
    });
    a_in.impl()->AccumulateGrad(delta.data(), a_in.numel());
  };
  Tensor result = internal::MakeOpResult(a.shape(), std::move(out), {a},
                                         std::move(backward), "LogSoftmax");
  internal::MaybeCaptureStep(
      result, {a}, {"LogSoftmax", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor DropoutOp(const Tensor& a, float p, bool training, Rng* rng) {
  CONFORMER_PROFILE_SCOPE("dropout");
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK(p >= 0.0f && p < 1.0f) << "dropout p must be in [0, 1)";
  if (!training || p == 0.0f) return a;
  Rng& r = rng != nullptr ? *rng : GlobalRng();
  const float scale = 1.0f / (1.0f - p);
  std::vector<float> mask(a.numel());
  for (float& m : mask) m = r.Bernoulli(p) ? 0.0f : scale;
  Tensor mask_t = Tensor::FromVector(std::move(mask), a.shape());
  return Mul(a, mask_t);
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  CONFORMER_PROFILE_SCOPE("mse_loss");
  Tensor diff = Sub(pred, target.Detach());
  return Mean(Mul(diff, diff));
}

Tensor MaeLoss(const Tensor& pred, const Tensor& target) {
  CONFORMER_PROFILE_SCOPE("mae_loss");
  return Mean(Abs(Sub(pred, target.Detach())));
}

}  // namespace conformer
