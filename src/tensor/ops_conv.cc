#include <algorithm>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/profiler.h"

namespace conformer {

namespace {

// Applies padding to [B, C, L] input according to `mode`.
Tensor PadInput(const Tensor& input, int64_t padding, PadMode mode) {
  if (padding == 0) return input;
  switch (mode) {
    case PadMode::kZeros:
      return Pad(input, /*dim=*/2, padding, padding, 0.0f);
    case PadMode::kReplicate:
      return ReplicatePad(input, /*dim=*/2, padding, padding);
    case PadMode::kCircular: {
      const int64_t length = input.size(2);
      if (padding <= length) {
        Tensor head = Slice(input, 2, length - padding, length);
        Tensor tail = Slice(input, 2, 0, padding);
        return Concat({head, input, tail}, 2);
      }
      // Pad wider than the input: the periodic extension is whole-tile
      // repeats plus a remainder slice on each side — any width is legal,
      // where this used to CHECK-abort (reachable from model config).
      const int64_t reps = padding / length;
      const int64_t rem = padding % length;
      Tensor tiles = Tile(input, {1, 1, reps});
      std::vector<Tensor> parts;
      if (rem > 0) parts.push_back(Slice(input, 2, length - rem, length));
      parts.push_back(tiles);
      parts.push_back(input);
      parts.push_back(tiles);
      if (rem > 0) parts.push_back(Slice(input, 2, 0, rem));
      return Concat(parts, 2);
    }
  }
  CONFORMER_CHECK(false) << "unreachable";
  return input;
}

}  // namespace

Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding, PadMode mode, int64_t dilation,
              int64_t stride) {
  CONFORMER_PROFILE_SCOPE("conv1d");
  CONFORMER_CHECK(input.defined() && weight.defined());
  CONFORMER_CHECK_EQ(input.dim(), 3) << "Conv1d input must be [B, Cin, L]";
  CONFORMER_CHECK_EQ(weight.dim(), 3) << "Conv1d weight must be [Cout, Cin, K]";
  CONFORMER_CHECK_GE(dilation, 1);
  CONFORMER_CHECK_GE(stride, 1);
  const int64_t cin = input.size(1);
  CONFORMER_CHECK_EQ(weight.size(1), cin) << "Conv1d channel mismatch";

  const Tensor padded = PadInput(input, padding, mode);
  const int64_t batch = padded.size(0);
  const int64_t length = padded.size(2);
  const int64_t cout = weight.size(0);
  const int64_t kernel = weight.size(2);
  const int64_t span = (kernel - 1) * dilation + 1;  // effective kernel
  const int64_t out_len = (length - span) / stride + 1;
  CONFORMER_CHECK_GT(out_len, 0) << "Conv1d kernel longer than padded input";

  // im2col: columns [B, out_len, Cin*K]; then out = columns x W^T.
  // Built from differentiable primitives so the backward pass is free.
  std::vector<Tensor> taps;
  taps.reserve(kernel);
  for (int64_t k = 0; k < kernel; ++k) {
    // [B, Cin, out_len] strided window starting at dilated offset k. At
    // stride 1 this is the same [k*d, k*d + out_len) slice as before, so
    // existing call sites stay bitwise unchanged.
    taps.push_back(Slice(padded, 2, k * dilation,
                         k * dilation + (out_len - 1) * stride + 1, stride));
  }
  // [B, Cin, K, out_len] -> [B, out_len, Cin, K] -> [B, out_len, Cin*K]
  Tensor stacked = StackTensors(taps, /*dim=*/2);
  Tensor columns = Reshape(Permute(stacked, {0, 3, 1, 2}),
                           {batch, out_len, cin * kernel});
  // weight [Cout, Cin, K] -> [Cin*K, Cout]
  Tensor wmat = Transpose(Reshape(weight, {cout, cin * kernel}), 0, 1);
  Tensor out = MatMul(columns, wmat);  // [B, out_len, Cout]
  if (bias.defined()) {
    CONFORMER_CHECK_EQ(bias.numel(), cout);
    out = Add(out, Reshape(bias, {1, 1, cout}));
  }
  return Permute(out, {0, 2, 1});  // [B, Cout, out_len]
}

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding_h, int64_t padding_w) {
  CONFORMER_PROFILE_SCOPE("conv2d");
  CONFORMER_CHECK(input.defined() && weight.defined());
  CONFORMER_CHECK_EQ(input.dim(), 4) << "Conv2d input must be [B, Cin, H, W]";
  CONFORMER_CHECK_EQ(weight.dim(), 4)
      << "Conv2d weight must be [Cout, Cin, Kh, Kw]";
  CONFORMER_CHECK_GE(padding_h, 0);
  CONFORMER_CHECK_GE(padding_w, 0);
  const int64_t cin = input.size(1);
  CONFORMER_CHECK_EQ(weight.size(1), cin) << "Conv2d channel mismatch";

  Tensor padded = input;
  if (padding_h > 0) padded = Pad(padded, /*dim=*/2, padding_h, padding_h);
  if (padding_w > 0) padded = Pad(padded, /*dim=*/3, padding_w, padding_w);
  const int64_t batch = padded.size(0);
  const int64_t height = padded.size(2);
  const int64_t width = padded.size(3);
  const int64_t cout = weight.size(0);
  const int64_t kh = weight.size(2);
  const int64_t kw = weight.size(3);
  const int64_t out_h = height - kh + 1;
  const int64_t out_w = width - kw + 1;
  CONFORMER_CHECK(out_h > 0 && out_w > 0)
      << "Conv2d kernel larger than padded input";

  // im2col from differentiable primitives, exactly like Conv1d: one tap per
  // (i, j) kernel offset, stacked in the weight's (Cin, Kh, Kw) memory
  // order so a single MatMul against the reshaped weight applies the whole
  // kernel. Autograd, capture instrumentation, and the ParallelFor / SIMD
  // determinism contracts are all inherited from the primitives.
  std::vector<Tensor> taps;
  taps.reserve(kh * kw);
  for (int64_t i = 0; i < kh; ++i) {
    for (int64_t j = 0; j < kw; ++j) {
      // [B, Cin, out_h, out_w] window at offset (i, j).
      taps.push_back(
          Slice(Slice(padded, 2, i, i + out_h), 3, j, j + out_w));
    }
  }
  // [B, Cin, Kh*Kw, out_h, out_w] -> [B, out_h, out_w, Cin, Kh*Kw]
  Tensor stacked = StackTensors(taps, /*dim=*/2);
  Tensor columns = Reshape(Permute(stacked, {0, 3, 4, 1, 2}),
                           {batch, out_h * out_w, cin * kh * kw});
  // weight [Cout, Cin, Kh, Kw] -> [Cin*Kh*Kw, Cout]
  Tensor wmat = Transpose(Reshape(weight, {cout, cin * kh * kw}), 0, 1);
  Tensor out = MatMul(columns, wmat);  // [B, out_h*out_w, Cout]
  if (bias.defined()) {
    CONFORMER_CHECK_EQ(bias.numel(), cout);
    out = Add(out, Reshape(bias, {1, 1, cout}));
  }
  return Permute(Reshape(out, {batch, out_h, out_w, cout}), {0, 3, 1, 2});
}

Tensor AvgPool1d(const Tensor& input, int64_t kernel, int64_t stride) {
  CONFORMER_PROFILE_SCOPE("avg_pool1d");
  CONFORMER_CHECK(input.defined());
  CONFORMER_CHECK_GE(input.dim(), 1);
  CONFORMER_CHECK(kernel >= 1 && stride >= 1);
  const int64_t rank = input.dim();
  const int64_t length = input.size(rank - 1);
  CONFORMER_CHECK_GE(length, kernel) << "AvgPool1d window longer than input";
  const int64_t out_len = (length - kernel) / stride + 1;

  int64_t outer = 1;
  for (int64_t i = 0; i < rank - 1; ++i) outer *= input.size(i);

  Shape out_shape = input.shape();
  out_shape[rank - 1] = out_len;
  std::vector<float> out(outer * out_len);
  const float inv_k = 1.0f / static_cast<float>(kernel);
  // Each outer index owns disjoint input/output rows in both directions
  // (windows may overlap within a row, never across rows).
  const int64_t pool_grain = std::max<int64_t>(
      1, kernels::kGrainStrided / std::max<int64_t>(1, out_len * kernel));
  auto forward = [outer, length, out_len, kernel, stride, inv_k,
                  pool_grain](const float* ad, float* dst) {
    ParallelFor(0, outer, pool_grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        const float* row = ad + o * length;
        if (stride == 1) {
          // Stride-1 windows (the SIRN moving-average decomposition):
          // dispatched SIMD kernel, vectorized across outputs with the same
          // sequential per-output accumulation over the window — bitwise
          // identical to the scalar loop below.
          vec::MovingAvgN(row, out_len, kernel, inv_k, dst + o * out_len);
          continue;
        }
        for (int64_t j = 0; j < out_len; ++j) {
          float acc = 0.0f;
          const float* window = row + j * stride;
          for (int64_t k = 0; k < kernel; ++k) acc += window[k];
          dst[o * out_len + j] = acc * inv_k;
        }
      }
    });
  };
  forward(input.data(), out.data());

  Tensor a_in = input;
  auto backward = [a_in, outer, length, out_len, kernel, stride, inv_k,
                   pool_grain](TensorImpl& self) mutable {
    std::vector<float> delta(a_in.numel(), 0.0f);
    const float* gd = self.grad.data();
    ParallelFor(0, outer, pool_grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        float* row = delta.data() + o * length;
        for (int64_t j = 0; j < out_len; ++j) {
          const float g = gd[o * out_len + j] * inv_k;
          float* window = row + j * stride;
          for (int64_t k = 0; k < kernel; ++k) window[k] += g;
        }
      }
    });
    a_in.impl()->AccumulateGrad(delta.data(), a_in.numel());
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {input}, std::move(backward),
                                         "AvgPool1d");
  internal::MaybeCaptureStep(
      result, {input},
      {"AvgPool1d", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor MaxPool1d(const Tensor& input, int64_t kernel, int64_t stride) {
  CONFORMER_PROFILE_SCOPE("max_pool1d");
  CONFORMER_CHECK(input.defined());
  CONFORMER_CHECK_GE(input.dim(), 1);
  CONFORMER_CHECK(kernel >= 1 && stride >= 1);
  const int64_t rank = input.dim();
  const int64_t length = input.size(rank - 1);
  CONFORMER_CHECK_GE(length, kernel) << "MaxPool1d window longer than input";
  const int64_t out_len = (length - kernel) / stride + 1;

  int64_t outer = 1;
  for (int64_t i = 0; i < rank - 1; ++i) outer *= input.size(i);

  Shape out_shape = input.shape();
  out_shape[rank - 1] = out_len;
  std::vector<float> out(outer * out_len);
  std::vector<int64_t> argmax(outer * out_len);
  const int64_t pool_grain = std::max<int64_t>(
      1, kernels::kGrainStrided / std::max<int64_t>(1, out_len * kernel));
  auto forward = [outer, length, out_len, kernel, stride,
                  pool_grain](const float* ad, float* dst, int64_t* arg_out) {
    ParallelFor(0, outer, pool_grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        const float* row = ad + o * length;
        for (int64_t j = 0; j < out_len; ++j) {
          const int64_t start = j * stride;
          float best = row[start];
          int64_t arg = start;
          for (int64_t k = 1; k < kernel; ++k) {
            if (row[start + k] > best) {
              best = row[start + k];
              arg = start + k;
            }
          }
          dst[o * out_len + j] = best;
          arg_out[o * out_len + j] = arg;
        }
      }
    });
  };
  forward(input.data(), out.data(), argmax.data());

  Tensor a_in = input;
  auto backward = [a_in, argmax, outer, length, out_len,
                   pool_grain](TensorImpl& self) mutable {
    std::vector<float> delta(a_in.numel(), 0.0f);
    const float* gd = self.grad.data();
    // argmax indices stay within their own row, so rows scatter disjointly.
    ParallelFor(0, outer, pool_grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        for (int64_t j = 0; j < out_len; ++j) {
          delta[o * length + argmax[o * out_len + j]] += gd[o * out_len + j];
        }
      }
    });
    a_in.impl()->AccumulateGrad(delta.data(), a_in.numel());
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {input}, std::move(backward),
                                         "MaxPool1d");
  internal::MaybeCaptureStep(
      result, {input},
      {"MaxPool1d", /*zero_init=*/false, /*inplace_safe=*/false}, [&] {
        return [forward, scratch = outer * out_len](const float* const* in,
                                                    float* o) {
          std::vector<int64_t> arg(scratch);
          forward(in[0], o, arg.data());
        };
      });
  return result;
}

Tensor Cumsum(const Tensor& a, int64_t dim) {
  CONFORMER_PROFILE_SCOPE("cumsum");
  CONFORMER_CHECK(a.defined());
  const Shape& shape = a.shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const int64_t n = shape[dim];
  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= shape[i];
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= shape[i];

  std::vector<float> out(a.numel());
  // Parallel over (outer, inner) scan lanes; each lane's running sum stays
  // sequential, so the result is thread-count independent.
  const int64_t lane_grain = std::max<int64_t>(
      1, kernels::kGrainStrided / std::max<int64_t>(1, n));
  auto forward = [outer, inner, n, lane_grain](const float* ad, float* dst) {
    ParallelFor(0, outer * inner, lane_grain, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t o = r / inner;
        const int64_t i = r % inner;
        float acc = 0.0f;
        for (int64_t j = 0; j < n; ++j) {
          acc += ad[(o * n + j) * inner + i];
          dst[(o * n + j) * inner + i] = acc;
        }
      }
    });
  };
  forward(a.data(), out.data());

  Tensor a_in = a;
  auto backward = [a_in, outer, inner, n, lane_grain](TensorImpl& self) mutable {
    // d/dx_j sum contributions: reverse cumulative sum of the out-grad.
    std::vector<float> delta(a_in.numel());
    const float* gd = self.grad.data();
    ParallelFor(0, outer * inner, lane_grain, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t o = r / inner;
        const int64_t i = r % inner;
        float acc = 0.0f;
        for (int64_t j = n - 1; j >= 0; --j) {
          acc += gd[(o * n + j) * inner + i];
          delta[(o * n + j) * inner + i] = acc;
        }
      }
    });
    a_in.impl()->AccumulateGrad(delta.data(), a_in.numel());
  };
  Tensor result = internal::MakeOpResult(a.shape(), std::move(out), {a},
                                         std::move(backward), "Cumsum");
  internal::MaybeCaptureStep(
      result, {a}, {"Cumsum", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

}  // namespace conformer
