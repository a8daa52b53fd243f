#include <algorithm>

#include "tensor/capture.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace conformer {

Tensor Reshape(const Tensor& a, Shape shape) {
  CONFORMER_CHECK(a.defined());
  int64_t known = 1;
  int64_t infer = -1;
  for (int64_t i = 0; i < static_cast<int64_t>(shape.size()); ++i) {
    if (shape[i] == -1) {
      CONFORMER_CHECK_EQ(infer, -1) << "at most one -1 in reshape";
      infer = i;
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    CONFORMER_CHECK(known > 0 && a.numel() % known == 0)
        << "cannot infer reshape dim";
    shape[infer] = a.numel() / known;
  }
  CONFORMER_CHECK_EQ(NumElements(shape), a.numel())
      << "reshape " << ShapeToString(a.shape()) << " -> "
      << ShapeToString(shape);

  Tensor a_in = a;
  auto backward = [a_in](TensorImpl& self) mutable {
    a_in.impl()->AccumulateGrad(self.grad.data(),
                                static_cast<int64_t>(self.grad.size()));
  };
  Tensor result = internal::MakeOpResult(std::move(shape), a.impl()->data, {a},
                                         std::move(backward), "Reshape");
  // The eager path copies the data; replay elides the copy entirely: the
  // result is the same buffer viewed under a new shape.
  internal::MaybeCaptureAlias(result, a, "Reshape");
  return result;
}

Tensor Unsqueeze(const Tensor& a, int64_t dim) {
  Shape shape = a.shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank + 1;
  CONFORMER_CHECK(dim >= 0 && dim <= rank);
  shape.insert(shape.begin() + dim, 1);
  return Reshape(a, std::move(shape));
}

Tensor Squeeze(const Tensor& a, int64_t dim) {
  Shape shape = a.shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  CONFORMER_CHECK_EQ(shape[dim], 1) << "squeeze of non-singleton dim";
  shape.erase(shape.begin() + dim);
  return Reshape(a, std::move(shape));
}

Tensor Permute(const Tensor& a, std::vector<int64_t> perm) {
  CONFORMER_CHECK(a.defined());
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  CONFORMER_CHECK_EQ(static_cast<int64_t>(perm.size()), rank);
  std::vector<bool> seen(rank, false);
  Shape out_shape(rank);
  for (int64_t i = 0; i < rank; ++i) {
    int64_t p = perm[i];
    if (p < 0) p += rank;
    CONFORMER_CHECK(p >= 0 && p < rank && !seen[p]) << "invalid permutation";
    seen[p] = true;
    perm[i] = p;
    out_shape[i] = in_shape[p];
  }

  const std::vector<int64_t> in_strides = ContiguousStrides(in_shape);
  std::vector<int64_t> gather_strides(rank);  // stride in input per out dim
  for (int64_t i = 0; i < rank; ++i) gather_strides[i] = in_strides[perm[i]];

  const int64_t n = a.numel();
  std::vector<float> out(n);
  auto forward = [n, rank, gather_strides, out_shape](const float* ad,
                                                      float* dst) {
    std::vector<int64_t> index(rank, 0);
    int64_t in_off = 0;
    for (int64_t i = 0; i < n; ++i) {
      dst[i] = ad[in_off];
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++index[d];
        in_off += gather_strides[d];
        if (index[d] < out_shape[d]) break;
        index[d] = 0;
        in_off -= gather_strides[d] * out_shape[d];
      }
    }
  };
  forward(a.data(), out.data());

  Tensor a_in = a;
  auto backward = [a_in, gather_strides, out_shape, rank](TensorImpl& self) mutable {
    std::vector<float> delta(a_in.numel(), 0.0f);
    const float* gd = self.grad.data();
    std::vector<int64_t> index(rank, 0);
    int64_t in_off = 0;
    const int64_t n = static_cast<int64_t>(self.grad.size());
    for (int64_t i = 0; i < n; ++i) {
      delta[in_off] += gd[i];
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++index[d];
        in_off += gather_strides[d];
        if (index[d] < out_shape[d]) break;
        index[d] = 0;
        in_off -= gather_strides[d] * out_shape[d];
      }
    }
    a_in.impl()->AccumulateGrad(delta.data(), a_in.numel());
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {a}, std::move(backward), "Permute");
  internal::MaybeCaptureStep(
      result, {a}, {"Permute", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor Transpose(const Tensor& a, int64_t d0, int64_t d1) {
  const int64_t rank = a.dim();
  if (d0 < 0) d0 += rank;
  if (d1 < 0) d1 += rank;
  std::vector<int64_t> perm(rank);
  for (int64_t i = 0; i < rank; ++i) perm[i] = i;
  std::swap(perm[d0], perm[d1]);
  return Permute(a, std::move(perm));
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end,
             int64_t step) {
  CONFORMER_CHECK(a.defined());
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);
  const int64_t size = in_shape[dim];
  if (start < 0) start += size;
  if (end < 0) end += size;
  start = std::clamp<int64_t>(start, 0, size);
  end = std::clamp<int64_t>(end, 0, size);
  CONFORMER_CHECK_GT(step, 0) << "slice step must be positive";
  const int64_t count = end > start ? (end - start + step - 1) / step : 0;
  CONFORMER_CHECK_GT(count, 0) << "empty slice [" << start << ", " << end
                               << ") of dim " << dim;

  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= in_shape[i];
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= in_shape[i];

  Shape out_shape = in_shape;
  out_shape[dim] = count;
  std::vector<float> out(NumElements(out_shape));
  auto forward = [outer, inner, size, start, step, count](const float* ad,
                                                          float* dst_base) {
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t c = 0; c < count; ++c) {
        const int64_t src = o * size * inner + (start + c * step) * inner;
        const int64_t dst = o * count * inner + c * inner;
        std::copy(ad + src, ad + src + inner, dst_base + dst);
      }
    }
  };
  forward(a.data(), out.data());

  Tensor a_in = a;
  auto backward = [a_in, outer, inner, size, start, step,
                   count](TensorImpl& self) mutable {
    std::vector<float> delta(a_in.numel(), 0.0f);
    const float* gd = self.grad.data();
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t c = 0; c < count; ++c) {
        const int64_t dst = o * size * inner + (start + c * step) * inner;
        const int64_t src = o * count * inner + c * inner;
        for (int64_t i = 0; i < inner; ++i) delta[dst + i] += gd[src + i];
      }
    }
    a_in.impl()->AccumulateGrad(delta.data(), a_in.numel());
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         {a}, std::move(backward), "Slice");
  internal::MaybeCaptureStep(
      result, {a}, {"Slice", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] {
        return [forward](const float* const* in, float* o) {
          forward(in[0], o);
        };
      });
  return result;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t dim) {
  CONFORMER_CHECK(!parts.empty()) << "Concat of zero tensors";
  const Shape& first = parts[0].shape();
  const int64_t rank = static_cast<int64_t>(first.size());
  if (dim < 0) dim += rank;
  CONFORMER_CHECK(dim >= 0 && dim < rank);

  int64_t total = 0;
  for (const Tensor& t : parts) {
    CONFORMER_CHECK_EQ(t.dim(), rank);
    for (int64_t i = 0; i < rank; ++i) {
      if (i != dim) {
        CONFORMER_CHECK_EQ(t.shape()[i], first[i])
            << "Concat shape mismatch in dim " << i;
      }
    }
    total += t.shape()[dim];
  }

  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= first[i];
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= first[i];

  Shape out_shape = first;
  out_shape[dim] = total;
  std::vector<float> out(NumElements(out_shape));
  std::vector<int64_t> sizes(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) sizes[p] = parts[p].shape()[dim];
  auto forward = [sizes, outer, inner, total](const float* const* in,
                                              float* dst) {
    int64_t offset = 0;  // running offset along `dim`
    for (size_t p = 0; p < sizes.size(); ++p) {
      const int64_t sz = sizes[p];
      const float* src = in[p];
      for (int64_t o = 0; o < outer; ++o) {
        std::copy(src + o * sz * inner, src + (o + 1) * sz * inner,
                  dst + o * total * inner + offset * inner);
      }
      offset += sz;
    }
  };
  {
    std::vector<const float*> srcs(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) srcs[p] = parts[p].data();
    forward(srcs.data(), out.data());
  }

  std::vector<Tensor> inputs = parts;
  auto backward = [inputs, sizes, outer, inner, total](TensorImpl& self) mutable {
    const float* gd = self.grad.data();
    int64_t offset = 0;
    for (size_t p = 0; p < inputs.size(); ++p) {
      const int64_t sz = sizes[p];
      Tensor& t = inputs[p];
      if (t.requires_grad() || t.impl()->node != nullptr) {
        std::vector<float> delta(t.numel());
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = gd + o * total * inner + offset * inner;
          std::copy(src, src + sz * inner, delta.begin() + o * sz * inner);
        }
        t.impl()->AccumulateGrad(delta.data(), t.numel());
      }
      offset += sz;
    }
  };
  Tensor result = internal::MakeOpResult(std::move(out_shape), std::move(out),
                                         parts, std::move(backward), "Concat");
  internal::MaybeCaptureStep(
      result, parts, {"Concat", /*zero_init=*/false, /*inplace_safe=*/false},
      [&] { return internal::ReplayFn(forward); });
  return result;
}

Tensor StackTensors(const std::vector<Tensor>& parts, int64_t dim) {
  CONFORMER_CHECK(!parts.empty());
  std::vector<Tensor> expanded;
  expanded.reserve(parts.size());
  for (const Tensor& t : parts) expanded.push_back(Unsqueeze(t, dim));
  return Concat(expanded, dim);
}

Tensor Pad(const Tensor& a, int64_t dim, int64_t before, int64_t after,
           float value) {
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK(before >= 0 && after >= 0);
  if (before == 0 && after == 0) return a;
  const Shape& in_shape = a.shape();
  const int64_t rank = static_cast<int64_t>(in_shape.size());
  if (dim < 0) dim += rank;
  Shape pad_shape = in_shape;
  std::vector<Tensor> parts;
  if (before > 0) {
    pad_shape[dim] = before;
    parts.push_back(Tensor::Full(pad_shape, value));
  }
  parts.push_back(a);
  if (after > 0) {
    pad_shape[dim] = after;
    parts.push_back(Tensor::Full(pad_shape, value));
  }
  return Concat(parts, dim);
}

Tensor ReplicatePad(const Tensor& a, int64_t dim, int64_t before, int64_t after) {
  CONFORMER_CHECK(a.defined());
  if (before == 0 && after == 0) return a;
  const int64_t size = a.size(dim);
  std::vector<Tensor> parts;
  if (before > 0) {
    Tensor head = Slice(a, dim, 0, 1);
    std::vector<int64_t> reps(a.dim(), 1);
    reps[dim < 0 ? dim + a.dim() : dim] = before;
    parts.push_back(Tile(head, reps));
  }
  parts.push_back(a);
  if (after > 0) {
    Tensor tail = Slice(a, dim, size - 1, size);
    std::vector<int64_t> reps(a.dim(), 1);
    reps[dim < 0 ? dim + a.dim() : dim] = after;
    parts.push_back(Tile(tail, reps));
  }
  return Concat(parts, dim);
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  CONFORMER_CHECK(a.defined());
  // Multiplying by ones both materializes the broadcast and reuses the
  // broadcast-aware gradient reduction of Mul.
  return Mul(a, Tensor::Ones(shape));
}

Tensor Flip(const Tensor& a, int64_t dim) {
  CONFORMER_CHECK(a.defined());
  const int64_t size = a.size(dim);
  std::vector<int64_t> reversed(size);
  for (int64_t i = 0; i < size; ++i) reversed[i] = size - 1 - i;
  const int64_t rank = a.dim();
  return IndexSelect(a, dim < 0 ? dim + rank : dim, reversed);
}

std::vector<Tensor> Split(const Tensor& a, int64_t dim, int64_t chunk) {
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK_GE(chunk, 1);
  const int64_t size = a.size(dim);
  CONFORMER_CHECK_EQ(size % chunk, 0)
      << "Split requires chunk " << chunk << " to divide dim size " << size;
  std::vector<Tensor> parts;
  parts.reserve(size / chunk);
  for (int64_t start = 0; start < size; start += chunk) {
    parts.push_back(Slice(a, dim, start, start + chunk));
  }
  return parts;
}

Tensor Tile(const Tensor& a, const std::vector<int64_t>& repeats) {
  CONFORMER_CHECK(a.defined());
  CONFORMER_CHECK_EQ(static_cast<int64_t>(repeats.size()), a.dim());
  Tensor out = a;
  for (int64_t d = 0; d < a.dim(); ++d) {
    CONFORMER_CHECK_GE(repeats[d], 1);
    if (repeats[d] == 1) continue;
    std::vector<Tensor> copies(repeats[d], out);
    out = Concat(copies, d);
  }
  return out;
}

}  // namespace conformer
