// Trace-capture hooks for the static inference runtime; see
// docs/STATIC_RUNTIME.md.
//
// While a CaptureSink is installed on the calling thread, every primitive op
// reports itself right after it executes eagerly: its output tensor, its
// input tensors, and a replay closure that re-runs the exact same kernel
// call over raw pointers. The runtime's tracer turns that stream into a
// flat, ahead-of-time-planned step list that replays a Predict() with zero
// per-op dispatch.
//
// The hooks are deliberately one TLS load on the eager fast path: the replay
// closure (and its std::function allocation) is only materialized when a
// sink is active.

#ifndef CONFORMER_TENSOR_CAPTURE_H_
#define CONFORMER_TENSOR_CAPTURE_H_

#include <functional>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace conformer::internal {

/// Replay closure for one captured primitive op: reads the op's inputs
/// through `in` (one pointer per recorded input, in recording order) and
/// writes the output through `out`. Every other parameter — shapes, strides,
/// indices, scalars — is captured by value when the closure is built, so the
/// closure is immutable, reentrant, and shareable across threads.
using ReplayFn = std::function<void(const float* const* in, float* out)>;

struct CaptureStepMeta {
  const char* op_name = "";
  /// Replay must zero the output region before invoking the closure (ops
  /// that accumulate into their zero-filled eager output vector, e.g. Sum).
  bool zero_init = false;
  /// The closure writes out[i] reading in[0] only at the same flat index i
  /// within the same loop iteration — safe to run with out == in[0]. This
  /// is what permits in-place fusion of elementwise chains onto their
  /// producer's buffer.
  bool inplace_safe = false;
};

/// \brief Observes op construction on the calling thread while a trace is
/// active. Implemented by runtime::Tracer; the tensor layer only talks to
/// this interface so it never depends on src/runtime.
class CaptureSink {
 public:
  virtual ~CaptureSink() = default;

  /// One primitive op: `out = fn(inputs)` has already run eagerly; `fn`
  /// reproduces it bitwise over raw pointers.
  virtual void RecordStep(const Tensor& out, const std::vector<Tensor>& inputs,
                          ReplayFn fn, const CaptureStepMeta& meta) = 0;

  /// `out` holds exactly the bytes of `src` (Reshape / Detach / Clone):
  /// replay elides the copy and reads the producer's buffer directly.
  virtual void RecordAlias(const Tensor& out, const Tensor& src,
                           const char* op_name) = 0;

  /// An opaque composite with data-dependent host control flow (top-k
  /// selection, hashing, FFT lag picking): replay re-runs `fn` eagerly on
  /// tensors materialized from the planned input buffers. `fn` must be
  /// deterministic given its inputs.
  virtual void RecordOpaque(
      const Tensor& out, const std::vector<Tensor>& inputs,
      std::function<Tensor(const std::vector<Tensor>&)> fn,
      const char* op_name) = 0;

  /// Every MakeOpResult reports its output here, before the op decides
  /// whether it also calls RecordStep. An output that is never upgraded to a
  /// step/alias came from an op without a replay closure — consuming it later
  /// must invalidate the trace instead of silently freezing its value.
  virtual void RecordRaw(const Tensor& out, const char* op_name) = 0;
};

/// The calling thread's active sink (null when not tracing).
CaptureSink* ActiveCaptureSink();

/// Installs `sink` on the calling thread; returns the previous sink.
CaptureSink* SwapCaptureSink(CaptureSink* sink);

/// \brief RAII: suspends capture on this thread. Opaque composites use it so
/// their internal ops are not recorded as individual steps.
class CaptureSuspendGuard {
 public:
  CaptureSuspendGuard() : previous_(SwapCaptureSink(nullptr)) {}
  ~CaptureSuspendGuard() { SwapCaptureSink(previous_); }
  CaptureSuspendGuard(const CaptureSuspendGuard&) = delete;
  CaptureSuspendGuard& operator=(const CaptureSuspendGuard&) = delete;

 private:
  CaptureSink* previous_;
};

/// Called by op implementations right after building `out`. `make_fn` is
/// only invoked (and the ReplayFn only allocated) under an active sink.
template <typename MakeFn>
inline void MaybeCaptureStep(const Tensor& out,
                             std::initializer_list<Tensor> inputs,
                             const CaptureStepMeta& meta, MakeFn&& make_fn) {
  if (CaptureSink* sink = ActiveCaptureSink()) {
    sink->RecordStep(out, std::vector<Tensor>(inputs), make_fn(), meta);
  }
}

/// Overload for ops with a dynamic input list (Concat).
template <typename MakeFn>
inline void MaybeCaptureStep(const Tensor& out,
                             const std::vector<Tensor>& inputs,
                             const CaptureStepMeta& meta, MakeFn&& make_fn) {
  if (CaptureSink* sink = ActiveCaptureSink()) {
    sink->RecordStep(out, inputs, make_fn(), meta);
  }
}

/// Notifies the sink (if any) that `out` aliases `src` byte-for-byte.
inline void MaybeCaptureAlias(const Tensor& out, const Tensor& src,
                              const char* op_name) {
  if (CaptureSink* sink = ActiveCaptureSink()) {
    sink->RecordAlias(out, src, op_name);
  }
}

/// Runs `fn(inputs)` as one opaque composite step. With no sink active this
/// is a plain call; under capture the internal ops are suspended and the
/// whole call is recorded as a single replayable unit. `fn` must be a pure
/// deterministic function of `inputs` (plus immutable captured state such as
/// module parameters and fixed seeds).
Tensor CaptureOpaque(const char* name, std::vector<Tensor> inputs,
                     std::function<Tensor(const std::vector<Tensor>&)> fn);

}  // namespace conformer::internal

#endif  // CONFORMER_TENSOR_CAPTURE_H_
