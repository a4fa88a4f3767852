"""Declarative definitions of the primitive tensor operations.

Each primitive is a ``(forward, vjp)`` pair of pure functions over numpy
arrays, registered by name in the backend op registry
(:mod:`repro.backend.registry`).  ``Tensor`` methods dispatch through
``registry.apply`` so every tape record carries the op name — the graph is
inspectable and each rule below is testable in isolation via
``get_op(name)`` without constructing tensors.

Conventions:

* ``forward(ctx, *arrays, **kwargs)`` returns the result array and stashes
  whatever the backward pass needs via ``ctx.save(...)``;
* ``vjp(ctx, grad)`` returns one cotangent per input (``None`` to skip);
  broadcast reduction is handled downstream by ``Tensor._accumulate``.
"""

from __future__ import annotations

import numpy as np

from repro.backend.policy import default_dtype
from repro.backend.registry import register_op
from repro.exceptions import ShapeError

# --------------------------------------------------------------------------- #
# arithmetic
# --------------------------------------------------------------------------- #


def _add_forward(ctx, a, b):
    return a + b


def _add_vjp(ctx, grad):
    return grad, grad


register_op("add", _add_forward, _add_vjp, doc="elementwise a + b")


def _neg_forward(ctx, a):
    return -a


def _neg_vjp(ctx, grad):
    return (-grad,)


register_op("neg", _neg_forward, _neg_vjp, doc="elementwise -a")


def _sub_forward(ctx, a, b):
    return a - b


def _sub_vjp(ctx, grad):
    return grad, -grad


register_op("sub", _sub_forward, _sub_vjp, doc="elementwise a - b")


def _mul_forward(ctx, a, b):
    ctx.save(a, b)
    return a * b


def _mul_vjp(ctx, grad):
    a, b = ctx.saved
    return grad * b, grad * a


register_op("mul", _mul_forward, _mul_vjp, doc="elementwise a * b")


def _div_forward(ctx, a, b):
    ctx.save(a, b)
    return a / b


def _div_vjp(ctx, grad):
    a, b = ctx.saved
    grad_a = grad / b if ctx.needs_input_grad[0] else None
    grad_b = -grad * a / (b**2) if ctx.needs_input_grad[1] else None
    return grad_a, grad_b


register_op("div", _div_forward, _div_vjp, doc="elementwise a / b")


def _pow_forward(ctx, a, *, exponent):
    ctx.save(a, exponent)
    return a**exponent


def _pow_vjp(ctx, grad):
    a, exponent = ctx.saved
    return (grad * exponent * a ** (exponent - 1.0),)


register_op("pow", _pow_forward, _pow_vjp, doc="elementwise a ** c for scalar c")


def _matmul_forward(ctx, a, b):
    ctx.save(a, b)
    return a @ b


def _matmul_vjp(ctx, grad):
    a, b = ctx.saved
    return _matmul_grads(a, b, grad, *ctx.needs_input_grad)


def _matmul_grads(a, b, grad, need_a, need_b):
    if a.ndim == 2 and b.ndim == 2:
        return (
            grad @ b.T if need_a else None,
            a.T @ grad if need_b else None,
        )
    if a.ndim == 1 and b.ndim == 2:
        return (
            grad @ b.T if need_a else None,
            np.outer(a, grad) if need_b else None,
        )
    if a.ndim == 2 and b.ndim == 1:
        return (
            np.outer(grad, b) if need_a else None,
            a.T @ grad if need_b else None,
        )
    if a.ndim == 1 and b.ndim == 1:
        return (
            grad * b if need_a else None,
            grad * a if need_b else None,
        )
    raise ShapeError(  # pragma: no cover - not used by the library
        f"matmul backward unsupported for shapes {a.shape} @ {b.shape}"
    )


register_op("matmul", _matmul_forward, _matmul_vjp, doc="matrix product a @ b")

# --------------------------------------------------------------------------- #
# elementwise non-linearities
# --------------------------------------------------------------------------- #


def _exp_forward(ctx, a):
    out = np.exp(a)
    ctx.save(out)
    return out


def _exp_vjp(ctx, grad):
    (out,) = ctx.saved
    return (grad * out,)


register_op("exp", _exp_forward, _exp_vjp, doc="elementwise exponential")


def _log_forward(ctx, a):
    ctx.save(a)
    return np.log(a)


def _log_vjp(ctx, grad):
    (a,) = ctx.saved
    return (grad / a,)


register_op("log", _log_forward, _log_vjp, doc="elementwise natural log")


def _sqrt_forward(ctx, a):
    out = np.sqrt(a)
    ctx.save(out)
    return out


def _sqrt_vjp(ctx, grad):
    (out,) = ctx.saved
    return (grad * 0.5 / np.maximum(out, 1e-300),)


register_op("sqrt", _sqrt_forward, _sqrt_vjp, doc="elementwise square root")


def _relu_forward(ctx, a):
    mask = a > 0
    ctx.save(mask)
    return a * mask


def _relu_vjp(ctx, grad):
    (mask,) = ctx.saved
    return (grad * mask,)


register_op("relu", _relu_forward, _relu_vjp, doc="rectified linear unit")


def _sigmoid_forward(ctx, a):
    out = 1.0 / (1.0 + np.exp(-a))
    ctx.save(out)
    return out


def _sigmoid_vjp(ctx, grad):
    (out,) = ctx.saved
    return (grad * out * (1.0 - out),)


register_op("sigmoid", _sigmoid_forward, _sigmoid_vjp, doc="logistic sigmoid")


def _tanh_forward(ctx, a):
    out = np.tanh(a)
    ctx.save(out)
    return out


def _tanh_vjp(ctx, grad):
    (out,) = ctx.saved
    return (grad * (1.0 - out**2),)


register_op("tanh", _tanh_forward, _tanh_vjp, doc="hyperbolic tangent")


def _clamp_min_forward(ctx, a, *, minimum):
    mask = a > minimum
    ctx.save(mask)
    return np.maximum(a, minimum)


def _clamp_min_vjp(ctx, grad):
    (mask,) = ctx.saved
    return (grad * mask,)


register_op(
    "clamp_min", _clamp_min_forward, _clamp_min_vjp,
    doc="elementwise max(a, minimum) with sub-gradient 0 where clipped",
)


def _abs_forward(ctx, a):
    ctx.save(np.sign(a))
    return np.abs(a)


def _abs_vjp(ctx, grad):
    (sign,) = ctx.saved
    return (grad * sign,)


register_op("abs", _abs_forward, _abs_vjp, doc="elementwise absolute value")

# --------------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------------- #


def _sum_forward(ctx, a, *, axis=None, keepdims=False):
    ctx.save(a.shape, axis, keepdims)
    return a.sum(axis=axis, keepdims=keepdims)


def _sum_vjp(ctx, grad):
    shape, axis, keepdims = ctx.saved
    grad = np.asarray(grad)
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return (np.broadcast_to(grad, shape),)


register_op("sum", _sum_forward, _sum_vjp, doc="sum reduction over axis")


def _max_forward(ctx, a, *, axis=None, keepdims=False):
    out = a.max(axis=axis, keepdims=keepdims)
    ctx.save(a, out, axis, keepdims)
    return out


def _max_vjp(ctx, grad):
    a, out, axis, keepdims = ctx.saved
    grad = np.asarray(grad)
    if axis is None:
        mask = (a == out).astype(a.dtype)
        mask /= mask.sum()
        return (mask * grad,)
    expanded_max = a.max(axis=axis, keepdims=True)
    mask = (a == expanded_max).astype(a.dtype)
    mask /= mask.sum(axis=axis, keepdims=True)
    if not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return (mask * grad,)


register_op(
    "max", _max_forward, _max_vjp,
    doc="max reduction (gradient split uniformly across ties)",
)

# --------------------------------------------------------------------------- #
# shape manipulation
# --------------------------------------------------------------------------- #


def _reshape_forward(ctx, a, *, shape):
    ctx.save(a.shape)
    return a.reshape(shape)


def _reshape_vjp(ctx, grad):
    (original,) = ctx.saved
    return (np.asarray(grad).reshape(original),)


register_op("reshape", _reshape_forward, _reshape_vjp, doc="view with a new shape")


def _transpose_forward(ctx, a, *, axes=None):
    ctx.save(tuple(np.argsort(axes)) if axes is not None else None)
    return np.transpose(a, axes)


def _transpose_vjp(ctx, grad):
    (inverse,) = ctx.saved
    return (np.transpose(np.asarray(grad), inverse),)


register_op("transpose", _transpose_forward, _transpose_vjp, doc="axis permutation")


def _getitem_forward(ctx, a, *, index):
    ctx.save(a.shape, a.dtype, index)
    return a[index]


def _getitem_vjp(ctx, grad):
    shape, dtype, index = ctx.saved
    full = np.zeros(shape, dtype=dtype)
    np.add.at(full, index, np.asarray(grad, dtype=dtype))
    return (full,)


register_op(
    "getitem", _getitem_forward, _getitem_vjp,
    doc="basic/fancy indexing (gradient scattered with np.add.at)",
)

# --------------------------------------------------------------------------- #
# variadic ops
# --------------------------------------------------------------------------- #


def _concatenate_forward(ctx, *arrays, axis=0):
    sizes = [array.shape[axis] for array in arrays]
    ctx.save(np.cumsum([0] + sizes), axis)
    return np.concatenate(arrays, axis=axis)


def _concatenate_vjp(ctx, grad):
    offsets, axis = ctx.saved
    grad = np.asarray(grad)
    pieces = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        slicer = [slice(None)] * grad.ndim
        slicer[axis] = slice(int(start), int(stop))
        pieces.append(grad[tuple(slicer)])
    return tuple(pieces)


register_op(
    "concatenate", _concatenate_forward, _concatenate_vjp,
    doc="concatenation along an existing axis",
)


def _stack_forward(ctx, *arrays, axis=0):
    ctx.save(len(arrays), axis)
    return np.stack(arrays, axis=axis)


def _stack_vjp(ctx, grad):
    count, axis = ctx.saved
    pieces = np.split(np.asarray(grad), count, axis=axis)
    return tuple(np.squeeze(piece, axis=axis) for piece in pieces)


register_op("stack", _stack_forward, _stack_vjp, doc="stacking along a new axis")

# --------------------------------------------------------------------------- #
# fused backbone layers
# --------------------------------------------------------------------------- #
#
# One tape record per layer instead of one per primitive.  Each forward repeats
# the numpy calls, constants and dtypes of the primitive composition it
# replaces, and each vjp replays that composition's reverse pass node by node:
# the same expressions, the same per-node dtype casts ``Tensor._accumulate``
# applies, and the same accumulation order where a node receives several
# cotangents.  Results are therefore bit-identical to the composition's.  The
# input cotangent is handed over as one sum, which matches the composition
# whenever the layer's input has no other consumer (as in ``build_mlp``).


def _cast(grad, dtype):
    """``np.asarray(grad, dtype=dtype)``, the cast ``Tensor._accumulate`` applies."""
    return grad if grad.dtype == dtype else grad.astype(dtype)


def _linear_forward(ctx, x, weight, bias=None):
    product = x @ weight
    ctx.save(x, weight, product.dtype)
    return product if bias is None else product + bias


def _linear_vjp(ctx, grad):
    x, weight, product_dtype = ctx.saved
    need_x, need_weight = ctx.needs_input_grad[:2]
    grad_x, grad_weight = _matmul_grads(
        x, weight, _cast(grad, product_dtype), need_x, need_weight
    )
    return grad_x, grad_weight, grad


register_op(
    "linear", _linear_forward, _linear_vjp,
    doc="fully connected layer x @ weight (+ bias)",
)


def _batch_norm_train_forward(ctx, x, gamma, beta, *, epsilon, statistics):
    dtype = default_dtype()
    inv_count = np.asarray(1.0 / x.shape[0], dtype=dtype)
    total = x.sum(axis=0, keepdims=True)
    mean = total * inv_count
    centred = x - mean
    squared = centred * centred
    squares = squared.sum(axis=0, keepdims=True)
    variance = squares * inv_count
    shifted = variance + np.asarray(epsilon, dtype=dtype)
    std = np.sqrt(shifted)
    normalised = centred / std
    scaled = normalised * gamma
    statistics.extend((mean, variance))
    dtypes = (scaled.dtype, normalised.dtype, std.dtype, shifted.dtype, variance.dtype,
              squares.dtype, centred.dtype, mean.dtype, total.dtype, x.dtype)
    ctx.save(centred, std, normalised, gamma, inv_count, dtypes)
    return scaled + beta


def _batch_norm_train_vjp(ctx, grad):
    centred, std, normalised, gamma, inv_count, dtypes = ctx.saved
    (scaled_t, normalised_t, std_t, shifted_t, variance_t,
     squares_t, centred_t, mean_t, total_t, x_t) = dtypes
    need_x, need_gamma = ctx.needs_input_grad[:2]
    grad_scaled = _cast(grad, scaled_t)
    grad_gamma = grad_scaled * normalised if need_gamma else None
    grad_x = None
    if need_x:
        grad_normalised = _cast(grad_scaled * gamma, normalised_t)
        grad_centred = _cast(grad_normalised / std, centred_t)
        grad_std = _cast(-grad_normalised * centred / (std**2), std_t).sum(axis=(0,), keepdims=True)
        grad_shifted = _cast(grad_std * 0.5 / np.maximum(std, 1e-300), shifted_t)
        grad_squares = _cast(_cast(grad_shifted, variance_t) * inv_count, squares_t)
        # mul(centred, centred) hands centred two equal cotangents, after div's.
        square_term = _cast(grad_squares * centred, centred_t)
        grad_centred = grad_centred + square_term + square_term
        grad_mean = _cast(-grad_centred, mean_t).sum(axis=(0,), keepdims=True)
        grad_total = _cast(grad_mean * inv_count, total_t)
        grad_x = _cast(grad_centred, x_t) + _cast(grad_total, x_t)
    return grad_x, grad_gamma, grad


register_op(
    "batch_norm_train", _batch_norm_train_forward, _batch_norm_train_vjp,
    doc="batch normalisation over batch statistics; appends (mean, variance) "
        "to the `statistics` list",
)


def _batch_norm_eval_forward(ctx, x, gamma, beta, *, running_mean, running_var, epsilon):
    dtype = default_dtype()
    mean = np.asarray(running_mean.reshape(1, -1), dtype=dtype)
    variance = np.asarray(running_var.reshape(1, -1), dtype=dtype)
    centred = x - mean
    std = np.sqrt(variance + np.asarray(epsilon, dtype=dtype))
    normalised = centred / std
    centred_t = centred.dtype
    del centred  # free it before the next full-size result, as the composition did
    scaled = normalised * gamma
    ctx.save(std, normalised, gamma, (scaled.dtype, normalised.dtype, centred_t, x.dtype))
    return scaled + beta


def _batch_norm_eval_vjp(ctx, grad):
    std, normalised, gamma, (scaled_t, normalised_t, centred_t, x_t) = ctx.saved
    need_x, need_gamma = ctx.needs_input_grad[:2]
    grad_scaled = _cast(grad, scaled_t)
    grad_gamma = grad_scaled * normalised if need_gamma else None
    grad_x = None
    if need_x:
        grad_normalised = _cast(grad_scaled * gamma, normalised_t)
        grad_x = _cast(_cast(grad_normalised / std, centred_t), x_t)
    return grad_x, grad_gamma, grad


register_op(
    "batch_norm_eval", _batch_norm_eval_forward, _batch_norm_eval_vjp,
    doc="batch normalisation over tracked running statistics",
)
