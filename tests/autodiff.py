"""Reverse-mode autodiff on numpy: the reference that the fused kernels of
`emai.nn`, `emai.ctde` and `emai.explain` are pinned against, op for op.

`Tensor` extends the product's parameter type `nn.Tensor`, whose backward()
walks a graph, with the ops that build one and their operators. Parameters
of an `nn.Mlp` enter a graph as they are; `mlp_forward` runs the net's
layers through it. `grad_check` and `fd_max_rel_error` compare gradients
with central finite differences. Every op result and every accumulated
gradient is checked finite (NumericsError).

Not a test module: test files import it as `autodiff`.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from emai import nn
from emai.nn import ShapeError, _check_finite, _elu_b, _elu_f, _relu_b, _relu_f

_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient contributions back down to the pre-broadcast shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor(nn.Tensor):
    """A graph node with operators; ops take nn.Tensor parameters as they are."""

    __slots__ = ()

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: int | None = None):
        return tsum(self, axis)

    def mean(self):
        return tsum(self) * (1.0 / self.data.size)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def elu(self):
        return elu(self)

    def abs(self):
        return tabs(self)

    def exp(self):
        return texp(self)

    def log(self):
        return tlog(self)


def _scalar_err(t: nn.Tensor):
    raise ShapeError(f"expected a scalar tensor, got shape {t.shape}")


def _as_tensor(x) -> nn.Tensor:
    return x if isinstance(x, nn.Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[nn.Tensor, ...],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# ---- differentiable ops ----
# _make records an op's backward only if an operand requires grad, so a
# one-operand backward accumulates into its operand unconditionally.

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(data, (a, b), bw)


def tsum(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        a._accum(g.reshape(a.shape))

    return _make(data, (a,), bw)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = _relu_f(a.data)

    def bw(g):
        a._accum(_relu_b(g, data))

    return _make(data, (a,), bw)


def elu(a) -> Tensor:
    a = _as_tensor(a)
    data = _elu_f(a.data)

    def bw(g):
        a._accum(_elu_b(g, data))

    return _make(data, (a,), bw)


def tabs(a) -> Tensor:
    a = _as_tensor(a)
    data = np.abs(a.data)

    def bw(g):
        a._accum(g * np.sign(a.data))

    return _make(data, (a,), bw)


def texp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)
    _check_finite(data, "exp")

    def bw(g):
        a._accum(g * data)

    return _make(data, (a,), bw)


def tlog(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a.data)
    _check_finite(data, "log")

    def bw(g):
        a._accum(g / a.data)

    return _make(data, (a,), bw)


# ---- MLP ----

def mlp_forward(mlp: nn.Mlp, x) -> Tensor:
    """The graph of mlp's layers on x: (B, in) -> (B, out), and (in,) ->
    (out,). The same float ops as mlp.forward."""
    x = _as_tensor(x)
    if x.shape[-1] != mlp.layer_sizes[0]:
        raise ShapeError(
            f"input last dim {x.shape} incompatible with first layer size "
            f"({mlp.layer_sizes[0]},)")
    squeeze = x.data.ndim == 1
    if squeeze:
        x = reshape(x, (1, -1))
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
        x = matmul(x, w) + b
        if act == "relu":
            x = relu(x)
    return reshape(x, (x.shape[-1],)) if squeeze else x


# ---- gradient verification ----

def grad_check(fn: Callable[[], nn.Tensor], params: Sequence[nn.Tensor],
               epsilon: float = 1e-4) -> float:
    """Max relative error of reverse-mode grads vs central finite differences.

    `fn` must rebuild and return the scalar loss from the current parameter
    values each time it is called; the numeric side never touches autodiff.
    """
    for p in params:
        p.grad = None
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    def value() -> float:
        with no_grad():
            return fn().item()

    worst = fd_max_rel_error(value, params, analytic, epsilon)
    for p in params:
        p.grad = None
    return worst


def fd_max_rel_error(value_fn: Callable[[], float], params: Sequence[nn.Tensor],
                     analytic: Sequence[np.ndarray], epsilon: float = 1e-4) -> float:
    """Max relative error of `analytic` gradients (one array per parameter)
    vs central finite differences of value_fn(), which must recompute the
    loss from the current parameter values."""
    worst = 0.0
    for p, ana in zip(params, analytic, strict=True):
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            up = value_fn()
            flat[j] = orig - epsilon
            down = value_fn()
            flat[j] = orig
            numeric = (up - down) / (2.0 * epsilon)
            a = ana.reshape(-1)[j]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
