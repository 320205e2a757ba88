"""Dense-tensor computation graph with reverse-mode differentiation, plus a
fused graph-free forward/backward for the fixed-layout MLP.

Small by design: numpy arrays as storage, a handful of differentiable ops,
feedforward MLPs and an adaptive-moment optimizer. NaN/Inf is a hard error
(`NumericsError`), never a silent value. Where the guard runs:

- graph ops (`Tensor`, used by the gradient explainer and `grad_check`):
  every op result and every accumulated gradient;
- fused MLP (`Mlp.fused_forward`, used for training and Q inference): the
  input and every layer's pre-activation, so an overflow that a later ReLU
  would zero still raises;
- `Adam.step`: every gradient and every updated parameter.

The fused training step (`ctde.QLearner.td_train_step`) also checks the
mixer's ELU input and output, the loss, and every parameter gradient before
the optimizer step.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


class NumericsError(RuntimeError):
    """A non-finite value (NaN or Inf) appeared in a tensor or gradient."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


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


def _check_finite(data: np.ndarray, what: str) -> None:
    if not np.isfinite(data).all():
        raise NumericsError(f"non-finite values in {what}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient contributions back down to the pre-broadcast shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # ---- basic introspection ----
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- graph construction ----
    def _accum(self, g: np.ndarray) -> None:
        _check_finite(g, "gradient")
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar; frees the graph afterwards."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node._parents = ()
                node._backward = None
                node.grad = None  # interior grads are not retained

    # ---- operators ----
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        return mul(self, other ** -1.0)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        return tsum(self, axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def relu(self):
        return relu(self)

    def elu(self):
        return elu(self)

    def abs(self):
        return tabs(self)

    def exp(self):
        return texp(self)

    def log(self):
        return tlog(self)


def _scalar_err(t: Tensor):
    raise ShapeError(f"expected a scalar tensor, got shape {t.shape}")


def _axis_count(shape: tuple[int, ...], axis) -> int:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    n = 1
    for a in axes:
        n *= shape[a]
    return n


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# ---- differentiable ops ----

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


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)
    e = float(exponent)
    data = a.data ** e

    def bw(g):
        if a.requires_grad:
            a._accum(g * e * a.data ** (e - 1.0))

    return _make(data, (a,), bw)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
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


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, tuple(ax % a.ndim for ax in axes))
        a._accum(np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accum(g.reshape(a.shape))

    return _make(data, (a,), bw)


# Activation arithmetic, shared by the graph ops and the fused MLP:
# forward f(z), and backward (g, z, f(z)) -> dL/dz for the incoming g = dL/df.

def _relu_f(z):
    return np.maximum(z, 0.0)


def _relu_b(g, z, out):
    return g * (z > 0.0)


def _elu_f(z):
    return np.where(z > 0.0, z, np.expm1(z))


def _elu_b(g, z, out):
    return g * np.where(z > 0.0, 1.0, out + 1.0)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = _relu_f(a.data)

    def bw(g):
        if a.requires_grad:
            a._accum(_relu_b(g, a.data, data))

    return _make(data, (a,), bw)


def elu(a) -> Tensor:
    a = _as_tensor(a)
    data = _elu_f(a.data)

    def bw(g):
        if a.requires_grad:
            a._accum(_elu_b(g, a.data, data))

    return _make(data, (a,), bw)


def tabs(a) -> Tensor:
    a = _as_tensor(a)
    data = np.abs(a.data)

    def bw(g):
        if a.requires_grad:
            a._accum(g * np.sign(a.data))

    return _make(data, (a,), bw)


def texp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)
    _check_finite(data, "exp")

    def bw(g):
        if a.requires_grad:
            a._accum(g * data)

    return _make(data, (a,), bw)


def tlog(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a.data)
    _check_finite(data, "log")

    def bw(g):
        if a.requires_grad:
            a._accum(g / a.data)

    return _make(data, (a,), bw)


# ---- MLP ----

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": relu,
    "elu": elu,
    "identity": lambda t: t,
}

_FUSED_ACTIVATIONS = {
    "relu": (_relu_f, _relu_b),
    "elu": (_elu_f, _elu_b),
    "identity": (lambda z: z, lambda g, z, out: g),
}


class Mlp:
    """Fully connected net; per-layer activation in {relu, elu, identity}."""

    def __init__(self, layer_sizes: Sequence[int], activations: Sequence[str],
                 rng: np.random.Generator | None = None):
        if len(activations) != len(layer_sizes) - 1:
            raise ShapeError(
                f"need {len(layer_sizes) - 1} activations for {len(layer_sizes)} layer sizes, "
                f"got {len(activations)}")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.activations = list(activations)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            if rng is None:
                w = np.zeros((fan_in, fan_out))
                b = np.zeros(fan_out)
            else:
                w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
                b = rng.uniform(-bound, bound, size=fan_out)
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(b, requires_grad=True))

    def forward(self, x) -> Tensor:
        x = _as_tensor(x)
        if x.shape[-1] != self.layer_sizes[0]:
            raise ShapeError(
                f"input last dim {x.shape} incompatible with first layer size "
                f"({self.layer_sizes[0]},)")
        if x.ndim == 1:
            x = reshape(x, (1, -1))
            squeeze = True
        else:
            squeeze = False
        for w, b, act in zip(self.weights, self.biases, self.activations):
            x = _ACTIVATIONS[act](matmul(x, w) + b)
        return reshape(x, (x.shape[-1],)) if squeeze and x.shape[0] == 1 else x

    __call__ = forward

    def fused_forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple[list, list]]:
        """Graph-free forward of a (B, in) batch -> (B, out) plus the cache
        for fused_backward: (layer inputs and the output, pre-activations).

        Same float ops as forward(). The input and every layer's
        pre-activation are checked finite (NumericsError).
        """
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ShapeError(f"input shape {x.shape} vs expected (*, {self.layer_sizes[0]})")
        _check_finite(x, "MLP input")
        outs, pres = [x], []
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            z = x @ w.data + b.data
            _check_finite(z, f"MLP layer {i} pre-activation")
            x = _FUSED_ACTIVATIONS[act][0](z)
            pres.append(z)
            outs.append(x)
        return x, (outs, pres)

    def fused_backward(self, cache: tuple[list, list], d_out: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients, in params() order, for the upstream gradient
        d_out of fused_forward's output. The input's gradient is not formed.

        Same float ops as Tensor.backward() through forward().
        """
        outs, pres = cache
        grads = [None] * (2 * len(pres))
        g = d_out
        for i in reversed(range(len(pres))):
            g = _FUSED_ACTIVATIONS[self.activations[i]][1](g, pres[i], outs[i + 1])
            grads[2 * i] = outs[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            if i:
                g = g @ self.weights[i].data.T
        return grads

    def params(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    # JSON checkpoint document; key names fixed by schemas/checkpoint_schema.json
    def to_doc(self) -> dict:
        params = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params.append({"name": f"w{i}", "shape": list(w.shape),
                           "values": [float(v) for v in w.data.reshape(-1)]})
            params.append({"name": f"b{i}", "shape": list(b.shape),
                           "values": [float(v) for v in b.data.reshape(-1)]})
        return {"layer_sizes": self.layer_sizes, "activations": self.activations,
                "params": params}

    def load_doc(self, doc: dict) -> None:
        """Overwrite the parameters from a to_doc() document of this architecture."""
        if (doc["layer_sizes"], doc["activations"]) != (self.layer_sizes, self.activations):
            raise ShapeError(f"layers {doc['layer_sizes']} {doc['activations']} vs "
                             f"expected {self.layer_sizes} {self.activations}")
        for p, entry in zip(self.params(), doc["params"], strict=True):
            a = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
            if a.shape != p.data.shape:
                raise ShapeError(f"param shape {p.data.shape} vs loaded {a.shape}")
            _check_finite(a, "loaded parameter")
            p.data = a


# ---- optimizer ----

class Adam:
    """Adaptive-moment gradient descent; params with grad=None are skipped."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 < betas[0] < 1 and 0 < betas[1] < 1):
            raise ValueError("moment decay coefficients must lie in (0, 1)")
        self.params = list(params)
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        b1, b2 = self.betas
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericsError("non-finite gradient in optimizer step")
            self._m[i] = b1 * self._m[i] + (1 - b1) * g
            self._v[i] = b2 * self._v[i] + (1 - b2) * g * g
            m_hat = self._m[i] / (1 - b1 ** self.t)
            v_hat = self._v[i] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            _check_finite(p.data, "updated parameter")


# ---- gradient verification ----

def grad_check(fn: Callable[[], Tensor], params: Sequence[Tensor],
               epsilon: float = 1e-4) -> float:
    """Max relative error of reverse-mode grads vs central finite differences.

    `fn` must rebuild and return the scalar loss from the current parameter
    values each time it is called; the numeric side never touches autodiff.
    """
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    def value() -> float:
        with no_grad():
            return fn().item()

    worst = fd_max_rel_error(value, params, analytic, epsilon)
    for p in params:
        p.zero_grad()
    return worst


def fd_max_rel_error(value_fn: Callable[[], float], params: Sequence[Tensor],
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
