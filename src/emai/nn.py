"""Dense-tensor computation graph with reverse-mode differentiation, plus a
fused graph-free forward/backward for the fixed-layout MLP.

Small by design: numpy arrays as storage, a handful of differentiable ops,
feedforward MLPs and an adaptive-moment optimizer. NaN/Inf is a hard error
(`NumericsError`), never a silent value. Where the guard runs:

- graph ops (`Tensor`, used by `grad_check` and `Mlp.forward`):
  every op result and every accumulated gradient;
- fused MLP (`Mlp.fused_forward`, used for training and Q inference): the
  input and every layer's pre-activation, before the activation overwrites
  it in place, so an overflow that a later ReLU would zero still raises;
- `Adam.step`: the flat gradient before any update, and the flat updated
  parameters; either raise names the first offending parameter's index.

The fused training step (`ctde.QLearner.td_train_step`) also checks the
mixer's ELU input and output and the loss; its parameter gradients are
checked by the optimizer step.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Sequence

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


class Scratch:
    """Reusable arrays for batch-sized intermediates, one per name.

    take(name, rows, *shape) returns a C-contiguous (rows, *shape) view of
    the array kept under `name`. That array is allocated on first use with
    room for max(rows, max_rows) rows of the shape asked for, and again only
    when a later take needs more, so a take with fewer rows or a narrower
    shape allocates nothing. A view stays valid until the next take of the
    same name, so such views never leave the function that owns them.
    """

    def __init__(self, max_rows: int):
        self.max_rows = int(max_rows)
        self._arrays: dict[tuple, np.ndarray] = {}

    def take(self, name: Hashable, *shape: int, dtype=np.float64) -> np.ndarray:
        size, row = math.prod(shape), math.prod(shape[1:])
        key = (name, np.dtype(dtype))
        flat = self._arrays.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(max(size, self.max_rows * row), dtype)
            self._arrays[key] = flat
        return flat[:size].reshape(shape)


class _Fresh(Scratch):
    """A Scratch whose every take is a new array: for one-off calls."""

    def __init__(self):
        super().__init__(0)

    def take(self, name: Hashable, *shape: int, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)


FRESH = _Fresh()


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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

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


def _scalar_err(t: Tensor):
    raise ShapeError(f"expected a scalar tensor, got shape {t.shape}")


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


# Activation arithmetic, shared by the graph ops and the fused MLP: forward
# f(z) and backward (g, y) -> dL/dz, for the incoming g = dL/dy and the
# output y = f(z). Both read y > 0, which holds exactly where z > 0. `out`
# may be g (backward) but not z (elu forward); masks and slopes go to `ws`.

def _relu_f(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _relu_b(g, y, out=None, ws: Scratch = FRESH):
    return np.multiply(g, np.greater(y, 0.0, out=ws.take("mask", *y.shape, dtype=bool)), out=out)


def _elu_f(z, out=None, ws: Scratch = FRESH):
    out = np.expm1(z, out=out)
    np.copyto(out, z, where=np.greater(z, 0.0, out=ws.take("mask", *z.shape, dtype=bool)))
    return out


def _elu_b(g, y, out=None, ws: Scratch = FRESH):
    slope = np.add(y, 1.0, out=ws.take("elu_slope", *y.shape))
    np.copyto(slope, 1.0, where=np.greater(y, 0.0, out=ws.take("mask", *y.shape, dtype=bool)))
    return np.multiply(g, slope, out=out)


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

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": relu,
    "identity": lambda t: t,
}

_FUSED_BACKWARD = {"relu": _relu_b, "identity": None}


class Mlp:
    """Fully connected net; per-layer activation in {relu, identity}."""

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

    def fused_forward(self, x: np.ndarray, ws: Scratch = FRESH,
                      key: Hashable = None) -> tuple[np.ndarray, tuple]:
        """Graph-free forward of a (B, in) batch -> (B, out), plus the cache
        for fused_backward: the layer inputs and the output, and `ws`.

        A stacked (B, r, in) input gives (B, r, out): each layer is one
        stacked matmul, which numpy computes block by block, so block b's
        rows round exactly as fused_forward(x[b]) would, whatever B is. (A
        flat (B * r, in) batch can round a row differently than an r-row
        one.) fused_backward takes the cache of a (B, in) forward only.

        Layer i's output is written into ws under (key, i), where it stays
        until the next forward with that key. key=None is for a forward
        whose cache is never used: its layers take turns on the ping-pong
        pair ("pp", 0)/("pp", 1), which fused_backward also writes. Same
        float ops as forward(). The input and every layer's pre-activation
        are checked finite (NumericsError) before the activation overwrites
        the pre-activation in place.
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.layer_sizes[0]:
            raise ShapeError(f"input shape {x.shape} vs expected (*, {self.layer_sizes[0]}) "
                             f"or (*, *, {self.layer_sizes[0]})")
        _check_finite(x, "MLP input")
        outs = [x]
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            name = ("pp", i % 2) if key is None else (key, i)
            z = np.matmul(x, w.data, out=ws.take(name, *x.shape[:-1], w.data.shape[1]))
            np.add(z, b.data, out=z)
            _check_finite(z, f"MLP layer {i} pre-activation")
            x = _relu_f(z, out=z) if act == "relu" else z
            outs.append(x)
        return x, (outs, ws)

    def fused_backward(self, cache: tuple[list, Scratch], d_out: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients, in params() order, for the upstream gradient
        d_out of fused_forward's output. The input's gradient is not formed.

        The gradients are new arrays. The layer gradients in between use the
        forward's Scratch: the ping-pong pair ("pp", 0)/("pp", 1), never
        d_out. Same float ops as Tensor.backward() through forward().
        """
        outs, ws = cache
        grads = [None] * (2 * len(self.weights))
        g = d_out
        for i in reversed(range(len(self.weights))):
            act_b = _FUSED_BACKWARD[self.activations[i]]
            if act_b is not None:
                dst = g if g is not d_out else ws.take(("pp", i % 2), *g.shape)
                g = act_b(g, outs[i + 1], out=dst, ws=ws)
            grads[2 * i] = outs[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            if i:
                w = self.weights[i].data
                g = np.matmul(g, w.T, out=ws.take(("pp", (i - 1) % 2), len(g), w.shape[0]))
        return grads

    def fused_input_grad(self, cache: tuple[list, Scratch], d_out: np.ndarray) -> np.ndarray:
        """The gradient of fused_forward's input for the upstream gradient
        d_out, checked finite; no parameter gradient is formed. Takes the
        cache of a forward whose layers did not share a Scratch array (as
        with FRESH). Same float ops as Tensor.backward() through forward()."""
        outs, _ = cache
        g = d_out
        for i in reversed(range(len(self.weights))):
            act_b = _FUSED_BACKWARD[self.activations[i]]
            if act_b is not None:
                g = act_b(g, outs[i + 1])
            g = np.matmul(g, self.weights[i].data.T)
        _check_finite(g, "MLP input gradient")
        return g

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
        """Overwrite the parameters in place from a to_doc() document of this
        architecture. Anything else raises ValueError: other keys, sizes
        that are not ints, or a param entry with another key set, name or
        shape, or whose values are not a list of finite JSON numbers."""
        check_keys(doc, _MLP_KEYS, "mlp")
        sizes, entries = doc["layer_sizes"], doc["params"]
        if ((sizes, doc["activations"]) != (self.layer_sizes, self.activations)
                or not _ints(sizes)):
            raise ShapeError(f"layers {sizes} {doc['activations']} vs "
                             f"expected {self.layer_sizes} {self.activations}")
        if type(entries) is not list or len(entries) != 2 * len(self.weights):
            raise ShapeError(f"mlp params must be a list of {2 * len(self.weights)} entries")
        for i, (p, entry) in enumerate(zip(self.params(), entries)):
            check_keys(entry, _PARAM_KEYS, "mlp param")
            name, shape, values = f"{'wb'[i % 2]}{i // 2}", list(p.data.shape), entry["values"]
            if (entry["name"], entry["shape"]) != (name, shape) or not _ints(entry["shape"]):
                raise ShapeError(f"param {entry['name']!r} of shape {entry['shape']} vs "
                                 f"expected {name!r} of shape {shape}")
            # one C-level pass over the types; json.loads makes no subclasses
            if type(values) is not list or not _NUMBERS.issuperset(map(type, values)):
                raise ValueError(f"param {name} values must be a list of numbers")
            a = np.array(values, dtype=np.float64).reshape(p.data.shape)
            if not np.isfinite(a).all():
                raise ValueError(f"param {name} values must be finite")
            np.copyto(p.data, a)  # in place: an optimizer's view stays bound


# ---- strict JSON documents: exact key sets, and a bool is no number ----

_MLP_KEYS = frozenset(("layer_sizes", "activations", "params"))
_PARAM_KEYS = frozenset(("name", "shape", "values"))
_NUMBERS = frozenset((int, float))


def _ints(v) -> bool:
    return type(v) is list and all(type(x) is int for x in v)


def check_keys(doc, keys: frozenset, what: str) -> None:
    """ValueError unless doc is a JSON object with exactly the keys `keys`."""
    if type(doc) is not dict or doc.keys() != keys:
        found = sorted(doc) if type(doc) is dict else type(doc).__name__
        raise ValueError(f"{what} keys {found} differ from the schema's {sorted(keys)}")


def int_fields(doc: dict, names: Sequence[str], what: str) -> list[int]:
    """doc's values under `names`; ValueError unless each is a JSON int."""
    values = [doc[k] for k in names]
    if not all(type(v) is int for v in values):
        raise ValueError(f"{what} {', '.join(names)} must be ints, got {values}")
    return values


# ---- optimizer ----

class Adam:
    """Adaptive-moment gradient descent on one flat vector.

    The parameter values, both moments and a gradient buffer are flat
    float64 arrays, and from construction on each param's .data is a view
    into the flat parameter vector (its values copied in), so a step is one
    pass of elementwise ops over every parameter. Each step copies every
    param's .grad, which the caller sets, into the gradient buffer; a missing
    one raises TypeError. Write new values into a param's .data in place: a
    param whose .data was rebound raises ValueError at the next step. A deep
    copy points the copied params at the copy's own flat vector.
    """

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
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params])
        size = int(self._bounds[-1])
        self._flat, self._grad = np.empty(size), np.empty(size)
        self._m, self._v = np.zeros(size), np.zeros(size)
        self._tmp = (np.empty(size), np.empty(size))
        self._bind()

    def _bind(self) -> None:
        """Copy each param's values into its segment of the flat vector and
        make its .data that segment."""
        for p, view in zip(self.params, self._segments(self._flat)):
            np.copyto(view, p.data)
            p.data = view
        self._grad_views = self._segments(self._grad)

    def _segments(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[lo:hi].reshape(p.data.shape)
                for p, lo, hi in zip(self.params, self._bounds[:-1], self._bounds[1:])]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_grad_views"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def _check(self, flat: np.ndarray, what: str) -> None:
        """NumericsError naming the first parameter whose segment of `flat`
        is not finite."""
        try:
            _check_finite(flat, what)
        except NumericsError:
            first = np.flatnonzero(~np.isfinite(flat))[0]
            i = int(np.searchsorted(self._bounds, first, side="right")) - 1
            raise NumericsError(f"non-finite values in {what} {i}") from None

    def step(self) -> None:
        for i, (p, g) in enumerate(zip(self.params, self._grad_views)):
            if p.data.base is not self._flat:
                raise ValueError(f"parameter {i} was rebound after the optimizer was built; "
                                 "write its new values into .data in place")
            np.copyto(g, p.grad)
        g, m, v, (a, b) = self._grad, self._m, self._v, self._tmp
        self._check(g, "gradient of parameter")
        b1, b2 = self.betas
        self.t += 1
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        np.add(np.multiply(m, b1, out=m), np.multiply(g, 1 - b1, out=a), out=m)
        np.multiply(np.multiply(g, 1 - b2, out=a), g, out=a)
        np.add(np.multiply(v, b2, out=v), a, out=v)
        # p = p - lr * (m / c1) / (sqrt(v / c2) + eps)
        np.multiply(np.divide(m, c1, out=a), self.lr, out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), self.eps, out=b)
        np.subtract(self._flat, np.divide(a, b, out=a), out=self._flat)
        self._check(self._flat, "updated parameter")


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
