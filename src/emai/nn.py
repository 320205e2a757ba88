"""The fixed-layout MLP's graph-free forward and backward, its parameter
type, the activation and reduction kernels they share with the mixer, and an
adaptive-moment optimizer.

Small by design: numpy arrays as storage, feedforward MLPs whose forward,
backward and input gradient are fused kernels over a whole batch, and one
flat Adam. NaN/Inf is a hard error (`NumericsError`), never a silent value.
Where the guard runs:

- `Mlp.forward` (training and Q inference): the input and every layer's
  pre-activation, before the activation overwrites it in place, so an
  overflow that a later ReLU would zero still raises;
- `Tensor`: a parameter's values when it is built, and every accumulated
  gradient;
- `Adam.step`: the flat gradient before any update, and the flat updated
  parameters; either raise names the first offending parameter's index.

The fused training step (`ctde.QLearner.td_train_step`) also checks the
mixer's ELU input and output and the loss; its parameter gradients are
checked by the optimizer step. The reverse-mode graph that the kernels'
float ops are pinned against lives with the tests (`tests/autodiff.py`).
"""
from __future__ import annotations

import math
from typing import Callable, Hashable, Sequence

import numpy as np

from .config import check_keys, is_int_list, is_number_list


class NumericsError(RuntimeError):
    """A non-finite value (NaN or Inf) appeared in a tensor or gradient."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class Scratch:
    """Reusable arrays for batch-sized intermediates, one per name.

    take(name, rows, *shape) returns a C-contiguous (rows, *shape) view of
    the array kept under `name`. That array is allocated on first use with
    room for max(rows, max_rows) rows of the shape asked for, and again only
    when a later take needs more, so a take with fewer rows or a narrower
    shape allocates nothing. A view stays valid until the next take of the
    same name, or until a backward consumes the cache that holds it, so such
    views never leave the function that owns them.
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


class Tensor:
    """A parameter (.data, and the .grad a backward or its caller sets) and
    the node type of a reverse-mode graph: a node holds its parents and the
    function that sends its gradient on to them, and backward() walks the
    graph. No product code builds a graph; the tests' reference does."""

    # bench/tracing.py resolves Tensor.backward and Mlp.forward by name
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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


# Activation arithmetic, shared by the fused MLP and the mixer: forward
# f(z) and backward (g, y) -> dL/dz, for the incoming g = dL/dy and the
# output y = f(z) of a finite z. Each gives the bits of the textbook form
# (z where z > 0, else expm1(z); g * (1 where y > 0, else y + 1)) without a
# masked copy, whose random branches cost more than the arithmetic. `out`
# may be g (backward) but not z (elu forward); masks and slopes go to `ws`,
# the ELU's forward and backward sharing one float array.

def _relu_f(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _relu_mask(y, ws: Scratch = FRESH):
    return np.greater(y, 0.0, out=ws.take("mask", *y.shape, dtype=bool))


def _relu_b(g, y, out=None, ws: Scratch = FRESH):
    return np.multiply(g, _relu_mask(y, ws), out=out)


def _elu_f(z, out=None, ws: Scratch = FRESH):
    """expm1(z), then a bit-select on int64 views: out = ((out ^ z) & keep)
    ^ z, which is out where keep is all ones and z where it is zero. keep =
    (bits(z) - 1) >> 63 is all ones where bits(z) <= 0 as an int64, that is
    at +0.0 and every z < 0 but -0.0, whose bits wrap round to INT64_MAX;
    there z is taken, and it equals expm1(-0.0) = -0.0."""
    out = np.expm1(z, out=out)
    zi, oi = z.view(np.int64), out.view(np.int64)
    keep = np.subtract(zi, 1, out=ws.take("elu", *z.shape).view(np.int64))
    np.right_shift(keep, 63, out=keep)
    np.bitwise_xor(oi, zi, out=oi)
    np.bitwise_and(oi, keep, out=oi)
    np.bitwise_xor(oi, zi, out=oi)
    return out


def _elu_b(g, y, out=None, ws: Scratch = FRESH):
    """The slope is min(y + 1, 1): fl(y + 1) >= 1 for y > 0, and <= 1 else."""
    slope = np.add(y, 1.0, out=ws.take("elu", *y.shape))
    np.minimum(slope, 1.0, out=slope)
    return np.multiply(g, slope, out=out)


# Reductions over a short axis 1, as column ops in numpy's own order: below
# 8 entries, np.add.reduce adds ((0.0 + a[:, 0]) + a[:, 1]) + ... and
# np.maximum.reduce keeps maximum(acc, a[:, j]), so the bits (signed zeros
# included) are those of np.sum/np.max(a, axis=1), without a reduction's
# per-row cost. From 8 entries on, numpy sums pairwise; the reduction runs.

def _sum_axis1(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    if a.shape[1] >= 8:
        return np.sum(a, axis=1, out=out)
    np.add(a[:, 0], 0.0, out=out)
    for j in range(1, a.shape[1]):
        np.add(out, a[:, j], out=out)
    return out


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum of a's rows, bitwise np.sum over a contiguous axis of them, in
    numpy's pairwise order as whole-row ops that overwrite a: below 8 rows one
    by one; to 128, ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) of 8
    strided accumulators, then the rest one by one (pair by pair: numpy would
    copy a[1::2] in a[0::2] += a[1::2]); above, halves split at a multiple of 8."""
    n = len(a)
    if n > 128:
        out = _sum_rows(a[:n // 2 - n // 2 % 8])
        out += _sum_rows(a[n // 2 - n // 2 % 8:])
        return out
    tail = n - n % 8 if n >= 8 else 1
    for i in range(8, tail, 8):
        a[:8] += a[i:i + 8]
    if n >= 8:
        for j, k in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            a[j] += a[k]
    out = a[0]
    for row in a[tail:]:
        out += row
    out += 0.0  # numpy's sum starts from 0.0, so -0.0 sums to 0.0
    return out


def _max_axis1(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    if a.shape[1] >= 8:
        return np.max(a, axis=1, out=out)
    np.copyto(out, a[:, 0])
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


# ---- MLP ----

_ACTIVATIONS = ("relu", "identity")


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
            if rng is None:
                w = np.zeros((fan_in, fan_out))
                b = np.zeros(fan_out)
            else:
                bound = 1.0 / np.sqrt(fan_in)
                w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
                b = rng.uniform(-bound, bound, size=fan_out)
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(b, requires_grad=True))

    def forward(self, x: np.ndarray, ws: Scratch = FRESH,
                key: Hashable = "layer") -> tuple[np.ndarray, tuple]:
        """Graph-free forward of a (B, in) batch -> (B, out), plus the cache
        for backward: the layer inputs and the output, and `ws`.

        A stacked (B, r, in) input gives (B, r, out): each layer is one
        stacked matmul, which numpy computes block by block, so block b's
        rows round exactly as forward(x[b]) would, whatever B is. (A flat
        (B * r, in) batch can round a row differently than an r-row one.)
        backward takes the cache of a (B, in) forward only.

        Layer i's output is written into ws under (key, i), where it stays
        until the next forward with that key or until backward consumes
        it. On FRESH, np.matmul allocates each layer's output itself. Same
        float ops as the graph's matmul, add and relu. The input and every
        layer's pre-activation are checked finite (NumericsError) before
        the activation overwrites the pre-activation in place.
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.layer_sizes[0]:
            raise ShapeError(f"input shape {x.shape} vs expected (*, {self.layer_sizes[0]}) "
                             f"or (*, *, {self.layer_sizes[0]})")
        _check_finite(x, "MLP input")
        outs = [x]
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            out = None if ws is FRESH else ws.take((key, i), *x.shape[:-1], w.data.shape[1])
            z = np.matmul(x, w.data, out=out)
            np.add(z, b.data, out=z)
            _check_finite(z, f"MLP layer {i} pre-activation")
            x = _relu_f(z, out=z) if act == "relu" else z
            outs.append(x)
        return x, (outs, ws)

    def backward(self, cache: tuple[list, Scratch], d_out: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients, in params() order, for the upstream gradient
        d_out of forward's output. The input's gradient is not formed.

        The gradients are new arrays. The backward consumes its cache: once
        layer i's parameter gradients are formed, the gradient of its input
        is written over that input (a relu top layer's over the output), so
        a cache serves one backward. The input and d_out are never written.
        Same float ops as the graph's backward through the same layers.
        """
        outs, ws = cache
        grads = [None] * (2 * len(self.weights))
        g = d_out
        if self.activations[-1] == "relu":
            g = _relu_b(g, outs[-1], out=outs[-1], ws=ws)
        for i in reversed(range(len(self.weights))):
            grads[2 * i] = outs[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            if i:
                mask = _relu_mask(outs[i], ws) if self.activations[i - 1] == "relu" else None
                g = np.matmul(g, self.weights[i].data.T, out=outs[i])
                if mask is not None:
                    np.multiply(g, mask, out=g)
        return grads

    def input_grad(self, cache: tuple[list, Scratch], d_out: np.ndarray) -> np.ndarray:
        """The gradient of forward's input for the upstream gradient d_out,
        checked finite; no parameter gradient is formed. Takes the cache of
        a forward whose layers did not share a Scratch array (as with
        FRESH). Same float ops as the graph's backward through the same layers."""
        outs, _ = cache
        g = d_out
        for i in reversed(range(len(self.weights))):
            if self.activations[i] == "relu":
                g = _relu_b(g, outs[i + 1])
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
        architecture. Anything else raises ValueError: a document that
        doc_layer_sizes rejects, other sizes or activations, or param values
        that are not all finite JSON numbers."""
        sizes = doc_layer_sizes(doc)
        if (sizes, doc["activations"]) != (self.layer_sizes, self.activations):
            raise ShapeError(f"layers {sizes} {doc['activations']} vs "
                             f"expected {self.layer_sizes} {self.activations}")
        for p, entry in zip(self.params(), doc["params"]):
            name, values = entry["name"], entry["values"]
            if not is_number_list(values):
                raise ValueError(f"param {name} values must be a list of numbers")
            a = np.array(values, dtype=np.float64).reshape(p.data.shape)
            if not np.isfinite(a).all():
                raise ValueError(f"param {name} values must be finite")
            np.copyto(p.data, a)  # in place: an optimizer's view stays bound


def doc_layer_sizes(doc) -> list[int]:
    """The layer sizes of an Mlp.to_doc() document, checked against its param
    entries before any array is built. ValueError unless doc has to_doc's
    keys, the sizes are ints >= 0, and param entry i has to_doc's key set,
    name and shape for these sizes and a list of as many values as that
    shape holds. So an Mlp of these sizes holds as many numbers as the
    document does, whatever sizes it declares."""
    check_keys(doc, _MLP_KEYS, "mlp")
    sizes, entries = doc["layer_sizes"], doc["params"]
    if not is_int_list(sizes) or any(s < 0 for s in sizes):
        raise ShapeError(f"mlp layer sizes {sizes} must be a list of ints >= 0")
    shapes = [shape for fan_in, fan_out in zip(sizes, sizes[1:])
              for shape in ([fan_in, fan_out], [fan_out])]
    if type(entries) is not list or len(entries) != len(shapes):
        raise ShapeError(f"mlp params must be a list of {len(shapes)} entries")
    for i, (shape, entry) in enumerate(zip(shapes, entries)):
        check_keys(entry, _PARAM_KEYS, "mlp param")
        name, values = f"{'wb'[i % 2]}{i // 2}", entry["values"]
        if (entry["name"], entry["shape"]) != (name, shape) or not is_int_list(entry["shape"]):
            raise ShapeError(f"param {entry['name']!r} of shape {entry['shape']} vs "
                             f"expected {name!r} of shape {shape}")
        if type(values) is not list or len(values) != math.prod(shape):
            raise ShapeError(f"param {name} values must be a list of {math.prod(shape)} numbers")
    return sizes


# the key sets of an Mlp.to_doc() document and of its param entries
_MLP_KEYS = frozenset(("layer_sizes", "activations", "params"))
_PARAM_KEYS = frozenset(("name", "shape", "values"))


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
        if not 0 < lr < math.inf:
            raise ValueError(f"learning_rate must be > 0 and finite, got {lr}")
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

