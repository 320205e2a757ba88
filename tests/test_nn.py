"""Autodiff engine, MLP, optimizer and gradient-check tests."""
from __future__ import annotations

import copy

import numpy as np
import pytest

from emai import nn
from emai.config import DEFAULT_CONFIG
from emai.envs import make_env
from emai.nn import Adam, Mlp, NumericsError, ShapeError, Tensor, grad_check
from emai.rng import stream


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    y = x * x
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_relu_gradient_negative_input():
    x = Tensor(-1.0, requires_grad=True)
    nn.relu(x).backward()
    assert x.grad == 0.0


def test_relu_forward_values():
    out = nn.relu(Tensor([-2.0, 3.0]))
    assert out.numpy().tolist() == [0.0, 3.0]


def test_identity_net_is_identity():
    mlp = Mlp([3, 3], ["identity"], rng=None)
    mlp.weights[0].data = np.eye(3)
    x = np.array([[0.5, -1.0, 2.0]])
    assert np.array_equal(mlp.forward(Tensor(x)).numpy(), x)


def test_forward_deterministic_bitwise():
    rng = stream(5, "det")
    mlp = Mlp([4, 8, 2], ["relu", "identity"], rng)
    x = stream(6, "input").standard_normal((3, 4))
    a = mlp.forward(Tensor(x)).numpy()
    b = mlp.forward(Tensor(x)).numpy()
    assert np.array_equal(a, b)


def test_forward_shape_mismatch_diagnostic():
    mlp = Mlp([4, 2], ["identity"], rng=None)
    with pytest.raises(ShapeError) as err:
        mlp.forward(Tensor(np.zeros((3, 5))))
    assert "(3, 5)" in str(err.value) and "4" in str(err.value)


def test_backward_requires_scalar():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (t * 2.0).backward()


def test_non_finite_is_hard_error():
    with pytest.raises(NumericsError):
        Tensor([1.0, float("nan")])
    with pytest.raises(NumericsError):
        nn.tlog(Tensor([-1.0]))


def test_mlp_gradient_matches_finite_differences():
    rng = stream(0, "gcprop")
    mlp = Mlp([5, 12, 12, 1], ["relu", "relu", "identity"], rng)
    inp = rng.standard_normal((6, 5))

    def loss():
        out = mlp.forward(Tensor(inp))
        return (out * out).mean()

    assert grad_check(loss, mlp.params()) < 1e-4


def test_grad_check_quadratic_form():
    # independent oracle: grad of p^T A p is (A + A^T) p, checked via FD
    a = np.array([[2.0, 0.5], [0.1, 1.0]])
    p = Tensor(np.array([[0.7, -0.3]]), requires_grad=True)

    def loss():
        return (nn.matmul(nn.matmul(p, Tensor(a)), nn.reshape(p, (2, 1)))).sum()

    assert grad_check(loss, [p]) < 1e-6
    loss().backward()
    expected = ((a + a.T) @ np.array([0.7, -0.3])).reshape(1, 2)
    assert np.allclose(p.grad, expected)


def test_grad_check_constant_function():
    p = Tensor(np.ones(3), requires_grad=True)

    def loss():
        return (p * 0.0).sum()

    assert grad_check(loss, [p]) == 0.0


def test_broadcast_add_and_sum_axes():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    out = (a + b).sum()
    out.backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.full(3, 2.0))


def test_elu_matches_definition():
    x = np.array([-2.0, 0.0, 1.5])
    out = nn.elu(Tensor(x)).numpy()
    assert np.allclose(out, np.where(x > 0, x, np.expm1(x)))


def test_exp_log_softmax_gradient():
    q = Tensor(np.array([0.2, -0.4, 1.1]), requires_grad=True)

    def loss():
        z = (q - 1.1).exp().sum().log() + 1.1
        pick = np.array([0.0, 0.0, 1.0])
        return (q * Tensor(pick)).sum() - z

    assert grad_check(loss, [q]) < 1e-6


def test_optimizer_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_optimizer_converges_on_quadratic():
    # oracle: argmin of (x - 1.7)^2 is 1.7; adaptive steps are bounded by
    # roughly lr per iteration, so 500 steps comfortably cover the distance
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    for _ in range(500):
        p.zero_grad()
        diff = p - 1.7
        (diff * diff).sum().backward()
        opt.step()
    assert abs(p.data[0] - 1.7) < 1e-2


def test_optimizer_deterministic_trajectories():
    def run():
        rng = stream(9, "opt-det")
        mlp = Mlp([3, 6, 1], ["relu", "identity"], rng)
        opt = Adam(mlp.params(), lr=1e-3)
        x = stream(10, "opt-data").standard_normal((4, 3))
        for _ in range(20):
            for p in mlp.params():
                p.zero_grad()
            out = mlp.forward(Tensor(x))
            (out * out).mean().backward()
            opt.step()
        return np.concatenate([p.data.reshape(-1) for p in mlp.params()])

    assert np.array_equal(run(), run())


def test_optimizer_step_needs_every_gradient():
    # no parameter is skipped: a missing .grad is an error, not a no-op
    p, q = (Tensor(np.array([1.0]), requires_grad=True) for _ in range(2))
    opt = Adam([p, q], lr=0.1)
    p.grad = np.array([0.5])
    with pytest.raises(TypeError):
        opt.step()


def test_optimizer_rejects_nan_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=5e-4)
    p.grad = np.array([float("nan")])
    with pytest.raises(NumericsError):
        opt.step()


class PerParameterAdam:
    """The reference optimizer: Adam's update, one parameter at a time, on
    each parameter's own moment arrays."""

    def __init__(self, params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params, self.lr, self.betas, self.eps, self.t = list(params), lr, betas, eps, 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._tmp = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.params]

    def step(self) -> None:
        b1, b2 = self.betas
        self.t += 1
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v, (a, b) in zip(self.params, self._m, self._v, self._tmp):
            g = p.grad
            np.add(np.multiply(m, b1, out=m), np.multiply(g, 1 - b1, out=a), out=m)
            np.multiply(np.multiply(g, 1 - b2, out=a), g, out=a)
            np.add(np.multiply(v, b2, out=v), a, out=v)
            np.multiply(np.divide(m, c1, out=a), self.lr, out=a)
            np.add(np.sqrt(np.divide(v, c2, out=b), out=b), self.eps, out=b)
            np.subtract(p.data, np.divide(a, b, out=a), out=p.data)


def _mlp(seed: int) -> Mlp:
    return Mlp([5, 7, 6, 3], ["relu", "relu", "identity"], stream(seed, "adam-mlp"))


def _step_both(rng, opt, ref, steps: int) -> None:
    """`steps` steps of both optimizers on the same random gradients, which
    span six orders of magnitude; their parameters must stay bitwise equal."""
    for _ in range(steps):
        for p, q in zip(opt.params, ref.params, strict=True):
            p.grad = rng.standard_normal(p.data.shape) * 10.0 ** rng.uniform(-3, 3)
            q.grad = p.grad.copy()
        opt.step()
        ref.step()
        for i, (p, q) in enumerate(zip(opt.params, ref.params)):
            assert np.array_equal(p.data, q.data), f"parameter {i} at step {opt.t}"


def test_flat_adam_equals_per_parameter_reference():
    rng = stream(1, "adam-grads")
    mlp, ref_mlp = _mlp(1), _mlp(1)
    opt, ref = Adam(mlp.params(), lr=1e-2), PerParameterAdam(ref_mlp.params(), lr=1e-2)
    _step_both(rng, opt, ref, 50)
    # load_doc writes into the optimizer's views, so training goes on
    doc = _mlp(2).to_doc()
    mlp.load_doc(doc)
    ref_mlp.load_doc(doc)
    assert np.array_equal(mlp.forward(np.ones(5)).numpy(), _mlp(2).forward(np.ones(5)).numpy())
    _step_both(rng, opt, ref, 10)


@pytest.mark.parametrize("net_first", [True, False], ids=["net-first", "optimizer-first"])
def test_deep_copied_adam_trains_its_own_parameters(net_first):
    rng = stream(3, "adam-copy")
    mlp, ref_mlp = _mlp(3), _mlp(3)
    opt, ref = Adam(mlp.params(), lr=1e-2), PerParameterAdam(ref_mlp.params(), lr=1e-2)
    _step_both(rng, opt, ref, 5)
    held = [p.data.copy() for p in mlp.params()]
    ref_copy = copy.deepcopy(ref)
    if net_first:
        mlp_copy, opt_copy = copy.deepcopy((mlp, opt))
    else:
        opt_copy, mlp_copy = copy.deepcopy((opt, mlp))
    assert all(p is q for p, q in zip(mlp_copy.params(), opt_copy.params, strict=True))
    _step_both(rng, opt_copy, ref_copy, 20)
    # the copy's steps moved the copied net (checked against the reference
    # in _step_both), and not the original's
    assert all(np.array_equal(p.data, h) for p, h in zip(mlp.params(), held))
    _step_both(rng, opt, ref, 5)


def test_optimizer_nan_gradient_names_its_parameter():
    mlp = _mlp(4)
    opt = Adam(mlp.params(), lr=1e-2)
    for p in mlp.params():
        p.grad = np.ones_like(p.data)
    mlp.params()[3].grad[2] = np.nan
    before = [p.data.copy() for p in mlp.params()]
    with pytest.raises(NumericsError, match="gradient of parameter 3"):
        opt.step()
    assert all(np.array_equal(p.data, b) for p, b in zip(mlp.params(), before))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_optimizer_overflowing_update_names_its_parameter():
    p, q = Tensor(np.array([1.0]), requires_grad=True), Tensor(np.array([-1e308]), requires_grad=True)
    opt = Adam([p, q], lr=1e308)
    p.grad, q.grad = np.array([1.0]), np.array([1.0])  # q - 1e308 overflows to -inf
    with pytest.raises(NumericsError, match="updated parameter 1"):
        opt.step()


def test_optimizer_rejects_a_rebound_parameter():
    p, q = (Tensor(np.array([1.0]), requires_grad=True) for _ in range(2))
    opt = Adam([p, q], lr=0.1)
    q.data = q.data + 1.0  # the optimizer would no longer see q
    p.grad, q.grad = np.array([0.5]), np.array([0.5])
    with pytest.raises(ValueError, match="parameter 1 was rebound"):
        opt.step()


def test_optimizer_hyperparameter_validation():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        Adam([p], lr=0.0)
    with pytest.raises(ValueError):
        Adam([p], lr=5e-4, betas=(1.0, 0.999))


def test_gradient_property_across_seeds():
    # reverse-mode vs central finite differences on randomized networks,
    # whose hidden layers use the graph's elu op: relu kinks would invalidate
    # the finite differences locally
    for seed in range(20):
        rng = stream(seed, "gcprop")
        mlp = Mlp([4, 10, 10, 1], ["relu", "relu", "identity"], rng)  # the parameters
        inp = rng.standard_normal((5, 4))

        def loss():
            h = Tensor(inp)
            for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
                h = (h @ w + b).elu()
            out = h @ mlp.weights[-1] + mlp.biases[-1]
            return (out * out).mean()

        assert grad_check(loss, mlp.params()) < 1e-4, f"seed {seed}"


def test_mlp_checkpoint_roundtrip():
    rng = stream(3, "ckpt")
    mlp = Mlp([4, 6, 2], ["relu", "identity"], rng)
    doc = mlp.to_doc()
    loaded = Mlp([4, 6, 2], ["relu", "identity"])
    loaded.load_doc(doc)
    x = stream(4, "ckpt-x").standard_normal((2, 4))
    assert np.array_equal(mlp.forward(Tensor(x)).numpy(),
                          loaded.forward(Tensor(x)).numpy())
    assert doc["layer_sizes"] == [4, 6, 2]
    assert {p["name"] for p in doc["params"]} == {"w0", "b0", "w1", "b1"}


def test_no_grad_blocks_graph_recording():
    p = Tensor(np.array([2.0]), requires_grad=True)
    with nn.no_grad():
        out = p * 3.0
    assert out.requires_grad is False


@pytest.mark.parametrize("breakage", [
    lambda d: d.update(layer_sizes=[4, 5, 2]),
    lambda d: d.update(activations=["identity", "identity"]),
    lambda d: d["params"].pop(),
    lambda d: d["params"][0].update(shape=[6, 4]),
    lambda d: d["params"][1].update(values=[0.0]),
])
def test_mlp_load_doc_rejects_other_architectures(breakage):
    doc = Mlp([4, 6, 2], ["relu", "identity"], stream(5, "load-doc")).to_doc()
    breakage(doc)
    with pytest.raises(ValueError):
        Mlp([4, 6, 2], ["relu", "identity"]).load_doc(doc)


def _set_value(doc: dict, value) -> None:
    doc["params"][0]["values"][3] = value


@pytest.mark.parametrize("breakage", [
    pytest.param(lambda d: d.update(note="x"), id="extra-key"),
    pytest.param(lambda d: d["params"][2].update(note="x"), id="param-extra-key"),
    pytest.param(lambda d: d["params"][2].update(name="b1"), id="param-name"),
    pytest.param(lambda d: d["params"][0].update(shape=[4.0, 6]), id="param-shape-float"),
    pytest.param(lambda d: d.update(layer_sizes=[4, 6.0, 2]), id="layer-size-float"),
    pytest.param(lambda d: d.update(params=tuple(d["params"])), id="params-not-a-list"),
    pytest.param(lambda d: _set_value(d, "0.5"), id="value-string"),
    pytest.param(lambda d: _set_value(d, True), id="value-bool"),
    pytest.param(lambda d: _set_value(d, None), id="value-null"),
    pytest.param(lambda d: _set_value(d, [0.5]), id="value-list"),
])
def test_mlp_load_doc_rejects_ill_typed_documents(breakage):
    doc = Mlp([4, 6, 2], ["relu", "identity"], stream(5, "load-doc")).to_doc()
    breakage(doc)
    with pytest.raises(ValueError):
        Mlp([4, 6, 2], ["relu", "identity"]).load_doc(doc)


def test_mlp_load_doc_accepts_int_values():
    doc = Mlp([4, 6, 2], ["relu", "identity"], stream(5, "load-doc")).to_doc()
    _set_value(doc, 2)  # a JSON int is a number, as 2.0 is
    mlp = Mlp([4, 6, 2], ["relu", "identity"])
    mlp.load_doc(doc)
    assert mlp.weights[0].data.reshape(-1)[3] == 2.0


# ---- stacked forward: each (r, in) block rounds as it would alone ----
# numpy runs a stacked matmul block by block, so block b of a (B, r, in)
# forward equals the forward of x[b] bit for bit, at any B. Batched Q
# inference relies on it; a numpy or BLAS change that breaks it fails here.

def _agent_net_shapes():
    """(input width, hidden sizes, outputs, agents) of every agent net the
    code builds on the built-in envs: targets (5 actions) and masking
    nets (2), at the default hidden sizes and the tests' (16, 16)."""
    for name in ("keycorridor", "spread", "diagnostic"):
        spec = make_env(name).spec
        for hidden in ((16, 16), tuple(DEFAULT_CONFIG["training"]["hidden"])):
            for n_actions in (2, spec.n_actions):
                yield spec.obs_dim + spec.n_agents, hidden, n_actions, spec.n_agents


@pytest.mark.parametrize("width,hidden,n_actions,n_agents", sorted(set(_agent_net_shapes())))
def test_stacked_forward_equals_each_block_alone(width, hidden, n_actions, n_agents):
    mlp = Mlp([width, *hidden, n_actions], ["relu", "relu", "identity"],
              stream(width, "stacked-net", *hidden, n_actions))
    rng = stream(width, "stacked-input", *hidden, n_actions)
    for rows in (1, n_agents):
        for size in (1, 2, 3, 7, 32, 960):
            x = rng.uniform(-1.0, 1.0, (size, rows, width))
            out = mlp.fused_forward(x)[0]
            assert out.shape == (size, rows, n_actions)
            for b in range(size):
                assert np.array_equal(out[b], mlp.fused_forward(x[b])[0]), (rows, size, b)


def test_stacked_forward_checks_shape_and_finiteness():
    mlp = Mlp([4, 3, 2], ["relu", "identity"], stream(0, "stacked-checks"))
    with pytest.raises(ShapeError):
        mlp.fused_forward(np.zeros((2, 3, 5)))
    with pytest.raises(ShapeError):
        mlp.fused_forward(np.zeros((2, 1, 3, 4)))
    bad = np.zeros((2, 3, 4))
    bad[1, 2, 0] = np.nan
    with pytest.raises(NumericsError):
        mlp.fused_forward(bad)
