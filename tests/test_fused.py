"""The fused numpy TD step against the autodiff graph it replaced.

The graph-built TD and difference losses below are the reference: they are
the pre-fusion production code, written with the ops of `autodiff.py`. The
fused path must give bitwise-equal losses and parameter gradients. (Its finite-difference
checks are in test_masking.py.) The graph shares the ELU arithmetic with the
fused path, so the ELU and the short-axis reductions are also checked, bit
for bit, against their textbook numpy forms written out below.
"""
from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import autodiff
from autodiff import Tensor, mlp_forward
from emai import ctde, nn
from emai.config import DEFAULT_CONFIG
from emai.ctde import AgentQNet, Episode, EpisodeBuffer, QLearner
from emai.envs import EnvSpec
from emai.masking import diff_loss
from emai.nn import NumericsError
from emai.rng import stream

N_AGENTS, OBS_DIM, STATE_DIM, N_ACTIONS = 3, 5, 4, 2
J_PI, BETA, GAMMA = 1.3, 0.05, 0.95


# ---- the graph reference ----

def _flatten_batch(batch) -> ctde.Transitions:
    """The batch's Transitions, in TdBuffers sized for it."""
    ep = batch[0]
    buffers = ctde.TdBuffers(ep.obs.shape[1], ep.obs.shape[2], ep.states.shape[1],
                             sum(e.length for e in batch))
    return ctde._flatten_batch(batch, buffers)


def _agent_batch(obs_steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, n, D) observations -> (S*n, D) rows plus matching agent ids."""
    S, n, D = obs_steps.shape
    return obs_steps.reshape(S * n, D), np.tile(np.arange(n), S)


def _graph_q_values(net: AgentQNet, rows: np.ndarray, ids: np.ndarray) -> Tensor:
    x = np.concatenate([rows, np.eye(net.n_agents)[ids]], axis=1)
    return mlp_forward(net.mlp, Tensor(x))


def _graph_mix(mixer, chosen_q: Tensor, states: np.ndarray) -> Tensor:
    B = chosen_q.shape[0]
    s = Tensor(np.asarray(states, dtype=np.float64))
    w1 = mlp_forward(mixer.hyper_w1, s).abs().reshape(B, mixer.n_agents, mixer.embed_dim)
    b1 = mlp_forward(mixer.hyper_b1, s)
    hidden = ((chosen_q.reshape(B, mixer.n_agents, 1) * w1).sum(axis=1) + b1).elu()
    w2 = mlp_forward(mixer.hyper_w2, s).abs()
    v = mlp_forward(mixer.hyper_v, s)
    return (hidden * w2).sum(axis=1) + v.reshape(B)


def _graph_chosen_q(net: AgentQNet, obs_steps: np.ndarray, actions: np.ndarray) -> Tensor:
    S, n, _ = obs_steps.shape
    rows, ids = _agent_batch(obs_steps)
    q_all = _graph_q_values(net, rows, ids)
    picked = (q_all * np.eye(net.n_actions)[actions.reshape(-1)]).sum(axis=1)
    return picked.reshape(S, n)


def graph_td_loss(q_tot: Tensor, stale, flat: ctde.Transitions, gamma,
                  reward_fn=None) -> Tensor:
    next_obs, next_states, actions, rewards, terminal = (
        flat.next_obs, flat.next_states, flat.actions, flat.rewards, flat.terminal)
    if reward_fn is not None:
        rewards = reward_fn(rewards, actions)
    with autodiff.no_grad():
        S, n, _ = next_obs.shape
        rows, ids = _agent_batch(next_obs)
        max_q = _graph_q_values(stale.net, rows, ids).numpy().max(axis=1).reshape(S, n)
        target_next = _graph_mix(stale.mixer, Tensor(max_q), next_states).numpy()
    y = rewards + gamma * np.where(terminal, 0.0, target_next)
    err = q_tot - Tensor(y)
    return (err * err).mean()


def graph_diff_loss(q_tot: Tensor, flat: ctde.Transitions, j_pi, gamma, beta) -> Tensor:
    actions, ep_idx, t_idx, n_eps = flat.actions, flat.ep_index, flat.t_index, flat.n_episodes
    weights = gamma ** t_idx.astype(np.float64)
    r_mask = float(beta) * actions.sum(axis=1)
    weighted = (q_tot - Tensor(r_mask)) * Tensor(weights)
    member = np.zeros((len(ep_idx), n_eps))
    member[np.arange(len(ep_idx)), ep_idx] = 1.0
    per_episode = (weighted.reshape(1, -1) @ Tensor(member)).reshape(n_eps)
    d = Tensor(np.full(n_eps, float(j_pi))) - per_episode
    return (d * d).mean()


def graph_step(learner: QLearner, batch, reward_fn, lam: float):
    """(loss_e, loss_total, parameter gradients) of the graph-built step;
    both losses read one graph Q_tot, so its gradient accumulates there."""
    params = learner.optimizer.params
    for p in params:
        p.grad = None
    gamma = float(learner.config["gamma"])
    flat = _flatten_batch(batch)
    q_tot = _graph_mix(learner.mixer, _graph_chosen_q(learner.net, flat.obs, flat.actions),
                       flat.states)
    loss_e = graph_td_loss(q_tot, learner.stale, flat, gamma, reward_fn)
    loss = loss_e
    if lam > 0:
        loss = loss + graph_diff_loss(q_tot, flat, J_PI, gamma, BETA) * lam
    loss.backward()
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return loss_e.item(), loss.item(), grads


# ---- fixtures ----

def _reward_fn(rewards, actions):
    return rewards + BETA * actions.sum(axis=1)


def _extra_loss(lam: float):
    """The difference-loss term exactly as train_emai hands it to the learner."""
    def extra(q_tot, flat):
        loss_d, d_qtot, stats = diff_loss(q_tot, flat, J_PI, GAMMA, BETA, lam)
        return loss_d * lam, d_qtot, stats
    return extra if lam > 0 else None


def _episode(rng, T: int) -> Episode:
    return Episode(rng.uniform(-1, 1, size=(T + 1, N_AGENTS, OBS_DIM)),
                   rng.uniform(-1, 1, size=(T + 1, STATE_DIM)),
                   rng.integers(0, N_ACTIONS, size=(T, N_AGENTS)),
                   rng.uniform(-0.5, 0.5, size=T))


def _learner(episodes: int = 40, batch_episodes: int = 30, seed: int = 3) -> QLearner:
    spec = EnvSpec(N_AGENTS, OBS_DIM, STATE_DIM, N_ACTIONS, 30)
    config = {**DEFAULT_CONFIG["training"], "hidden": [16, 16], "mix_embed": 8, "lr": 5e-3,
              "buffer_episodes": 100, "batch_episodes": batch_episodes,
              "stale_interval": 200, "gamma": GAMMA}
    learner = QLearner(spec, N_ACTIONS, seed, config)
    rng = stream(seed, "fused-episodes")
    for _ in range(episodes):
        learner.buffer.add(_episode(rng, int(rng.integers(1, 31))))
    return learner


# ---- parity ----
# `mixer_kind` names the learner's one mixer in the test ids

@pytest.mark.parametrize("mixer_kind", ["monotonic"])
@pytest.mark.parametrize("with_reward_fn", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_fused_td_step_equals_autodiff(mixer_kind, with_reward_fn, lam):
    learner = _learner()
    reward_fn = _reward_fn if with_reward_fn else None
    for _ in range(3):  # move the live net away from its stale snapshot
        learner.td_train_step(reward_fn, _extra_loss(lam))
    batch = learner.buffer.sample(learner.batch_episodes, copy.deepcopy(learner.sample_rng))
    ref_e, ref_total, ref_grads = graph_step(learner, batch, reward_fn, lam)
    stats = learner.td_train_step(reward_fn, _extra_loss(lam))
    assert stats["loss_e"] == ref_e
    assert stats["loss_total"] == ref_total
    params = learner.optimizer.params
    assert len(params) == 20
    for i, (p, ref) in enumerate(zip(params, ref_grads, strict=True)):
        assert np.array_equal(p.grad, ref), f"gradient {i}"


@pytest.mark.parametrize("mixer_kind", ["monotonic"])
def test_fused_training_run_equals_autodiff_run(mixer_kind):
    learner = _learner(batch_episodes=7)
    ref = copy.deepcopy(learner)
    for step in range(6):
        stats = learner.td_train_step(_reward_fn, _extra_loss(0.5))
        batch = ref.buffer.sample(ref.batch_episodes, ref.sample_rng)
        loss_e, loss_total, grads = graph_step(ref, batch, _reward_fn, 0.5)
        assert (stats["loss_e"], stats["loss_total"]) == (loss_e, loss_total), f"step {step}"
        for p, g in zip(ref.optimizer.params, grads):
            p.grad = g
        ref.optimizer.step()
        if step == 2:
            learner.stale.refresh()
            ref.stale.refresh()
    for p, q in zip(learner.optimizer.params, ref.optimizer.params, strict=True):
        assert np.array_equal(p.data, q.data)


@pytest.mark.parametrize("mixer_kind", ["monotonic"])
def test_td_steps_with_changing_row_counts_equal_autodiff(mixer_kind):
    # batches of 7, 30, 7 and 30 transitions run in leading-row views of the
    # learner's buffers, which are sized for 2 episodes x horizon 30
    learner = _learner(episodes=0, batch_episodes=2)
    ref = copy.deepcopy(learner)
    rng = stream(8, "row-counts")
    for step, lengths in enumerate([(3, 4), (14, 16), (2, 5), (30,)]):
        batch = [_episode(rng, T) for T in lengths]
        for lrn in (learner, ref):
            lrn.buffer = EpisodeBuffer(len(batch))
            lrn.batch_episodes = len(batch)
            for ep in batch:
                lrn.buffer.add(ep)
        stats = learner.td_train_step(_reward_fn, _extra_loss(0.5))
        loss_e, loss_total, grads = graph_step(
            ref, ref.buffer.sample(ref.batch_episodes, ref.sample_rng), _reward_fn, 0.5)
        assert (stats["loss_e"], stats["loss_total"]) == (loss_e, loss_total), f"step {step}"
        for p, g in zip(ref.optimizer.params, grads):
            p.grad = g
        ref.optimizer.step()
        for i, (p, q) in enumerate(zip(learner.optimizer.params, ref.optimizer.params,
                                       strict=True)):
            assert np.array_equal(p.data, q.data), f"step {step}, parameter {i}"


@pytest.mark.parametrize("mixer_kind", ["monotonic"])
def test_fused_mixer_equals_graph_mixer(mixer_kind):
    rng = stream(5, "fused-mix")
    mixer = ctde.MonotonicMixer(N_AGENTS, STATE_DIM, 8, rng=rng)
    chosen, states = rng.standard_normal((50, N_AGENTS)), rng.standard_normal((50, STATE_DIM))
    q_tot, _ = mixer.mix(chosen, states)
    assert np.array_equal(q_tot, _graph_mix(mixer, Tensor(chosen), states).numpy())


def test_q_inference_equals_graph_forward():
    rng = stream(6, "fused-q")
    net = AgentQNet(OBS_DIM, N_AGENTS, 5, hidden=(16, 16), rng=rng)
    obs = rng.standard_normal((N_AGENTS, OBS_DIM))
    ids = np.arange(N_AGENTS)
    assert np.array_equal(net.q_all_agents(obs), _graph_q_values(net, obs, ids).numpy())


# ---- the NaN/Inf guard ----

def test_nan_observation_into_q_inference_raises():
    net = AgentQNet(OBS_DIM, N_AGENTS, 2, hidden=(8, 8), rng=stream(7, "nan-q"))
    obs = np.zeros((N_AGENTS, OBS_DIM))
    obs[1, 2] = np.nan
    with pytest.raises(NumericsError, match="input"):
        net.q_all_agents(obs)


@pytest.mark.parametrize("field", ["obs", "states", "rewards"])
def test_nan_in_buffered_episode_raises(field):
    learner = _learner(episodes=32)
    for ep in learner.buffer._dq:  # whichever episodes get sampled
        getattr(ep, field)[0] = np.nan
    before = [p.data.copy() for p in learner.optimizer.params]
    with pytest.raises(NumericsError):
        learner.td_train_step(_reward_fn, _extra_loss(0.5))
    assert all(np.array_equal(p.data, b) for p, b in zip(learner.optimizer.params, before))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_to_inf_in_td_step_raises():
    learner = _learner()
    for w in learner.net.mlp.weights:
        w.data = w.data * 1e200
    with pytest.raises(NumericsError, match="pre-activation"):
        learner.td_train_step()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_relu_zeroed_minus_inf_in_td_step_raises():
    # layer 1 pre-activation is -inf everywhere; its ReLU would make the
    # output the (finite) last bias, so only the pre-activation check sees it
    learner = _learner()
    mlp = learner.net.mlp
    mlp.weights[0].data = np.zeros_like(mlp.weights[0].data)
    mlp.biases[0].data = np.full_like(mlp.biases[0].data, 1e200)
    mlp.weights[1].data = np.full_like(mlp.weights[1].data, -1e200)
    h = np.maximum(mlp.biases[0].data, 0.0)
    assert np.all(np.isneginf(h @ mlp.weights[1].data))
    assert np.all(np.isfinite(np.maximum(h @ mlp.weights[1].data, 0.0) @ mlp.weights[2].data))
    with pytest.raises(NumericsError, match="layer 1 pre-activation"):
        learner.td_train_step()


def test_non_finite_gradient_raises_before_any_update(monkeypatch):
    learner = _learner()
    original = ctde.MonotonicMixer.mix_backward

    def poisoned(self, cache, d_qtot):
        d_chosen, grads = original(self, cache, d_qtot)
        grads[-1] = grads[-1] * np.inf
        return d_chosen, grads

    monkeypatch.setattr(ctde.MonotonicMixer, "mix_backward", poisoned)
    before = [p.data.copy() for p in learner.optimizer.params]
    with pytest.raises(NumericsError, match="gradient"):
        learner.td_train_step()
    assert all(np.array_equal(p.data, b) for p, b in zip(learner.optimizer.params, before))


@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_td_step_runs_one_backward_pass(monkeypatch, lam):
    learner = _learner()
    calls = []
    original = ctde.qtot_backward

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ctde, "qtot_backward", counted)
    for step in range(3):
        learner.td_train_step(_reward_fn, _extra_loss(lam))
        assert len(calls) == step + 1


# ---- exact rewrites: each against its textbook numpy form ----

def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _masked_elu_f(z):
    out = np.expm1(z)
    np.copyto(out, z, where=z > 0)
    return out


def _masked_elu_b(g, y):
    slope = y + 1.0
    np.copyto(slope, 1.0, where=y > 0)
    return g * slope


# finite floats, weighted towards signed zeros, subnormals, the ends of the
# float range and the edge of expm1's overflow (near 709.78)
_edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 709.782712893384, 709.7827128933841, 710.0,
                     -709.782712893384, -745.2, -1.0, 1.0, 1e-17, -1e-17,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(min_value=700.0, max_value=720.0), st.floats(min_value=-720.0, max_value=-700.0),
    st.floats(min_value=-1e-300, max_value=1e-300))


def _edge_arrays(shape):
    return arrays(np.float64, shape, elements=_edge_floats)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 6))
def test_elu_equals_the_masked_copy_form(data, rows, cols):
    z, g = (data.draw(_edge_arrays((rows, cols))) for _ in range(2))
    ws = nn.Scratch(4)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _masked_elu_f(z)
        assert np.array_equal(_bits(nn._elu_f(z)), _bits(want))
        assert np.array_equal(_bits(nn._elu_f(z, out=np.empty_like(z), ws=ws)), _bits(want))
        for y in (want, data.draw(_edge_arrays((rows, cols)))):
            want_g = _masked_elu_b(g, y)
            assert np.array_equal(_bits(nn._elu_b(g, y)), _bits(want_g))
            in_place = g.copy()  # the mixer's backward writes into g
            nn._elu_b(in_place, y, out=in_place, ws=ws)
            assert np.array_equal(_bits(in_place), _bits(want_g))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 9), st.sampled_from([(), (1,), (5,), (32,)]))
def test_short_axis_columns_equal_numpys_reductions(data, rows, width, tail):
    # (rows, actions) as the action axis, (rows, agents, embed) as the mixer's
    # agent axis; from 8 entries on the reductions themselves run. Rows of
    # signed zeros are common, as are repeats, so ties and -0.0 sums occur
    pool = data.draw(st.lists(_edge_floats, min_size=1, max_size=4))
    a = data.draw(arrays(np.float64, (rows, width, *tail), elements=st.one_of(
        st.sampled_from(pool), st.sampled_from([0.0, -0.0]), _edge_floats)))
    out = np.empty((rows, *tail))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(_bits(nn._sum_axis1(a, out)), _bits(np.sum(a, axis=1)))
    assert np.array_equal(_bits(nn._max_axis1(a, out)), _bits(np.max(a, axis=1)))
