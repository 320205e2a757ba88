"""The fused numpy TD step against the autodiff graph it replaced.

The graph-built TD and difference losses below are the reference: they are
the pre-fusion production code, written with `nn.Tensor` ops. The fused path
must give bitwise-equal losses and parameter gradients. (Its finite-difference
checks are in test_masking.py.)
"""
from __future__ import annotations

import copy

import numpy as np
import pytest

from emai import ctde, nn
from emai.ctde import AgentQNet, Episode, QLearner, VdnMixer
from emai.envs import Discrete, EnvSpec
from emai.masking import diff_loss
from emai.nn import NumericsError, Tensor
from emai.rng import stream

N_AGENTS, OBS_DIM, STATE_DIM, N_ACTIONS = 3, 5, 4, 2
J_PI, BETA, GAMMA = 1.3, 0.05, 0.95


# ---- the graph reference ----

def _graph_q_values(net: AgentQNet, rows: np.ndarray, ids: np.ndarray) -> Tensor:
    x = np.concatenate([rows, ctde.one_hot(ids, net.n_agents)], axis=1)
    return net.mlp.forward(Tensor(x))


def _graph_mix(mixer, chosen_q: Tensor, states: np.ndarray) -> Tensor:
    if isinstance(mixer, VdnMixer):
        return chosen_q.sum(axis=1)
    B = chosen_q.shape[0]
    s = Tensor(np.asarray(states, dtype=np.float64))
    w1 = mixer.hyper_w1.forward(s).abs().reshape(B, mixer.n_agents, mixer.embed_dim)
    b1 = mixer.hyper_b1.forward(s)
    hidden = ((chosen_q.reshape(B, mixer.n_agents, 1) * w1).sum(axis=1) + b1).elu()
    w2 = mixer.hyper_w2.forward(s).abs()
    v = mixer.hyper_v.forward(s)
    return (hidden * w2).sum(axis=1) + v.reshape(B)


def _graph_chosen_q(net: AgentQNet, obs_steps: np.ndarray, actions: np.ndarray) -> Tensor:
    S, n, _ = obs_steps.shape
    rows, ids = ctde._agent_batch(obs_steps)
    q_all = _graph_q_values(net, rows, ids)
    picked = (q_all * ctde.one_hot(actions.reshape(-1), net.n_actions)).sum(axis=1)
    return picked.reshape(S, n)


def graph_td_loss(net, mixer, stale, batch, gamma, reward_fn=None) -> Tensor:
    obs, next_obs, states, next_states, actions, rewards, terminal, _, _, _ = \
        ctde._flatten_batch(batch)
    if reward_fn is not None:
        rewards = reward_fn(rewards, actions)
    q_tot = _graph_mix(mixer, _graph_chosen_q(net, obs, actions), states)
    with nn.no_grad():
        S, n, _ = next_obs.shape
        rows, ids = ctde._agent_batch(next_obs)
        max_q = _graph_q_values(stale.net, rows, ids).numpy().max(axis=1).reshape(S, n)
        target_next = _graph_mix(stale.mixer, Tensor(max_q), next_states).numpy()
    y = rewards + gamma * np.where(terminal, 0.0, target_next)
    err = q_tot - Tensor(y)
    return (err * err).mean()


def graph_diff_loss(batch, net, mixer, j_pi, gamma, beta) -> Tensor:
    obs, _, states, _, actions, _, _, ep_idx, t_idx, _ = ctde._flatten_batch(batch)
    n_eps = len(batch)
    weights = gamma ** t_idx.astype(np.float64)
    r_mask = float(beta) * actions.sum(axis=1)
    q_tot = _graph_mix(mixer, _graph_chosen_q(net, obs, actions), states)
    weighted = (q_tot - Tensor(r_mask)) * Tensor(weights)
    member = np.zeros((len(ep_idx), n_eps))
    member[np.arange(len(ep_idx)), ep_idx] = 1.0
    per_episode = (weighted.reshape(1, -1) @ Tensor(member)).reshape(n_eps)
    d = Tensor(np.full(n_eps, float(j_pi))) - per_episode
    return (d * d).mean()


def graph_step(learner: QLearner, batch, reward_fn, lam: float):
    """(loss_e, loss_total, parameter gradients) of the graph-built step."""
    params = learner.optimizer.params
    for p in params:
        p.zero_grad()
    gamma = float(learner.config["gamma"])
    loss_e = graph_td_loss(learner.net, learner.mixer, learner.stale, batch, gamma, reward_fn)
    loss = loss_e
    if lam > 0:
        loss = loss + graph_diff_loss(batch, learner.net, learner.mixer, J_PI, gamma, BETA) * lam
    loss.backward()
    grads = [p.grad for p in params]
    for p in params:
        p.zero_grad()
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


def _learner(mixer_kind: str, episodes: int = 40, batch_episodes: int = 30,
             seed: int = 3) -> QLearner:
    spec = EnvSpec(N_AGENTS, OBS_DIM, STATE_DIM, Discrete(N_ACTIONS), 30)
    config = {"mixer": mixer_kind, "hidden": [16, 16], "mix_embed": 8, "lr": 5e-3,
              "buffer_episodes": 100, "batch_episodes": batch_episodes,
              "stale_interval": 200, "gamma": GAMMA}
    learner = QLearner(spec, N_ACTIONS, seed, config)
    rng = stream(seed, "fused-episodes")
    for _ in range(episodes):
        learner.buffer.add(_episode(rng, int(rng.integers(1, 31))))
    return learner


# ---- parity ----

@pytest.mark.parametrize("mixer_kind", ["vdn", "monotonic"])
@pytest.mark.parametrize("with_reward_fn", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_fused_td_step_equals_autodiff(mixer_kind, with_reward_fn, lam):
    learner = _learner(mixer_kind)
    reward_fn = _reward_fn if with_reward_fn else None
    for _ in range(3):  # move the live net away from its stale snapshot
        learner.td_train_step(reward_fn, _extra_loss(lam))
    batch = learner.buffer.sample(learner.batch_episodes, copy.deepcopy(learner.sample_rng))
    ref_e, ref_total, ref_grads = graph_step(learner, batch, reward_fn, lam)
    stats = learner.td_train_step(reward_fn, _extra_loss(lam))
    assert stats["loss_e"] == ref_e
    assert stats["loss_total"] == ref_total
    params = learner.optimizer.params
    assert len(params) == (20 if mixer_kind == "monotonic" else 6)
    for i, (p, ref) in enumerate(zip(params, ref_grads, strict=True)):
        assert np.array_equal(p.grad, ref), f"gradient {i}"


@pytest.mark.parametrize("mixer_kind", ["vdn", "monotonic"])
def test_fused_training_run_equals_autodiff_run(mixer_kind):
    learner = _learner(mixer_kind, batch_episodes=7)
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


@pytest.mark.parametrize("mixer_kind", ["vdn", "monotonic"])
def test_fused_mixer_equals_graph_mixer(mixer_kind):
    rng = stream(5, "fused-mix")
    mixer = ctde.make_mixer(mixer_kind, N_AGENTS, STATE_DIM, 8, rng)
    chosen, states = rng.standard_normal((50, N_AGENTS)), rng.standard_normal((50, STATE_DIM))
    q_tot, _ = mixer.mix(chosen, states)
    assert np.array_equal(q_tot, _graph_mix(mixer, Tensor(chosen), states).numpy())


def test_q_inference_equals_graph_forward():
    rng = stream(6, "fused-q")
    net = AgentQNet(OBS_DIM, N_AGENTS, 5, hidden=(16, 16), rng=rng)
    obs = rng.standard_normal((N_AGENTS, OBS_DIM))
    ids = np.arange(N_AGENTS)
    assert np.array_equal(net.q_all_agents(obs), _graph_q_values(net, obs, ids).numpy())
    for i in ids:
        single = _graph_q_values(net, obs[i][None, :], np.array([i])).numpy()[0]
        assert np.array_equal(net.q_single(obs[i], i), single)


# ---- the NaN/Inf guard ----

def test_nan_observation_into_q_inference_raises():
    net = AgentQNet(OBS_DIM, N_AGENTS, 2, hidden=(8, 8), rng=stream(7, "nan-q"))
    obs = np.zeros((N_AGENTS, OBS_DIM))
    obs[1, 2] = np.nan
    with pytest.raises(NumericsError, match="input"):
        net.q_all_agents(obs)
    with pytest.raises(NumericsError):
        net.q_single(obs[1], 1)


@pytest.mark.parametrize("field", ["obs", "states", "rewards"])
def test_nan_in_buffered_episode_raises(field):
    learner = _learner("monotonic", episodes=32)
    for ep in learner.buffer._dq:  # whichever episodes get sampled
        getattr(ep, field)[0] = np.nan
    before = [p.data.copy() for p in learner.optimizer.params]
    with pytest.raises(NumericsError):
        learner.td_train_step(_reward_fn, _extra_loss(0.5))
    assert all(np.array_equal(p.data, b) for p, b in zip(learner.optimizer.params, before))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_to_inf_in_td_step_raises():
    learner = _learner("monotonic")
    for w in learner.net.mlp.weights:
        w.data = w.data * 1e200
    with pytest.raises(NumericsError, match="pre-activation"):
        learner.td_train_step()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_relu_zeroed_minus_inf_in_td_step_raises():
    # layer 1 pre-activation is -inf everywhere; its ReLU would make the
    # output the (finite) last bias, so only the pre-activation check sees it
    learner = _learner("monotonic")
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
    learner = _learner("monotonic")
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
