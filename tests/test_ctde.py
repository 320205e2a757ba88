"""CTDE machinery: utility nets, mixers, IGM, buffer, TD training."""
from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats

from emai import ctde, nn
from emai.ctde import (AgentQNet, Episode, EpisodeBuffer, MonotonicMixer, StaleCopy,
                       VdnMixer, build_td_loss, epsilon_greedy, linear_epsilon, q_total)
from emai.rng import stream


def _toy_net(obs_dim=4, n_agents=2, n_actions=3, seed=0):
    return AgentQNet(obs_dim, n_agents, n_actions, hidden=(8, 8), rng=stream(seed, "net"))


def test_zero_weight_net_gives_zero_q():
    net = AgentQNet(4, 2, 3, hidden=(8, 8), rng=None)
    assert np.array_equal(net.q_single(np.zeros(4), 0), np.zeros(3))


def test_agent_id_distinguishes_outputs():
    net = _toy_net()
    obs = stream(1, "obs").standard_normal(4)
    q0 = net.q_single(obs, 0)
    q1 = net.q_single(obs, 1)
    assert not np.array_equal(q0, q1)


def test_q_values_bitwise_stable():
    net = _toy_net()
    obs = stream(2, "obs").standard_normal(4)
    assert np.array_equal(net.q_single(obs, 1), net.q_single(obs, 1))


def test_q_values_shape_mismatch():
    net = _toy_net()
    with pytest.raises(nn.ShapeError):
        net.q_single(np.zeros(5), 0)


def test_vdn_sums_chosen_qs():
    mixer = VdnMixer()
    assert q_total(mixer, np.zeros(3), np.array([1.0, 2.0, -0.5])) == pytest.approx(2.5)
    assert q_total(mixer, np.zeros(3), np.array([1.0, 1.0, -0.5])) == pytest.approx(1.5)


def test_monotonic_mixer_monotonicity_1000_draws():
    rng = stream(7, "mono")
    for draw in range(1000):
        n = int(rng.integers(2, 5))
        mixer = MonotonicMixer(n, 5, embed_dim=8, rng=rng)
        state = rng.standard_normal(5)
        q = rng.standard_normal(n)
        i = int(rng.integers(0, n))
        delta = float(rng.uniform(1e-3, 2.0))
        bumped = q.copy()
        bumped[i] += delta
        assert q_total(mixer, state, bumped) >= q_total(mixer, state, q), f"draw {draw}"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_igm_greedy_equals_joint_argmax(n):
    # exhaustive enumeration oracle over all 2^n joint mask actions
    rng = stream(8, "igm", n)
    for draw in range(500):
        net = AgentQNet(3, n, 2, hidden=(8, 8), rng=rng)
        mixer = MonotonicMixer(n, 4, embed_dim=8, rng=rng)
        obs = rng.standard_normal((n, 3))
        state = rng.standard_normal(4)
        q = net.q_all_agents(obs)
        greedy = tuple(int(np.argmax(q[i])) for i in range(n))
        best, best_val = None, -np.inf
        for joint in range(2 ** n):
            bits = tuple((joint >> k) & 1 for k in range(n))
            chosen = np.array([q[i, bits[i]] for i in range(n)])
            val = q_total(mixer, state, chosen)
            if val > best_val:
                best, best_val = bits, val
        assert greedy == best, f"n={n} draw={draw}"


def test_epsilon_greedy_pure_greedy_and_tiebreak():
    rng = stream(9, "eps")
    assert epsilon_greedy(np.array([0.1, 0.9]), 0.0, rng) == 1
    assert epsilon_greedy(np.array([0.5, 0.5]), 0.0, rng) == 0  # lowest index wins


def test_epsilon_greedy_uniform_at_one():
    rng = stream(10, "eps-uniform")
    draws = np.array([epsilon_greedy(np.arange(5.0), 1.0, rng) for _ in range(10_000)])
    _, p = stats.chisquare(np.bincount(draws, minlength=5))
    assert p > 0.01


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon_greedy(np.zeros(2), 1.5, stream(0, "x"))


def test_linear_epsilon_schedule():
    assert linear_epsilon(0, 1.0, 0.05, 50_000) == 1.0
    assert linear_epsilon(50_000, 1.0, 0.05, 50_000) == 0.05
    assert linear_epsilon(80_000, 1.0, 0.05, 50_000) == 0.05
    assert linear_epsilon(25_000, 1.0, 0.05, 50_000) == pytest.approx(0.525)


def _one_step_episode(obs, state, actions, reward):
    n = len(actions)
    return Episode(np.stack([obs, obs]), np.stack([state, state]),
                   np.array([actions]), np.array([reward]))


def _td_loss(net, mixer, stale, batch, gamma) -> float:
    """build_td_loss's value on the live Q_tot of a batch of episodes."""
    flat = ctde._flatten_batch(batch)
    return build_td_loss(stale, flat, ctde.qtot_forward(net, mixer, flat)[0], gamma)[0]


def test_td_loss_direct_example():
    # reward 1.0, gamma 0.99, stale max Q_tot 2.0, current Q_tot 2.5
    # -> y = 2.98, per-transition loss (2.98 - 2.5)^2 = 0.2304
    y = 1.0 + 0.99 * 2.0
    assert (y - 2.5) ** 2 == pytest.approx(0.2304)
    # exercised through build_td_loss with hand-built nets on a 1-agent-pair
    net = AgentQNet(2, 2, 2, hidden=(4, 4), rng=stream(11, "td"))
    mixer = VdnMixer()
    stale = StaleCopy(net, mixer, refresh_interval=100)
    obs = np.zeros((2, 2))
    state = np.zeros(1)
    ep = _one_step_episode(obs, state, [0, 1], reward=1.0)
    loss = _td_loss(net, mixer, stale, [ep], gamma=0.99)
    # terminal transition: y = reward exactly
    q = net.q_all_agents(obs)
    q_tot = q[0, 0] + q[1, 1]
    assert loss == pytest.approx((1.0 - q_tot) ** 2)


def test_td_terminal_zero_loss():
    net = AgentQNet(2, 2, 2, hidden=(4, 4), rng=None)  # all-zero net
    mixer = VdnMixer()
    stale = StaleCopy(net, mixer, refresh_interval=100)
    ep = _one_step_episode(np.zeros((2, 2)), np.zeros(1), [0, 0], reward=0.0)
    loss = _td_loss(net, mixer, stale, [ep], gamma=0.99)
    assert loss == 0.0


class _BanditEnv:
    """1-step, 2-agent bandit with additive payoffs (exhaustive-argmax oracle)."""

    def __init__(self):
        from emai.envs import Discrete, EnvSpec
        self.spec = EnvSpec(2, 2, 2, Discrete(3), 1)
        self.bonus0 = np.array([0.0, 0.6, 0.2])
        self.bonus1 = np.array([0.3, 0.1, 0.9])
        self.done = True

    @property
    def name(self):
        return "bandit"

    def reset(self, seed):
        self.done = False
        return np.zeros(2), np.zeros((2, 2))

    def step(self, actions):
        from emai.envs import StepResult
        self.done = True
        r = float(self.bonus0[actions[0]] + self.bonus1[actions[1]])
        return StepResult(np.zeros(2), np.zeros((2, 2)), r, True)


def test_bandit_training_converges_to_joint_argmax():
    env = _BanditEnv()
    config = {"mixer": "monotonic", "hidden": [16, 16], "mix_embed": 8, "lr": 2e-3,
              "buffer_episodes": 200, "batch_episodes": 16, "stale_interval": 50,
              "gamma": 0.99}
    learner = ctde.QLearner(env.spec, 3, 5, config)
    explore = stream(5, "bandit-explore")
    for step in range(2000):
        _, obs = env.reset(step)
        eps = linear_epsilon(step, 1.0, 0.1, 1000)
        q = learner.net.q_all_agents(obs)
        actions = [epsilon_greedy(q[i], eps, explore) for i in range(2)]
        result = env.step(actions)
        learner.buffer.add(Episode(np.stack([obs, result.observations]),
                                   np.stack([np.zeros(2), result.next_state]),
                                   np.array([actions]), np.array([result.reward])))
        learner.stale.maybe_refresh(step + 1)
        if len(learner.buffer) >= 16 and step % 2 == 0:
            learner.td_train_step()
    q = learner.net.q_all_agents(np.zeros((2, 2)))
    greedy = (int(np.argmax(q[0])), int(np.argmax(q[1])))
    assert greedy == (1, 2)  # argmaxes of the additive payoff vectors


def test_stale_refresh_cadence():
    net = _toy_net()
    mixer = VdnMixer()
    stale = StaleCopy(net, mixer, refresh_interval=200)
    refreshed_at = [s for s in range(1, 1001) if stale.maybe_refresh(s)]
    assert refreshed_at == [200, 400, 600, 800, 1000]


def test_stale_copy_frozen_between_refreshes():
    net = _toy_net()
    mixer = VdnMixer()
    stale = StaleCopy(net, mixer, refresh_interval=10)
    obs = stream(3, "stale-obs").standard_normal(4)
    before = stale.net.q_single(obs, 0).copy()
    for p in net.params():  # live net moves on
        p.data = p.data + 1.0
    assert np.array_equal(stale.net.q_single(obs, 0), before)
    stale.refresh()
    assert not np.array_equal(stale.net.q_single(obs, 0), before)


def test_stale_copy_with_monotonic_mixer_frozen_until_refresh():
    net = _toy_net()
    mixer = MonotonicMixer(2, 5, embed_dim=8, rng=stream(4, "stale-mix"))
    stale = StaleCopy(net, mixer, refresh_interval=10)
    state = stream(5, "stale-state").standard_normal(5)
    q = np.array([0.3, -0.2])
    before = q_total(stale.mixer, state, q)
    live = net.params() + mixer.params()
    for p in live:  # live net and mixer move on
        p.data = p.data * 1.5 + 0.1
    assert q_total(mixer, state, q) != before
    assert q_total(stale.mixer, state, q) == before
    stale.refresh()
    frozen = stale.net.params() + stale.mixer.params()
    assert len(frozen) == len(live)
    assert all(np.array_equal(f.data, p.data) for f, p in zip(frozen, live))
    assert q_total(stale.mixer, state, q) == q_total(mixer, state, q)
    for p in live:  # the refreshed snapshot owns its arrays
        p.data += 1.0
    assert not any(np.array_equal(f.data, p.data) for f, p in zip(frozen, live))


def test_buffer_fifo_eviction_and_seeded_sampling():
    buf = EpisodeBuffer(capacity=3)
    eps = [_one_step_episode(np.zeros((2, 2)), np.zeros(1), [0, 0], float(i))
           for i in range(5)]
    for e in eps:
        buf.add(e)
    assert len(buf) == 3
    kept_rewards = {float(e.rewards[0]) for e in buf._dq}
    assert kept_rewards == {2.0, 3.0, 4.0}
    a = [float(e.rewards[0]) for e in buf.sample(2, stream(4, "buf"))]
    b = [float(e.rewards[0]) for e in buf.sample(2, stream(4, "buf"))]
    assert a == b


def test_mixer_checkpoint_roundtrip():
    mixer = MonotonicMixer(3, 5, embed_dim=8, rng=stream(12, "mixdoc"))
    doc = mixer.to_doc()
    loaded = MonotonicMixer.from_doc(doc)
    state = stream(13, "mixstate").standard_normal(5)
    q = np.array([0.1, -0.7, 0.4])
    assert q_total(mixer, state, q) == q_total(loaded, state, q)


def _checkpoint(mixer_kind="monotonic"):
    rng = stream(14, "codec")
    net = AgentQNet(4, 2, 3, hidden=(4, 4), rng=rng)
    mixer = None if mixer_kind == "none" else ctde.make_mixer(mixer_kind, 2, 5, 4, rng)
    return ctde.checkpoint_doc(net, mixer, None, training_step=9)


@pytest.mark.parametrize("mixer_kind", ["none", "vdn", "monotonic"])
def test_checkpoint_codec_roundtrips_exactly(mixer_kind):
    doc = _checkpoint(mixer_kind)
    assert doc["mixer_kind"] == mixer_kind
    net, mixer = ctde.load_checkpoint_doc(json.loads(json.dumps(doc)))
    assert ctde.checkpoint_doc(net, mixer, None, training_step=9) == doc


@pytest.mark.parametrize("breakage", [
    lambda d: d.pop("agent_net"),
    lambda d: d.update(extra=1),
    lambda d: d.update(v=2),
    lambda d: d.update(mixer_kind="qmix"),
    lambda d: d.update(mixer_kind="vdn"),  # a vdn mixer has no document
    lambda d: d.update(n_actions=4),
    lambda d: d["mixer"].pop("hyper_v"),
    lambda d: d["mixer"]["hyper_w1"].update(layer_sizes=[5]),
    lambda d: d["agent_net"].update(obs_dim=5),
    lambda d: d["agent_net"].update(mlp=[]),
])
def test_checkpoint_codec_rejects_malformed_documents(breakage):
    doc = _checkpoint()
    breakage(doc)
    with pytest.raises(ValueError):
        ctde.load_checkpoint_doc(doc)


@pytest.mark.parametrize("doc", [None, [], "ctde-checkpoint", {"format": "ctde-checkpoint"}])
def test_checkpoint_codec_rejects_non_documents(doc):
    with pytest.raises(ValueError):
        ctde.load_checkpoint_doc(doc)
