"""Masking semantics, baseline estimation, losses, importance scores."""
from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats

from emai import ctde, masking, rollout
from emai.config import DEFAULT_CONFIG
from emai.ctde import AgentQNet, Episode, MonotonicMixer, QLearner
from emai.envs import EnvSpec, make_env
from emai.masking import (BaselineEstimate, IncompatibilityError, MaskingPolicy,
                          apply_mask, diff_loss, estimate_baseline_return, train_emai)
from emai.nn import fd_max_rel_error
from emai.rng import episode_seed, stream
from emai.rollout import greedy_actions
from emai.target import scripted_by_name, scripted_policy


def test_apply_mask_keep_branch():
    rng = stream(0, "mask")
    assert apply_mask(2, 0, 5, rng) == 2


def test_apply_mask_random_branch_uniform():
    rng = stream(1, "mask-uniform")
    draws = np.array([apply_mask(2, 1, 5, rng) for _ in range(10_000)])
    assert set(np.unique(draws)) <= set(range(5))
    _, p = stats.chisquare(np.bincount(draws, minlength=5))
    assert p > 0.01


def test_baseline_gamma_zero_is_first_step_mean():
    env = make_env("diagnostic", n_agents=3, grid=6, horizon=8)
    pol = scripted_policy(env)
    est = estimate_baseline_return(pol, env, episodes=25, gamma=0.0, seed=4)
    firsts = []
    for i in range(25):
        _, obs = env.reset(episode_seed(4, "baseline", i))
        firsts.append(env.step(greedy_actions(pol, obs)).reward)
    assert est.j_pi == pytest.approx(np.mean(firsts), abs=1e-12)


def test_baseline_bitwise_reproducible():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    a = estimate_baseline_return(pol, env, episodes=30, gamma=0.99, seed=9)
    b = estimate_baseline_return(pol, env, episodes=30, gamma=0.99, seed=9)
    assert a == b


BASELINE_CASES = [
    ("keycorridor", {}, "default"),
    ("keycorridor", {}, "weakened"),
    ("spread", {"n_agents": 3, "grid": 8}, "default"),
    ("diagnostic", {"n_agents": 3, "grid": 6, "inert": (1,)}, "default"),
    ("diagnostic", {"n_agents": 3, "grid": 5, "zero_reward": True}, "default"),
]


def test_baseline_matches_independent_resimulation():
    # independent oracle: a fresh hand-rolled rollout loop over the same seeds,
    # every sum taken left to right
    episodes, gamma = 120, 0.99
    for name, params, variant in BASELINE_CASES:
        env = make_env(name, **params)
        pol = scripted_by_name(env, variant)
        est = estimate_baseline_return(pol, env, episodes=episodes, gamma=gamma, seed=5)
        totals, abs_total, steps = [], 0.0, 0
        for i in range(episodes):
            _, obs = env.reset(episode_seed(5, "baseline", i))
            done, t, acc, abs_acc = False, 0, 0.0, 0.0
            while not done:
                acts = pol.act(obs)
                result = env.step(acts)
                acc += (gamma ** t) * result.reward
                abs_acc += abs(result.reward)
                obs, done, t = result.observations, result.done, t + 1
            totals.append(acc)
            abs_total += abs_acc
            steps += t
        totals = np.array(totals)
        expected = BaselineEstimate(float(totals.mean()),
                                    float(totals.std(ddof=1) / np.sqrt(episodes)),
                                    abs_total / steps, episodes, gamma)
        assert est == expected, (name, params, variant)


def _scalar_baseline(target, env, episodes: int, gamma: float, seed: int) -> BaselineEstimate:
    """The baseline as the scalar episode loop computed it: one
    run_target_episode per seed, summed from its Trace."""
    traces = [rollout.run_target_episode(env, episode_seed(seed, "baseline", i), target)
              for i in range(episodes)]
    returns = np.array([tr.discounted_return(gamma) for tr in traces])
    abs_total = sum(sum(abs(s.reward) for s in tr.steps) for tr in traces)
    step_total = sum(len(tr.steps) for tr in traces)
    stderr = float(returns.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return BaselineEstimate(float(returns.mean()), stderr, float(abs_total / step_total),
                            episodes, gamma)


@pytest.mark.parametrize("variant,seed", [("default", 1), ("weakened", 3)])
def test_baseline_equals_the_scalar_episode_loop_at_500_episodes(variant, seed):
    env = make_env("keycorridor")
    pol = scripted_by_name(env, variant)
    est = estimate_baseline_return(pol, env, episodes=500, gamma=0.99, seed=seed)
    assert est == _scalar_baseline(pol, env, 500, 0.99, seed)


def test_baseline_of_one_episode_has_zero_stderr():
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=6)
    pol = scripted_policy(env)
    est = estimate_baseline_return(pol, env, episodes=1, gamma=0.9, seed=2)
    assert est == _scalar_baseline(pol, env, 1, 0.9, 2)
    assert est.stderr == 0.0


def test_baseline_requires_episodes():
    env = make_env("keycorridor")
    with pytest.raises(ValueError):
        estimate_baseline_return(scripted_policy(env), env, episodes=0, gamma=0.99)


def _toy_batch(n_agents=2, obs_dim=3, state_dim=3, T=4, episodes=3, seed=0):
    rng = stream(seed, "toy-batch")
    batch = []
    for _ in range(episodes):
        batch.append(Episode(
            rng.uniform(-1, 1, size=(T + 1, n_agents, obs_dim)),
            rng.uniform(-1, 1, size=(T + 1, state_dim)),
            rng.integers(0, 2, size=(T, n_agents)),
            rng.uniform(-0.5, 0.5, size=T)))
    return batch


def _flatten(batch):
    """The batch's Transitions in TdBuffers sized for it, and those buffers."""
    ep = batch[0]
    buffers = ctde.TdBuffers(ep.obs.shape[1], ep.obs.shape[2], ep.states.shape[1],
                             sum(e.length for e in batch))
    return ctde._flatten_batch(batch, buffers), buffers


def _diff_loss(batch, net, mixer, **kwargs):
    """diff_loss's value on the live Q_tot of a batch of episodes."""
    flat, buffers = _flatten(batch)
    return diff_loss(ctde.qtot_forward(net, mixer, flat, buffers)[0], flat, **kwargs)[0]


def test_diff_loss_one_step_example():
    # D = 10 - (9.2 - 0.2) = 1 -> L_d = 1, for a hand-set Q_tot
    ep = Episode(np.zeros((2, 2, 3)), np.zeros((2, 3)),
                 np.array([[1, 1]]), np.array([0.0]))  # both masked: R^m = 0.2
    flat, _ = _flatten([ep])
    loss = diff_loss(np.array([9.2]), flat, j_pi=10.0, gamma=0.99, beta=0.1)[0]
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_diff_loss_zero_when_decomposition_matches():
    T, gamma = 3, 0.9
    ep = Episode(np.zeros((T + 1, 2, 3)), np.zeros((T + 1, 3)),
                 np.zeros((T, 2), dtype=np.int64), np.zeros(T))  # R^m = 0
    flat, _ = _flatten([ep])
    j_pi = sum((gamma ** t) * 3.0 for t in range(T))
    loss = diff_loss(np.full(T, 3.0), flat, j_pi=j_pi, gamma=gamma, beta=0.3)[0]
    assert loss == pytest.approx(0.0, abs=1e-18)


def test_diff_loss_gradient_matches_finite_differences():
    # the fused backward (ctde.qtot_backward seeded by diff_loss's dL/dQ_tot)
    batch = _toy_batch()
    flat, buffers = _flatten(batch)
    net = AgentQNet(3, 2, 2, hidden=(6, 6), rng=stream(3, "dl-net"))
    mixer = MonotonicMixer(2, 3, embed_dim=6, rng=stream(3, "dl-mix"))
    kwargs = {"j_pi": 1.3, "gamma": 0.95, "beta": 0.05}
    q_tot, cache = ctde.qtot_forward(net, mixer, flat, buffers)
    analytic = ctde.qtot_backward(net, mixer, cache, diff_loss(q_tot, flat, **kwargs)[1])
    error = fd_max_rel_error(lambda: _diff_loss(batch, net, mixer, **kwargs),
                              net.params() + mixer.params(), analytic)
    assert error < 1e-4


def test_td_loss_gradient_matches_finite_differences():
    batch = _toy_batch(seed=4)
    flat, buffers = _flatten(batch)
    net = AgentQNet(3, 2, 2, hidden=(6, 6), rng=stream(4, "td-net"))
    mixer = MonotonicMixer(2, 3, embed_dim=6, rng=stream(4, "td-mix"))
    stale = ctde.StaleCopy(net, mixer, refresh_interval=100)
    params = net.params() + mixer.params()
    for p in params:  # the live net moves off its snapshot
        p.data = p.data * 1.1 + 0.01

    def reward_fn(rewards, actions):
        return rewards + 0.05 * actions.sum(axis=1)

    def loss(q_tot):
        return ctde.build_td_loss(stale, flat, q_tot, 0.95, buffers, reward_fn)

    q_tot, cache = ctde.qtot_forward(net, mixer, flat, buffers)
    analytic = ctde.qtot_backward(net, mixer, cache, loss(q_tot)[1])
    error = fd_max_rel_error(lambda: loss(ctde.qtot_forward(net, mixer, flat, buffers)[0])[0],
                              params, analytic)
    assert error < 1e-4


def test_total_loss_decomposition_exact():
    # the learner's loss_total against its own loss_e and loss_d
    batch = _toy_batch(T=3, episodes=4, seed=8)
    spec = EnvSpec(2, 3, 3, 2, 3)
    config = {**DEFAULT_CONFIG["training"], "hidden": [6, 6], "mix_embed": 6, "lr": 1e-3,
              "buffer_episodes": 4, "batch_episodes": 4, "stale_interval": 100,
              "gamma": 0.95}
    learner = QLearner(spec, 2, 9, config)
    for ep in batch:
        learner.buffer.add(ep)
    lam = 0.7

    def extra_loss(q_tot, flat):
        loss_d, d_qtot, stats = diff_loss(q_tot, flat, 1.1, 0.95, 0.02, lam)
        return loss_d * lam, d_qtot, stats

    stats = learner.td_train_step(extra_loss_fn=extra_loss)
    assert abs(stats["loss_total"] - (stats["loss_e"] + lam * stats["loss_d"])) <= 1e-12


def test_importance_score_examples():
    net = AgentQNet(3, 2, 2, hidden=(4, 4), rng=None)
    mixer = MonotonicMixer(2, 3, embed_dim=4)
    pol = MaskingPolicy(net, mixer, beta=0.1, lam=1.0, gamma=0.99, j_pi=0.0,
                        j_pi_stderr=0.0)
    net.mlp.biases[-1].data = np.array([2.0, 0.5])  # Q_keep = 2.0, Q_mask = 0.5
    gaps = pol.importance_vector(np.zeros((2, 3)))
    assert gaps[0] == pytest.approx(1.5)
    net.mlp.biases[-1].data = np.array([0.7, 0.7])  # symmetric case
    gaps = pol.importance_vector(np.zeros((2, 3)))
    assert gaps[0] == 0.0


def test_affine_transform_keeps_gap_ordering():
    rng = stream(11, "affine")
    q = rng.standard_normal((4, 2))
    gaps = q[:, 0] - q[:, 1]
    a, b = 2.7, -0.4  # positive affine transform applied to both entries
    gaps_t = (a * q[:, 0] + b) - (a * q[:, 1] + b)
    assert np.array_equal(np.argsort(-gaps), np.argsort(-gaps_t))


def test_all_zero_mask_reproduces_unmasked_trajectory():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    mask_rng = stream(0, "never-used")
    untouched = stream(0, "never-used")
    plain = rollout.run_target_episode(env, 13, pol)
    masked = rollout.run_episode(
        env, 13, lambda obs, state, prefix: [apply_mask(a, 0, env.spec.n_actions, mask_rng)
                                             for a in greedy_actions(pol, obs)])
    assert len(plain.steps) == len(masked.steps)
    for a, b in zip(plain.steps, masked.steps):
        assert a.final_actions == b.final_actions
        assert a.reward == b.reward
        assert np.array_equal(a.observations, b.observations)
    # an all-zero mask never draws: the stream is still at its start
    assert mask_rng.bit_generator.state == untouched.bit_generator.state


def test_train_emai_rejects_mismatched_target():
    env = make_env("spread", n_agents=3, grid=8)
    other = make_env("keycorridor")
    with pytest.raises(IncompatibilityError):
        train_emai(scripted_policy(other), env, {"steps": 10})


@pytest.mark.parametrize("key", ["batch_episode", "diff_loss_mode", "episodes"])
def test_train_emai_rejects_unknown_config_key(key):
    env = make_env("keycorridor")
    with pytest.raises(ValueError, match=key):
        train_emai(scripted_policy(env), env, {"steps": 10, key: 4})


class _QueryOnlyTarget:
    """Proxy exposing exactly the black-box query surface."""

    def __init__(self, inner):
        self._act, self._act_batch = inner.act, inner.act_batch
        self.obs_dim = inner.obs_dim
        self.n_agents = inner.n_agents

    def act(self, obs):
        return self._act(obs)

    def act_batch(self, obs):
        return self._act_batch(obs)

    def checksum(self):
        return "query-only"


class _UnqueriedTarget(_QueryOnlyTarget):
    def act(self, obs):
        raise AssertionError("training started")

    act_batch = act


@pytest.mark.parametrize("overrides", [{"beta": -1.0}, {"lambda": -0.5},
                                       {"beta": None, "beta_scale": -1.0}])
def test_train_emai_rejects_negative_weights_before_training(overrides):
    env = make_env("keycorridor")
    baseline = BaselineEstimate(0.0, 0.0, 0.1, 1, 0.99)
    with pytest.raises(ValueError, match="beta and lambda must be >= 0"):
        train_emai(_UnqueriedTarget(scripted_policy(env)), env, overrides, baseline=baseline)


def test_train_emai_black_box_compliance():
    # the trainer must run against a target that offers only act() and act_batch()
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=6)
    proxy = _QueryOnlyTarget(scripted_policy(env))
    policy, _ = train_emai(proxy, env,
                           {"steps": 400, "baseline_episodes": 5, "beta": 0.05,
                            "lambda": 0.0, "batch_episodes": 4, "buffer_episodes": 50,
                            "hidden": (16, 16), "epsilon_anneal_steps": 300},
                           seed=2)
    assert policy.n_agents == 3
    assert policy.target_checksum == "query-only"


def test_train_emai_reduces_to_td_when_beta_lambda_zero():
    # beta = 0 and lambda = 0: reward_fn adds nothing and no extra loss term
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=6)
    pol = scripted_policy(env)
    cfg = {"steps": 300, "baseline_episodes": 5, "beta": 0.0, "lambda": 0.0,
           "batch_episodes": 4, "buffer_episodes": 50, "hidden": (16, 16)}
    policy, curves = train_emai(pol, env, cfg, seed=3)
    assert policy.beta == 0.0 and policy.lam == 0.0
    for row in curves:
        assert np.isnan(row["loss_d"])  # difference loss never entered training


def test_train_emai_curve_columns():
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=4)
    pol = scripted_policy(env)
    rows = []
    _, curves = train_emai(pol, env, {"steps": 400, "baseline_episodes": 3, "beta": 0.05,
                                      "lambda": 0.5, "batch_episodes": 4,
                                      "buffer_episodes": 50, "hidden": (8, 8)},
                           seed=2, progress=rows.append)
    assert [row["episodes"] for row in curves] == [50, 100]
    assert rows == curves
    for row in curves:
        assert list(row) == ["env_steps", "episodes", "epsilon", "loss_e", "loss_d",
                             "loss_total", "mask_rate", "episode_reward"]
        assert 0.0 <= row["mask_rate"] <= 1.0
        assert all(np.isfinite(v) for v in row.values())


def test_masking_checkpoint_roundtrip(tmp_path):
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=6)
    pol = scripted_policy(env)
    policy, _ = train_emai(pol, env, {"steps": 120, "baseline_episodes": 3,
                                      "beta": 0.05, "lambda": 0.5,
                                      "batch_episodes": 4, "buffer_episodes": 20,
                                      "hidden": (8, 8)}, seed=4)
    path = tmp_path / "mask.json"
    policy.save(path, env=env)
    loaded = MaskingPolicy.load(path)
    _, obs = env.reset(0)
    assert np.array_equal(policy.importance_vector(obs), loaded.importance_vector(obs))
    assert loaded.j_pi == policy.j_pi and loaded.beta == policy.beta
    assert loaded.target_checksum == policy.target_checksum


@pytest.mark.parametrize("mixer_kind", ["monotonic"])
def test_masking_checkpoint_doc_roundtrips_exactly(mixer_kind):
    env = make_env("spread", n_agents=3, grid=6)
    rng = stream(21, "mask-doc")
    net = AgentQNet(env.spec.obs_dim, 3, 2, hidden=(8, 8), rng=rng)
    mixer = MonotonicMixer(3, env.spec.state_dim, 4, rng=rng)
    policy = MaskingPolicy(net, mixer, beta=0.013, lam=0.5, gamma=0.97, j_pi=1.0 / 3.0,
                           j_pi_stderr=0.07, target_checksum="ab" * 32)
    doc = policy.to_doc(env, training_step=77)
    assert doc["ctde"]["mixer_kind"] == mixer_kind
    loaded = MaskingPolicy.from_doc(json.loads(json.dumps(doc)))
    assert loaded.to_doc(env, training_step=77) == doc


@pytest.mark.parametrize("key", ["beta", "lambda", "gamma", "j_pi", "j_pi_stderr",
                                 "target_checksum", "ctde"])
def test_masking_checkpoint_missing_field_is_value_error(key):
    net = AgentQNet(4, 2, 2, hidden=(4, 4), rng=None)
    doc = MaskingPolicy(net, MonotonicMixer(2, 3, 4), beta=0.1, lam=0.0, gamma=0.99,
                        j_pi=0.0, j_pi_stderr=0.0).to_doc()
    del doc[key]
    with pytest.raises(ValueError):
        MaskingPolicy.from_doc(doc)


def test_masking_checkpoint_without_mixer_rejected():
    net = AgentQNet(4, 2, 2, hidden=(4, 4), rng=None)
    doc = MaskingPolicy(net, MonotonicMixer(2, 3, 4), beta=0.1, lam=0.0, gamma=0.99,
                        j_pi=0.0, j_pi_stderr=0.0).to_doc()
    doc["ctde"].update(mixer_kind="none", mixer=None)  # a well-formed learned-target document
    with pytest.raises(ValueError, match="needs a mixer"):
        MaskingPolicy.from_doc(doc)
