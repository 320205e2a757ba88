"""Explainers: definitions, access discipline, and the Monte-Carlo oracle."""
from __future__ import annotations

import ast
import copy
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from autodiff import Tensor, mlp_forward
from emai import explain as explain_mod
from emai.envs import KeyCorridor, make_env
from emai.explain import (EmaiExplainer, ExplainContext, Explainer, GradientBasedExplainer,
                          McOracleExplainer, RandomExplainer, ValueBasedExplainer,
                          make_explainer, mc_counterfactual_oracle)
from emai.masking import MaskingPolicy
from emai.nn import NumericsError, ShapeError
from emai.rng import episode_seed, stream
from emai.rollout import greedy_actions, replay_prefix, run_lockstep, run_target_episode
from emai.target import (AgentQNet, CapabilityError, LearnedPolicy,
                         scripted_by_name, scripted_policy, train_target)
from emai import ctde


def _ctx_for(env, seed=0):
    state, obs = env.reset(seed)
    return ExplainContext(obs, state, 0, env.name, env.params, seed, [])


def _learned_target(env, seed=0):
    net = AgentQNet(env.spec.obs_dim, env.spec.n_agents, env.spec.n_actions,
                    hidden=(16, 16), rng=stream(seed, "lt"))
    return LearnedPolicy(net)


def test_random_explainer_uniform_most_critical():
    ex = RandomExplainer(seed=3)
    n = 4
    counts = np.zeros(n)
    for k in range(10_000):
        ctx = ExplainContext(np.zeros((n, 2)), np.zeros(1), k)
        counts[ex.most_critical(ctx)] += 1
    freqs = counts / 10_000
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def _random_scores(ex: RandomExplainer, ctx: ExplainContext) -> np.ndarray:
    """Reference random scores: one stream per queried context."""
    draws = stream(ex.seed, "random-explainer", ctx.episode_seed, ctx.t)
    return draws.random(len(ctx.observations))


@pytest.mark.parametrize("name,params", [("keycorridor", {}), ("spread", {"grid": 5}),
                                         ("diagnostic", {"grid": 5, "inert": (1,)})])
def test_random_explainer_scores_batch_equals_scalar_scores(name, params):
    env = make_env(name, **params)
    seeds = [0, 7, 2**32 - 1, 2**32, 2**32 + 7, 2**62 + 5, episode_seed(1, "fidelity", 0)]
    obs = env.reset_batch(seeds).observations()
    ex = RandomExplainer(seed=2**33 + 1)
    for t in (0, 9):
        got = ex.scores_batch(obs, t, seeds, None)
        contexts = [ExplainContext(o, np.zeros(1), t, env.name, episode_seed=s)
                    for o, s in zip(obs, seeds)]
        expected = np.stack([_random_scores(ex, ctx) for ctx in contexts])
        assert got.tobytes() == expected.tobytes()
        # scores() is the one-row view of the same kernel
        assert np.stack([ex.scores(ctx) for ctx in contexts]).tobytes() == expected.tobytes()


def test_value_based_is_max_q_per_agent():
    env = make_env("spread", n_agents=3, grid=6)
    target = _learned_target(env)
    ex = ValueBasedExplainer(target)
    ctx = _ctx_for(env, seed=5)
    scores = ex.scores(ctx)
    net = target._qnet
    expected = net.q_all_agents(ctx.observations).max(axis=1)
    assert np.allclose(scores, expected)


def test_gradient_based_matches_finite_difference_oracle():
    env = make_env("spread", n_agents=2, grid=6)
    target = _learned_target(env, seed=7)
    ex = GradientBasedExplainer(target)
    ctx = _ctx_for(env, seed=8)
    scores = ex.scores(ctx)

    net = target._qnet

    def log_p_np(obs_vec, agent):
        # independent numpy-only forward of log softmax(Q)[argmax]
        x = np.concatenate([obs_vec, np.eye(2)[agent]])
        for w, b, act in zip(net.mlp.weights, net.mlp.biases, net.mlp.activations):
            x = x @ w.data + b.data
            if act == "relu":
                x = np.maximum(x, 0.0)
        chosen = int(np.argmax(x))
        return x[chosen] - (np.log(np.exp(x - x.max()).sum()) + x.max())

    eps = 1e-6
    for agent in range(2):
        obs = ctx.observations[agent].astype(float)
        grad = np.zeros_like(obs)
        for j in range(len(obs)):
            up, down = obs.copy(), obs.copy()
            up[j] += eps
            down[j] -= eps
            grad[j] = (log_p_np(up, agent) - log_p_np(down, agent)) / (2 * eps)
        assert scores[agent] == pytest.approx(np.abs(grad).sum(), rel=1e-4)


def test_gradient_based_forms_no_target_weight_gradient():
    # only the input's gradient is read: the target's parameters get no .grad
    env = make_env("spread", n_agents=2, grid=6)
    target = _learned_target(env, seed=7)
    params = target._qnet.params()
    before = [p.data.copy() for p in params]
    ex = GradientBasedExplainer(target)
    for seed in range(3):
        ex.scores(_ctx_for(env, seed=seed))
    assert all(p.grad is None for p in params)
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))


# ---- the saliency kernel against the autodiff graph ----

def _graph_saliency(qnet, observations) -> np.ndarray:
    """Reference saliency of one observation set: per agent, the L1 norm of
    the input gradient of log softmax(Q)[argmax Q], backpropagated through
    the autodiff graph of a frozen copy of the net's MLP on the set's
    (n, in) input. The agents' log-probabilities are summed, so each
    agent's input row gets the gradient of its own."""
    mlp = copy.deepcopy(qnet.mlp)
    for p in mlp.params():
        p.requires_grad = False
    obs = np.asarray(observations, dtype=np.float64)
    x = Tensor(np.concatenate([obs, np.eye(qnet.n_agents)], axis=1), requires_grad=True)
    q = mlp_forward(mlp, x)
    shift = q.numpy().max(axis=1, keepdims=True)
    log_z = (q - shift).exp().sum(axis=1).log() + shift[:, 0]
    pick = np.eye(qnet.n_actions)[q.numpy().argmax(axis=1)]  # lowest index on ties
    log_p = (q * Tensor(pick)).sum(axis=1) - log_z
    log_p.sum().backward()
    return np.abs(x.grad[:, :qnet.obs_dim]).sum(axis=1)


SALIENCY_ENVS = [("keycorridor", {}), ("spread", {"n_agents": 3, "grid": 6}),
                 ("diagnostic", {"n_agents": 3, "grid": 6, "horizon": 10})]


@pytest.mark.parametrize("trained", [False, True], ids=["random-init", "trained"])
@pytest.mark.parametrize("name,params", SALIENCY_ENVS, ids=[e[0] for e in SALIENCY_ENVS])
def test_gradient_kernel_equals_graph_saliency(name, params, trained):
    env = make_env(name, **params)
    if trained:
        target, _ = train_target(env, {"steps": 1500, "hidden": [32, 32], "batch_episodes": 4,
                                       "buffer_episodes": 50}, seed=3)
    else:
        target = _learned_target(env, seed=11)
    ex = GradientBasedExplainer(target)
    obs_log = []

    def act(batch, obs):
        obs_log.append(obs)
        return target.act_batch(obs)

    run_lockstep(env.reset_batch(list(range(20))), act)
    pool = np.concatenate(obs_log)[stream(5, "saliency-rows").permutation(200)]
    reference = np.stack([_graph_saliency(target._qnet, o) for o in pool])
    for size in (1, 7, 200):
        got = ex.scores_batch(pool[:size], 0, list(range(size)), None)
        assert np.array_equal(got, reference[:size]), size
    for o, ref in zip(pool, reference):
        assert np.array_equal(ex.scores(ExplainContext(o, np.zeros(1), 0)), ref)


def test_gradient_kernel_tied_max_q_takes_lowest_index():
    # agent 0's hidden units 0 and 1 read 2 * obs[0] and obs[1], and Q
    # actions 1 and 3 read those units; at obs[1] == 2 * obs[0] the two
    # actions tie for the max with different input gradients
    env = make_env("diagnostic", n_agents=3, grid=6)
    net = AgentQNet(env.spec.obs_dim, 3, env.spec.n_actions, hidden=(4, 4))
    w0, w1, w2 = (w.data for w in net.mlp.weights)
    w0[0, 0], w0[1, 1] = 2.0, 1.0
    w1[0, 0], w1[1, 1] = 1.0, 1.0
    w2[0, 1], w2[1, 3] = 1.0, 1.0
    obs = stream(6, "tie").uniform(-1.0, 1.0, (3, env.spec.obs_dim))
    obs[0, :2] = 0.25, 0.5
    q = net.q_all_agents(obs)[0]
    assert q[1] == q[3] == q.max() and q[0] < q[1]
    ex = GradientBasedExplainer(LearnedPolicy(net))
    scores = ex.scores(ExplainContext(obs, np.zeros(1), 0))
    assert np.array_equal(scores, _graph_saliency(net, obs))
    assert np.array_equal(ex.scores_batch(obs[None], 0, [0], None)[0], scores)
    # the gradient of log p(1) is (1 - p) * 2 along obs[0] and -p along obs[1]
    p = 1.0 / np.exp(q - q.max()).sum()
    assert scores[0] == pytest.approx(2.0 - p) and scores[0] != pytest.approx(1.0 + p)


def test_white_box_explainers_reject_scripted_target():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    with pytest.raises(CapabilityError):
        ValueBasedExplainer(pol)
    with pytest.raises(CapabilityError):
        GradientBasedExplainer(pol)
    with pytest.raises(CapabilityError):
        make_explainer("value", target=pol)


def test_oracle_inert_agent_importance_zero():
    env = make_env("diagnostic", n_agents=3, grid=6, horizon=10, inert=(2,))
    pol = scripted_policy(env)
    scores, stderr = mc_counterfactual_oracle(pol, env, episode_seed=4,
                                              prefix_actions=[], rollouts=16, seed=0)
    assert scores[2] == 0.0
    assert scores[2] < 2 * stderr[2] + 1e-12


def test_oracle_keycorridor_pre_switch_agent0_dominates():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    scores, _ = mc_counterfactual_oracle(pol, env, episode_seed=0,
                                         prefix_actions=[], rollouts=64, seed=1)
    assert int(np.argmax(scores)) == 0
    assert scores[0] > max(scores[1], scores[2])


def test_oracle_door_never_opens_without_agent0_in_scripted_play():
    # hand-traceable: freeze agent 0 in place of randomizing; the scripted
    # teammates head for the door, never the switch, so it stays closed
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    _, obs = env.reset(0)
    done = False
    while not done:
        actions = pol.act(obs)
        actions[0] = 0  # agent 0 contributes nothing
        result = env.step(actions)
        obs, done = result.observations, result.done
    assert not env.branch(1).door_open.any()


def test_oracle_stderr_shrinks_with_rollouts():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    _, se_k = mc_counterfactual_oracle(pol, env, 0, [], rollouts=48, seed=2)
    _, se_2k = mc_counterfactual_oracle(pol, env, 0, [], rollouts=96, seed=2)
    ratio = se_2k[0] / se_k[0]
    assert 0.45 < ratio < 0.95  # roughly 1/sqrt(2)


def test_oracle_seed_stability_between_batches():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    s_a, se_a = mc_counterfactual_oracle(pol, env, 0, [], rollouts=64, seed=100)
    s_b, se_b = mc_counterfactual_oracle(pol, env, 0, [], rollouts=64, seed=200)
    combined = np.sqrt(se_a ** 2 + se_b ** 2)
    assert np.all(np.abs(s_a - s_b) <= 3 * combined + 1e-12)


def test_oracle_validates_rollouts():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    with pytest.raises(ValueError):
        mc_counterfactual_oracle(pol, env, 0, [], rollouts=0)
    with pytest.raises(ValueError):
        McOracleExplainer(pol, rollouts=0)


def test_every_explainer_returns_n_finite_scores():
    env = make_env("spread", n_agents=3, grid=6)
    learned = _learned_target(env)
    mp = MaskingPolicy(AgentQNet(env.spec.obs_dim, 3, 2, hidden=(8, 8),
                                 rng=stream(1, "mp")),
                       ctde.MonotonicMixer(3, env.spec.state_dim, 4), beta=0.1, lam=0.0, gamma=0.99,
                       j_pi=0.0, j_pi_stderr=0.0)
    explainers = [EmaiExplainer(mp), RandomExplainer(0), ValueBasedExplainer(learned),
                  GradientBasedExplainer(learned), McOracleExplainer(learned, rollouts=2)]
    ctx = _ctx_for(env, seed=9)
    for ex in explainers:
        scores = ex.scores(ctx)
        assert scores.shape == (3,) and scores.dtype == np.float64
        assert np.all(np.isfinite(scores))


def test_emai_explainer_scores_are_gaps():
    env = make_env("spread", n_agents=3, grid=6)
    qnet = AgentQNet(env.spec.obs_dim, 3, 2, hidden=(8, 8), rng=stream(2, "gaps"))
    mp = MaskingPolicy(qnet, ctde.MonotonicMixer(3, env.spec.state_dim, 4), beta=0.1, lam=0.0, gamma=0.99,
                       j_pi=0.0, j_pi_stderr=0.0)
    ctx = _ctx_for(env, seed=10)
    scores = EmaiExplainer(mp).scores(ctx)
    q = qnet.q_all_agents(ctx.observations)
    assert np.allclose(scores, q[:, 0] - q[:, 1])


def test_black_box_paths_never_reference_privileged_accessor():
    source = inspect.getsource(explain_mod)
    tree = ast.parse(source)
    whitebox_spans = []
    import_lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in (
                "ValueBasedExplainer", "GradientBasedExplainer"):
            whitebox_spans.append((node.lineno, node.end_lineno))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            import_lines.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "privileged_q_network":
            allowed = (node.lineno in import_lines
                       or any(lo <= node.lineno <= hi for lo, hi in whitebox_spans))
            assert allowed, (f"privileged accessor referenced outside white-box "
                             f"classes (line {node.lineno})")


def test_prefix_replay_context_reaches_oracle():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    trace = run_target_episode(env, 0, pol)
    prefix = [s.final_actions for s in trace.steps[:5]]
    ex = McOracleExplainer(pol, rollouts=8, seed=3)
    ctx = ExplainContext(trace.steps[5].observations, trace.steps[5].state, 5,
                         env.name, env.params, 0, prefix)
    scores = ex.scores(ctx)
    assert scores.shape == (3,) and np.all(np.isfinite(scores))


# ---- the batched oracle against the scalar reference ----

def _scalar_oracle(target, env, episode_seed, prefix_actions, rollouts, seed=0):
    """Reference oracle: scalar steps of env deepcopies, one unmasked suffix
    and one suffix rollout per (agent, rollout), drawing each random action
    as the step comes; rewards add left to right."""
    replay_prefix(env, episode_seed, prefix_actions)
    n = env.spec.n_agents
    t = len(prefix_actions)
    branch = copy.deepcopy(env)
    unmasked, obs, done = 0.0, branch.observations(), branch.done
    while not done:
        result = branch.step(greedy_actions(target, obs))
        unmasked += result.reward
        obs, done = result.observations, result.done
    scores, stderr = np.zeros(n), np.zeros(n)
    for i in range(n):
        returns = np.empty(rollouts)
        for k in range(rollouts):
            rng = stream(seed, "mc-oracle", episode_seed, t, i, k)
            branch = copy.deepcopy(env)
            total, obs, done = 0.0, branch.observations(), branch.done
            while not done:
                actions = greedy_actions(target, obs)
                actions[i] = int(rng.integers(0, branch.spec.n_actions))
                result = branch.step(actions)
                total += result.reward
                obs, done = result.observations, result.done
            returns[k] = total
        scores[i] = abs(returns.mean() - unmasked)
        stderr[i] = returns.std(ddof=1) / np.sqrt(rollouts) if rollouts > 1 else 0.0
    return scores, stderr


def _assert_oracles_equal(target, env_name, env_params, episode_seed, prefix, rollouts, seed):
    batched = mc_counterfactual_oracle(target, make_env(env_name, **env_params),
                                       episode_seed, prefix, rollouts, seed)
    scalar = _scalar_oracle(target, make_env(env_name, **env_params),
                            episode_seed, prefix, rollouts, seed)
    assert np.array_equal(batched[0], scalar[0]) and np.array_equal(batched[1], scalar[1])
    return batched


def _assert_scores_batch_equal_scalar(target, env, seeds, prefixes, rollouts, seed):
    """scores_batch of the episodes of `seeds` at step t = prefixes.shape[1],
    asked with the live batch that stepped those prefixes, equals each
    episode's scalar scores(), row for row, bitwise, and leaves the batch
    as it was."""
    oracle = McOracleExplainer(target, rollouts=rollouts, seed=seed)
    t = prefixes.shape[1]
    batch = env.reset_batch(seeds)
    for s in range(t):
        batch.step(prefixes[:, s])
    before = (batch.cells.copy(), batch.landmark_cells.copy(), batch.door_open.copy())
    batched = oracle.scores_batch(batch.observations(), t, seeds, batch)
    assert batch.t == t
    for kept, now in zip(before, (batch.cells, batch.landmark_cells, batch.door_open)):
        assert np.array_equal(kept, now)
    scalar = [oracle.scores(ExplainContext(None, None, t, env.name, env.params, s, p.tolist()))
              for s, p in zip(seeds, prefixes)]
    assert np.array_equal(batched, np.stack(scalar))
    return batched


def _trace_prefixes(traces, t, n_agents=3) -> np.ndarray:
    """(len(traces), t, n_agents) executed joint actions before step t."""
    return np.array([[s.final_actions for s in tr.steps[:t]] for tr in traces],
                    dtype=np.int64).reshape(len(traces), t, n_agents)


@pytest.mark.parametrize("variant,episode", [("default", 3), ("weakened", 5)])
def test_batched_oracle_matches_scalar_on_keycorridor(variant, episode):
    env = make_env("keycorridor")
    pol = scripted_by_name(env, variant)
    trace = run_target_episode(env, episode, pol)
    assert len(trace.steps) == 30
    for t in (0, 6, 12, 18, 24, 29, 30):
        prefix = [s.final_actions for s in trace.steps[:t]]
        scores, stderr = _assert_oracles_equal(pol, "keycorridor", {}, episode, prefix,
                                               rollouts=8, seed=4)
        if t == 30:  # nothing left to randomize
            assert not scores.any() and not stderr.any()
    for t in (0, 24):  # the production rollout count
        prefix = [s.final_actions for s in trace.steps[:t]]
        _assert_oracles_equal(pol, "keycorridor", {}, episode, prefix, rollouts=64, seed=4)
    # scores_batch: episodes of several seeds, each at its own prefix
    seeds = [episode + 10 * j for j in range(5)]
    traces = [run_target_episode(env, s, pol) for s in seeds]
    for t in (0, 12, 29, 30):
        _assert_scores_batch_equal_scalar(pol, env, seeds, _trace_prefixes(traces, t),
                                          rollouts=8, seed=4)
    _assert_scores_batch_equal_scalar(pol, env, seeds[:3], _trace_prefixes(traces[:3], 24),
                                      rollouts=64, seed=4)


def test_oracle_scores_batch_spans_row_blocks(monkeypatch):
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    per_block = explain_mod.ORACLE_ROW_BLOCK // (1 + 3 * 64)
    # a full block of episodes, then two more, with the evaluation arms' 63-bit seeds
    seeds = [episode_seed(6, "fidelity", i) for i in range(per_block + 2)]
    traces = [run_target_episode(env, s, pol) for s in seeds]
    for t in (0, 24):
        _assert_scores_batch_equal_scalar(pol, env, seeds, _trace_prefixes(traces, t),
                                          rollouts=64, seed=4)
    # blocks of two episodes, the last one short, against the one-stream-per-rollout loop
    monkeypatch.setattr(explain_mod, "ORACLE_ROW_BLOCK", 2 * (1 + 3 * 8) + 1)
    prefixes = _trace_prefixes(traces[:5], 12)
    batched = _assert_scores_batch_equal_scalar(pol, env, seeds[:5], prefixes, rollouts=8, seed=4)
    for row, s, prefix in zip(batched, seeds, prefixes):
        assert np.array_equal(row, _scalar_oracle(pol, env, s, prefix.tolist(), 8, 4)[0])


def test_batched_oracle_matches_scalar_on_diagnostic():
    for params in ({"n_agents": 3, "grid": 6, "horizon": 10, "inert": (2,)},
                   {"n_agents": 3, "grid": 5, "horizon": 8, "zero_reward": True}):
        env = make_env("diagnostic", **params)
        pol = scripted_policy(env)
        scores, _ = _assert_oracles_equal(pol, "diagnostic", params, 4, [[1, 2, 3]] * 3,
                                          rollouts=8, seed=0)
        assert scores[2] == 0.0
        for rollouts in (8, 64):
            batched = _assert_scores_batch_equal_scalar(pol, env, [4, 5, 6],
                                                        np.array([[[1, 2, 3]] * 3] * 3),
                                                        rollouts, seed=0)
            assert not batched[:, 2].any()


def test_batched_oracle_matches_scalar_with_learned_target():
    params = {"n_agents": 3, "grid": 5, "horizon": 8}
    pol = _learned_target(make_env("spread", **params), seed=2)
    assert type(pol).act_batch is LearnedPolicy.act_batch  # one stacked forward
    _assert_oracles_equal(pol, "spread", params, 6, [[4, 0, 1]] * 2, rollouts=4, seed=1)
    env = make_env("spread", **params)
    for rollouts in (8, 64):
        _assert_scores_batch_equal_scalar(pol, env, [6, 7, 8], np.array([[[4, 0, 1]] * 2] * 3),
                                          rollouts, seed=1)


def test_batched_oracle_single_rollout_has_zero_stderr():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    _, stderr = _assert_oracles_equal(pol, "keycorridor", {}, 2, [], rollouts=1, seed=7)
    assert not stderr.any()


def test_sized_draw_equals_single_draws():
    # the oracle takes a rollout's actions in one draw of size m; the scalar
    # path drew them one per step, so numpy must keep these equal
    for n_actions in (2, 5):
        for key in range(20):
            m = 3 + key
            sized = stream(key, "mc-oracle", n_actions).integers(0, n_actions, size=m)
            rng = stream(key, "mc-oracle", n_actions)
            assert sized.tolist() == [int(rng.integers(0, n_actions)) for _ in range(m)]


def test_oracle_rejects_prefix_that_does_not_reach_t():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    trace = run_target_episode(env, 0, pol)
    step = trace.steps[5]
    ex = McOracleExplainer(pol, rollouts=2)
    with pytest.raises(ValueError, match="prefix"):
        ex.scores(ExplainContext(step.observations, step.state, 5, env.name, episode_seed=0))
    prefix = [s.final_actions for s in trace.steps[:5]]
    scores = ex.scores(ExplainContext(step.observations, step.state, 5, env.name,
                                      episode_seed=0, prefix_actions=prefix))
    assert scores.shape == (3,)


@pytest.mark.parametrize("t", [0, 7, 29])
def test_scalar_oracle_query_steps_only_its_unmasked_suffix(monkeypatch, t):
    """The prefix replay only moves the agents, and the unmasked suffix
    steps the one-row batch: a query makes no scalar step, and asks one row
    of act_batch horizon - t times."""
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    trace = run_target_episode(env, 4, pol)
    step = trace.steps[t]
    ctx = ExplainContext(step.observations, step.state, t, env.name, env.params, 4,
                         [s.final_actions for s in trace.steps[:t]])
    steps, rows = [], []
    step_fn, act_batch = KeyCorridor.step, pol.act_batch

    def counted(self, joint_action):
        steps.append(joint_action)
        return step_fn(self, joint_action)

    def asked(obs):
        rows.append(len(obs))
        return act_batch(obs)

    monkeypatch.setattr(KeyCorridor, "step", counted)
    monkeypatch.setattr(pol, "act_batch", asked)
    McOracleExplainer(pol, rollouts=2, seed=1).scores_with_stderr(ctx)
    assert steps == []
    assert rows.count(1) == env.spec.horizon - t


def test_oracle_scores_batch_needs_the_live_batch_of_its_rows():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    ex = McOracleExplainer(pol, rollouts=2)
    batch = env.reset_batch([0, 1])
    batch.step(np.zeros((2, 3), dtype=np.int64))
    obs = batch.observations()
    with pytest.raises(ValueError, match="no batch"):
        ex.scores_batch(obs, 1, [0, 1], None)
    with pytest.raises(ValueError, match="t=2"):
        ex.scores_batch(obs, 2, [0, 1], batch)
    with pytest.raises(ValueError, match="3 episode seeds"):
        ex.scores_batch(obs, 1, [0, 1, 2], batch)
    # the one-row scores() view has no batch to copy
    with pytest.raises(ValueError, match="no batch"):
        Explainer.scores(ex, ExplainContext(obs[0], None, 1, env.name, episode_seed=0))
    assert ex.scores_batch(obs, 1, [0, 1], batch).shape == (2, 3)


# ---- batched learned inference: stacked blocks, bitwise the one-row calls ----

@pytest.mark.parametrize("size", [1, 2, 3, 40])
def test_learned_act_batch_and_value_scores_batch_equal_row_calls(size):
    env = make_env("keycorridor")
    net = AgentQNet(env.spec.obs_dim, 3, env.spec.n_actions, hidden=(64, 64),
                    rng=stream(size, "learned-batch"))
    pol = LearnedPolicy(net)
    batch = env.reset_batch(list(range(size)))
    batch.step(stream(size, "learned-batch-moves").integers(0, 5, size=(size, 3)))
    obs, states = batch.observations(), batch.states()
    joint = pol.act_batch(obs)
    assert joint.shape == (size, 3)
    assert joint.tolist() == [pol.act(o) for o in obs]
    assert np.array_equal(net.q_all_agents(obs), np.stack([net.q_all_agents(o) for o in obs]))
    value = ValueBasedExplainer(pol)
    expected = [value.scores(ExplainContext(obs[b], states[b], 1, env.name, env.params, b,
                                            [[0, 0, 0]])) for b in range(size)]
    assert np.array_equal(value.scores_batch(obs, 1, list(range(size)), batch),
                          np.stack(expected))


ROW_LOCAL_NETS = [("keycorridor", {}, (16, 16)), ("spread", {"n_agents": 3, "grid": 6}, (64, 64)),
                  ("diagnostic", {"n_agents": 4, "grid": 6}, (8, 32))]


@settings(max_examples=60, deadline=None)
@given(net_case=st.sampled_from(ROW_LOCAL_NETS), size=st.sampled_from([1, 7, 40]),
       seed=st.integers(0, 2**32 - 1), zeros=st.booleans(), data=st.data())
def test_learned_queries_are_row_local(net_case, size, seed, zeros, data):
    """Redrawing every row of a stack but agent i's row of set b (as zeros
    or fresh draws) leaves that agent's learned action, value score and
    gradient score bitwise unchanged: one stacked query is row-local."""
    name, params, hidden = net_case
    spec = make_env(name, **params).spec
    rng = stream(seed, "row-local")
    net = AgentQNet(spec.obs_dim, spec.n_agents, spec.n_actions, hidden=hidden, rng=rng)
    pol = LearnedPolicy(net)
    value, gradient = ValueBasedExplainer(pol), GradientBasedExplainer(pol)
    b, i = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, spec.n_agents - 1))
    obs = rng.uniform(-1.0, 1.0, (size, spec.n_agents, spec.obs_dim))
    redrawn = (np.zeros_like(obs) if zeros
               else rng.uniform(-1.0, 1.0, (size, spec.n_agents, spec.obs_dim)))
    redrawn[b, i] = obs[b, i]

    def results(stack):
        seeds = list(range(size))
        return [pol.act_batch(stack)[b, i], value.scores_batch(stack, 0, seeds, None)[b, i],
                gradient.scores_batch(stack, 0, seeds, None)[b, i]]

    for got, expected in zip(results(redrawn), results(obs), strict=True):
        assert got.tobytes() == expected.tobytes()


# ---- the emai explainer's memo: every row bitwise its set's forward alone ----

class _SignedPolicy(MaskingPolicy):
    """A masking policy that records the number of sets of each forward and
    adds each agent's count of negative sign bits to its scores, so that an
    answer for -0.0 taken from 0.0 shows."""

    def importance_vector(self, observations):
        self.forwards.append(len(observations))
        return super().importance_vector(observations) + np.signbit(observations).sum(axis=-1)


def _signed_policy(seed: int = 7) -> _SignedPolicy:
    net = AgentQNet(4, 3, 2, hidden=(8, 8), rng=stream(seed, "memo-policy"))
    policy = _SignedPolicy(net, ctde.MonotonicMixer(3, 5, 4), 0.1, 0.0, 0.99, 0.0, 0.0)
    policy.forwards = []
    return policy


def _one_set_scores(policy, sets: np.ndarray) -> np.ndarray:
    """Each set's scores from a forward of that set alone, forwards not recorded."""
    rows = np.stack([policy.importance_vector(s[None])[0] for s in sets])
    policy.forwards.clear()
    return rows


_memo_values = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
                | st.floats(-4.0, 4.0))


@st.composite
def _memo_calls(draw):
    """A pool of observation sets and their twins, each zero's sign flipped,
    and a list of calls, each a stack of pool sets in any order."""
    pool = draw(arrays(np.float64, (draw(st.integers(1, 5)), 3, 4), elements=_memo_values))
    pool = np.concatenate([pool, np.where(pool == 0.0, -pool, pool)])
    call = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12)
    return pool, draw(st.lists(call, min_size=1, max_size=6))


@settings(max_examples=80, deadline=None)
@given(_memo_calls())
def test_emai_memo_rows_equal_one_set_forwards(case):
    pool, calls = case
    policy = _signed_policy()
    reference = _one_set_scores(policy, pool)
    ex = EmaiExplainer(policy)
    seen = set()
    for call in calls:
        got = ex.scores_batch(pool[call], 0, list(range(len(call))), None)
        assert got.tobytes() == reference[call].tobytes()
        # one stacked forward of the call's distinct unseen sets, if it has any
        new = {pool[i].tobytes() for i in call} - seen
        assert policy.forwards == ([len(new)] if new else [])
        policy.forwards.clear()
        seen |= new
        got[...] = np.nan  # a caller's writes reach no later answer


def test_emai_memo_keeps_signed_zeros_apart():
    policy = _signed_policy()
    sets = np.zeros((2, 3, 4))
    sets[1] = -0.0
    reference = _one_set_scores(policy, sets)
    assert reference[0].tobytes() != reference[1].tobytes()
    ex = EmaiExplainer(policy)
    for order in ([0], [1], [1, 0, 1], [0, 1, 0]):
        assert ex.scores_batch(sets[order], 0, order, None).tobytes() == reference[order].tobytes()


def test_emai_memo_answers_are_new_arrays():
    policy = _signed_policy()
    sets = stream(3, "memo-writes").uniform(-1.0, 1.0, (3, 3, 4))
    reference = _one_set_scores(policy, sets)
    ex = EmaiExplainer(policy)
    for order in ([0, 1, 2], [2], [2, 0], [0, 1, 2], [1]):
        got = ex.scores_batch(sets[order], 0, order, None)
        assert got.tobytes() == reference[order].tobytes()
        got += 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_emai_memo_stores_no_set_of_a_call_that_fails_its_finite_check(bad):
    policy = _signed_policy()
    sets = stream(4, "memo-nan").uniform(-1.0, 1.0, (3, 3, 4))
    sets[2, 1, 3] = bad
    ex = EmaiExplainer(policy)
    ex.scores_batch(sets[:1], 0, [0], None)
    for _ in range(3):
        with pytest.raises(NumericsError):
            ex.scores_batch(sets, 0, [0, 1, 2], None)
        with pytest.raises(NumericsError):
            ex.scores_batch(sets[2:], 0, [2], None)
    # set 1 rode along with the failing set, so it is scored afresh
    policy.forwards.clear()
    got = ex.scores_batch(sets[:2], 0, [0, 1], None)
    assert policy.forwards == [1]
    assert got.tobytes() == _one_set_scores(policy, sets[:2]).tobytes()


def test_emai_memo_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(explain_mod, "EMAI_MEMO_SETS", 4)
    policy = _signed_policy()
    sets = stream(5, "memo-bound").uniform(-1.0, 1.0, (10, 3, 4))
    reference = _one_set_scores(policy, sets)
    ex = EmaiExplainer(policy)
    # calls and the forwards they make: sets 0, 1, 2 and then 5 are stored;
    # a call whose new sets do not fit is one forward of all its sets
    for order, forwards in (([0, 1, 2], [3]), ([3, 4, 0], [3]), ([5, 5], [1]), ([3], [1]),
                            ([2, 5, 0, 1], []), ([6, 7, 8, 9, 0], [5]), ([3], [1]),
                            ([1, 0], [])):
        got = ex.scores_batch(sets[order], 0, order, None)
        assert got.tobytes() == reference[order].tobytes(), order
        assert policy.forwards == forwards, order
        policy.forwards.clear()
        assert len(ex._rows) <= 4 and len(ex._store) <= 4
    assert len(ex._rows) == 4


def test_emai_memo_checks_the_set_shape():
    policy = _signed_policy()
    sets = stream(6, "memo-shape").uniform(-1.0, 1.0, (2, 3, 4))
    ex = EmaiExplainer(policy)
    ex.scores_batch(sets, 0, [0, 1], None)
    # the same bytes as sets of another shape are not the stored sets
    with pytest.raises(ShapeError):
        ex.scores_batch(sets.reshape(2, 4, 3), 0, [0, 1], None)
    assert ex.scores_batch(sets[:0], 0, [], None).shape == (0, 3)
