"""Target policies: scripted rules, black-box discipline, learned training."""
from __future__ import annotations

import ast
import inspect
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emai import envs, masking, rollout, target
from emai.envs import RIGHT, STAY, make_env
from emai.rng import stream
from emai.target import (CapabilityError, LearnedPolicy, ScriptedKeyCorridor,
                         privileged_q_network, scripted_policy, train_target)


def test_scripted_spread_moves_right_toward_landmark():
    env = make_env("spread", n_agents=2, grid=8)
    env.reset(0)
    env.positions = [(3, 1), (6, 6)]
    env.landmarks = [(3, 4), (6, 6)]  # agent 0 strictly left of its landmark
    obs = env.observations()
    pol = scripted_policy(env)
    assert pol.act(obs[0], 0) == RIGHT


def test_scripted_spread_stays_on_distinct_landmarks():
    env = make_env("spread", n_agents=3, grid=8)
    env.reset(0)
    env.positions = [(1, 1), (4, 4), (6, 2)]
    env.landmarks = [(1, 1), (4, 4), (6, 2)]
    obs = env.observations()
    pol = scripted_policy(env)
    assert [pol.act(obs[i], i) for i in range(3)] == [STAY, STAY, STAY]


def test_scripted_keycorridor_first_action_toward_switch():
    env = make_env("keycorridor")
    _, obs = env.reset(0)
    pol = scripted_policy(env)
    assert pol.act(obs[0], 0) == RIGHT  # start zone is left of the switch


def test_scripted_keycorridor_waits_at_closed_door():
    env = make_env("keycorridor")
    env.reset(0)
    env.positions = [(4, 0), (2, 4), (2, 4)]
    obs = env.observations()
    pol = scripted_policy(env)
    assert pol.act(obs[1], 1) == STAY
    assert pol.act(obs[2], 2) == STAY


def test_scripted_keycorridor_full_episode_success():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    trace = rollout.run_target_episode(env, 0, pol)
    opened = [s for s in trace.steps if s.state[2 * env.n] > 0]
    assert opened, "door never opened"
    final_state = trace.steps[-1].state
    cols = [final_state[2 * i + 1] for i in range(3)]
    assert all(c == pytest.approx(1.0) for c in cols)  # all in the goal column
    assert trace.episode_reward > 0


def test_act_is_pure():
    env = make_env("keycorridor")
    _, obs = env.reset(3)
    pol = scripted_policy(env)
    for i in range(3):
        assert pol.act(obs[i], i) == pol.act(obs[i], i)


def test_learned_policy_greedy_with_tiebreak():
    net = target.AgentQNet(4, 2, 3, hidden=(4, 4), rng=None)  # all-zero -> all ties
    pol = LearnedPolicy(net)
    assert pol.act(np.zeros(4), 0) == 0
    assert pol.act(np.zeros(4), 1) == 0


def test_privileged_accessor_rejects_scripted():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    with pytest.raises(CapabilityError):
        privileged_q_network(pol)


def test_zero_step_budget_returns_random_init_policy():
    env = make_env("spread", n_agents=2, grid=5, horizon=5)
    pol, curves = train_target(env, {"steps": 0}, seed=0)
    assert isinstance(pol, LearnedPolicy)
    assert curves == []
    _, obs = env.reset(0)
    assert pol.act(obs[0], 0) in range(5)


@pytest.mark.parametrize("key", ["batch_episode", "beta", "lambda"])
def test_train_target_rejects_unknown_config_key(key):
    # "beta" and "lambda" belong to the emai section, not to target training
    with pytest.raises(ValueError, match=key):
        train_target(make_env("keycorridor"), {"steps": 0, key: 4}, seed=0)


def test_train_target_curve_columns():
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=4)
    rows = []
    _, curves = train_target(env, {"steps": 400, "batch_episodes": 4, "buffer_episodes": 50,
                                   "hidden": [8, 8]}, seed=2, progress=rows.append)
    assert [row["episodes"] for row in curves] == [50, 100]
    assert rows == curves
    for row in curves:
        assert list(row) == ["env_steps", "episodes", "epsilon", "loss", "episode_reward"]
        assert np.isfinite(row["loss"]) and np.isfinite(row["episode_reward"])


def test_train_target_smoke_improves_over_random():
    # short-budget sanity: learned policy beats uniform-random play
    env = make_env("spread", n_agents=2, grid=5, horizon=10)
    pol, _ = train_target(env, {"steps": 8000, "epsilon_anneal_steps": 5000,
                                "hidden": [32, 32], "batch_episodes": 16,
                                "buffer_episodes": 400}, seed=1)

    def mean_reward(actor):
        total = 0.0
        for i in range(40):
            _, obs = env.reset(10_000 + i)
            done = False
            while not done:
                result = env.step(actor(obs))
                total += result.reward
                obs, done = result.observations, result.done
        return total / 40

    rng = stream(2, "rand-base")
    learned = mean_reward(lambda obs: [pol.act(obs[i], i) for i in range(2)])
    rand = mean_reward(lambda obs: list(rng.integers(0, 5, size=2)))
    assert learned > rand


def test_checkpoint_roundtrip(tmp_path):
    env = make_env("spread", n_agents=2, grid=5, horizon=5)
    pol, _ = train_target(env, {"steps": 0}, seed=3)
    path = tmp_path / "ckpt.json"
    target.save_checkpoint(pol, env, path)
    loaded = target.load_checkpoint(path)
    _, obs = env.reset(1)
    for i in range(2):
        assert loaded.act(obs[i], i) == pol.act(obs[i], i)


def test_weakened_keycorridor_drags_feet():
    env = make_env("keycorridor")
    strong = ScriptedKeyCorridor()
    weak = ScriptedKeyCorridor(weakened=True)
    env.reset(0)
    env.positions = [(4, 0), (0, 1), (0, 3)]  # teammate 1 on an odd-parity cell
    obs = env.observations()
    assert strong.act(obs[0], 0) == RIGHT
    assert weak.act(obs[0], 0) == STAY
    env.positions = [(4, 0), (0, 0), (0, 3)]  # teammate 1 on even parity
    obs = env.observations()
    assert weak.act(obs[0], 0) == RIGHT
    # teammates keep their usual routine under both variants
    assert weak.act(obs[1], 1) == strong.act(obs[1], 1)


def test_masking_module_never_touches_privileged_accessor():
    # black-box discipline: the masking trainer sees only target.act
    source = inspect.getsource(masking)
    assert "privileged" not in source
    assert "_qnet" not in source
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert not node.attr.startswith("privileged")


# ---- act_batch: exactly [act(row, i) for row in obs] ----

# Decoded values that land exactly on a .5 tie, where Python round() and
# np.rint must agree (both round half to even): own row (v + 1) * 2, relative
# row v * 4 and relative column v * 6 on the 5 x 7 keycorridor grid.
OWN_ROW_TIES = [-1.25, -0.75, -0.25, 0.25, 0.75, 1.25]
REL_ROW_TIES = [-0.875, -0.625, -0.375, -0.125, 0.125, 0.375, 0.625, 0.875]
REL_COL_TIES = [-1.25, -0.75, -0.25, 0.25, 0.75, 1.25]
GRID_VALUES = sorted({k / 4 for k in range(-6, 7)} | {k / 6 for k in range(-9, 10)})
OBS_VALUES = st.one_of(st.floats(-1.5, 1.5, allow_nan=False),
                       st.sampled_from(OWN_ROW_TIES + REL_ROW_TIES + REL_COL_TIES + GRID_VALUES))


@settings(max_examples=300, deadline=None)
@given(obs=arrays(np.float64, st.tuples(st.integers(1, 8), st.just(13)), elements=OBS_VALUES),
       agent=st.integers(0, 2), weakened=st.booleans())
def test_keycorridor_act_batch_equals_act(obs, agent, weakened):
    pol = ScriptedKeyCorridor(weakened=weakened)
    batch = pol.act_batch(obs, agent)
    assert batch.dtype == np.int64 and batch.shape == (len(obs),)
    assert batch.tolist() == [pol.act(row, agent) for row in obs]


def test_keycorridor_act_batch_rounds_ties_like_act():
    own_cols = [k / 3 - 1 for k in range(7)]
    grid = np.array(list(itertools.product(OWN_ROW_TIES, own_cols, REL_ROW_TIES, REL_COL_TIES)))
    obs = np.zeros((len(grid), 13))
    obs[:, [0, 1, 9, 10]] = grid
    obs[:, 2] = -1.0  # door closed: agent 0's foot-dragging reads teammate 1's parity
    for weakened in (False, True):
        pol = ScriptedKeyCorridor(weakened=weakened)
        for i in range(3):
            assert pol.act_batch(obs, i).tolist() == [pol.act(row, i) for row in obs]


def test_keycorridor_act_batch_on_visited_states():
    env = make_env("keycorridor")
    for weakened in (False, True):
        pol = ScriptedKeyCorridor(weakened=weakened)
        for seed in range(4):
            trace = rollout.run_target_episode(env, seed, pol)
            obs = np.stack([s.observations for s in trace.steps])
            for i in range(3):
                assert pol.act_batch(obs[:, i], i).tolist() == [pol.act(o, i) for o in obs[:, i]]


def test_default_act_batch_loops_over_act():
    class OnlyAct(target.TargetPolicy):
        obs_dim, n_agents = 4, 2

        def act(self, obs, agent_id):
            obs = self._check_obs(obs)
            return int(abs(obs.sum()) * 1000 + agent_id) % 5

        def descriptor(self):
            return "only-act"

    pol = OnlyAct()
    obs = stream(3, "only-act").uniform(-1, 1, size=(9, 4))
    for i in range(2):
        out = pol.act_batch(obs, i)
        assert out.dtype == np.int64
        assert out.tolist() == [pol.act(row, i) for row in obs]
    assert pol.act_batch(np.zeros((0, 4)), 0).shape == (0,)


def test_act_batch_rejects_wrong_shapes():
    learned = LearnedPolicy(target.AgentQNet(13, 3, 5, hidden=(8, 8), rng=stream(0, "shape")))
    for pol in (ScriptedKeyCorridor(), learned):
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros(13), 0)  # one row, not a batch
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros((4, 12)), 0)
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros((2, 4, 13)), 0)
    bad = np.zeros((2, 13))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        ScriptedKeyCorridor().act_batch(bad, 0)


def test_checkpoint_doc_roundtrips_exactly(tmp_path):
    env = make_env("spread", n_agents=3, grid=6)
    pol = LearnedPolicy(target.AgentQNet(env.spec.obs_dim, 3, 5, hidden=(8, 8),
                                         rng=stream(8, "ckpt-doc")))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    target.save_checkpoint(pol, env, first, training_step=12)
    target.save_checkpoint(target.load_checkpoint(first), env, second, training_step=12)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["mixer_kind"] == "none" and doc["mixer"] is None
    assert doc["env"] == "spread" and doc["training_step"] == 12
