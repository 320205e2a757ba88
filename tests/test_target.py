"""Target policies: scripted rules, black-box discipline, learned training."""
from __future__ import annotations

import ast
import inspect
import itertools
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emai import envs, masking, rollout, target
from emai.envs import DOWN, LEFT, RIGHT, STAY, UP, GridBatch, KeyCorridor, make_env
from emai.rng import stream
from emai.target import (CapabilityError, LearnedPolicy, ScriptedDiagnostic,
                         ScriptedKeyCorridor, ScriptedSpread, privileged_q_network,
                         scripted_policy, train_target)


def _observations_at(env, positions, landmarks=()) -> np.ndarray:
    """`env`'s observations with its agents and landmarks on the given cells
    and the door closed, from a one-row GridBatch built by its constructor."""
    tables = env._tables()
    landmark_cells = tables.flat(np.array(landmarks, dtype=np.int64).reshape(1, -1, 2))
    row = GridBatch(env, tables, tables.flat(np.array([positions])), landmark_cells,
                    np.zeros(1, dtype=bool), 0, False)
    return row.observations()[0]


def test_scripted_spread_moves_right_toward_landmark():
    env = make_env("spread", n_agents=2, grid=8)
    # agent 0 strictly left of its landmark
    obs = _observations_at(env, [(3, 1), (6, 6)], [(3, 4), (6, 6)])
    pol = scripted_policy(env)
    assert pol.act(obs)[0] == RIGHT


def test_scripted_spread_stays_on_distinct_landmarks():
    env = make_env("spread", n_agents=3, grid=8)
    obs = _observations_at(env, [(1, 1), (4, 4), (6, 2)], [(1, 1), (4, 4), (6, 2)])
    pol = scripted_policy(env)
    assert pol.act(obs) == [STAY, STAY, STAY]


def test_scripted_keycorridor_first_action_toward_switch():
    env = make_env("keycorridor")
    _, obs = env.reset(0)
    pol = scripted_policy(env)
    assert pol.act(obs)[0] == RIGHT  # start zone is left of the switch


def test_scripted_keycorridor_waits_at_closed_door():
    env = make_env("keycorridor")
    obs = _observations_at(env, [(4, 0), (2, 4), (2, 4)])
    pol = scripted_policy(env)
    assert pol.act(obs)[1:] == [STAY, STAY]


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
    assert pol.act(obs) == pol.act(obs)


def test_learned_policy_greedy_with_tiebreak():
    net = target.AgentQNet(4, 2, 3, hidden=(4, 4), rng=None)  # all-zero -> all ties
    pol = LearnedPolicy(net)
    assert pol.act(np.zeros((2, 4))) == [0, 0]


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
    assert all(a in range(5) for a in pol.act(obs))


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
    learned = mean_reward(pol.act)
    rand = mean_reward(lambda obs: list(rng.integers(0, 5, size=2)))
    assert learned > rand


def test_checkpoint_roundtrip(tmp_path):
    env = make_env("spread", n_agents=2, grid=5, horizon=5)
    pol, _ = train_target(env, {"steps": 0}, seed=3)
    path = tmp_path / "ckpt.json"
    target.save_checkpoint(pol, env, path)
    loaded = target.load_checkpoint(path)
    _, obs = env.reset(1)
    assert loaded.act(obs) == pol.act(obs)


def test_weakened_keycorridor_drags_feet():
    env = make_env("keycorridor")
    strong = ScriptedKeyCorridor()
    weak = ScriptedKeyCorridor(weakened=True)
    obs = _observations_at(env, [(4, 0), (0, 1), (0, 3)])  # teammate 1 on an odd-parity cell
    assert strong.act(obs)[0] == RIGHT
    assert weak.act(obs)[0] == STAY
    obs = _observations_at(env, [(4, 0), (0, 0), (0, 3)])  # teammate 1 on even parity
    assert weak.act(obs)[0] == RIGHT
    # teammates keep their usual routine under both variants
    assert weak.act(obs)[1:] == strong.act(obs)[1:]


def test_masking_module_never_touches_privileged_accessor():
    # black-box discipline: the masking trainer sees only act and act_batch
    source = inspect.getsource(masking)
    assert "privileged" not in source
    assert "_qnet" not in source
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert not node.attr.startswith("privileged")


# ---- act_batch against the per-agent reference ----
# Each target's rule for one agent, read from that agent's own observation
# row alone, in plain Python: entry [b, i] of act_batch must equal
# _reference_act(pol, obs[b, i], i).

def _denorm(value: float, extent: int) -> int:
    """Undo the [-1, 1] own-position normalization, robust to noisy inputs."""
    cell = round((value + 1.0) * (extent - 1) / 2.0)
    return int(min(max(cell, 0), extent - 1))


def _denorm_rel(value: float, extent: int) -> int:
    return int(round(value * (extent - 1)))


def _step_toward(dr: int, dc: int) -> int:
    if dr != 0:
        return UP if dr < 0 else DOWN
    if dc != 0:
        return LEFT if dc < 0 else RIGHT
    return STAY


def _spread_act(pol, obs, agent_id: int) -> int:
    g, n = pol.grid, pol.n_agents
    own = (_denorm(obs[0], g), _denorm(obs[1], g))

    def cell(dr, dc):
        return (min(max(own[0] + _denorm_rel(dr, g), 0), g - 1),
                min(max(own[1] + _denorm_rel(dc, g), 0), g - 1))

    landmarks = [cell(obs[2 + 2 * k], obs[3 + 2 * k]) for k in range(n)]
    base = 2 + 2 * n
    positions = {agent_id: own}
    for slot, j in enumerate(j for j in range(n) if j != agent_id):
        positions[j] = cell(obs[base + 2 * slot], obs[base + 2 * slot + 1])
    claimed: set[int] = set()
    for i in range(agent_id + 1):  # claims in id order, up to this agent's own
        best, best_d = -1, None
        for k, lm in enumerate(landmarks):
            if k in claimed:
                continue
            d = abs(positions[i][0] - lm[0]) + abs(positions[i][1] - lm[1])
            if best_d is None or d < best_d:
                best, best_d = k, d
        claimed.add(best)
    mine = landmarks[best]
    return _step_toward(mine[0] - own[0], mine[1] - own[1])


def _bfs_distances(passable, goal: tuple[int, int]) -> dict:
    """Breadth-first path lengths to goal over the passable keycorridor cells."""
    dist = {goal: 0}
    dq = deque([goal])
    while dq:
        cell = dq.popleft()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nb = (cell[0] + dr, cell[1] + dc)
            if nb in dist or not (0 <= nb[0] < KeyCorridor.ROWS and 0 <= nb[1] < KeyCorridor.COLS):
                continue
            if not passable(nb):
                continue
            dist[nb] = dist[cell] + 1
            dq.append(nb)
    return dist


def _move_toward(own: tuple[int, int], dist: dict) -> int:
    """The first move (UP, DOWN, LEFT, RIGHT order) onto a strictly nearer
    cell; STAY on the goal and off its reachable set."""
    here = dist.get(own)
    if here is None or here == 0:
        return STAY
    best_action, best_d = STAY, here
    for action, (dr, dc) in ((UP, (-1, 0)), (DOWN, (1, 0)), (LEFT, (0, -1)), (RIGHT, (0, 1))):
        d = dist.get((own[0] + dr, own[1] + dc))
        if d is not None and d < best_d:
            best_action, best_d = action, d
    return best_action


def _reference_moves() -> dict:
    """{(agent, door open, (row, col)): move}: agent 0 heads for the switch
    and agents 1-2 for the antechamber while the door is closed, all for
    the goal once it is open."""
    walls, door = KeyCorridor.WALLS, KeyCorridor.DOOR
    waypoints = (KeyCorridor.SWITCH, ScriptedKeyCorridor.ANTECHAMBER,
                 ScriptedKeyCorridor.ANTECHAMBER)
    cells = list(itertools.product(range(KeyCorridor.ROWS), range(KeyCorridor.COLS)))
    moves = {}
    for agent, door_open in itertools.product(range(3), (False, True)):
        if door_open:
            dist = _bfs_distances(lambda cell: cell not in walls, KeyCorridor.GOAL_ANCHOR)
        else:
            dist = _bfs_distances(lambda cell: cell not in walls and cell != door,
                                  waypoints[agent])
        moves.update({(agent, door_open, cell): _move_toward(cell, dist) for cell in cells})
    return moves


KEYCORRIDOR_MOVES = _reference_moves()


def test_keycorridor_route_table_equals_bfs_reference():
    table = ScriptedKeyCorridor._moves()
    assert table.shape == (3, 2, KeyCorridor.ROWS * KeyCorridor.COLS)
    assert len(KEYCORRIDOR_MOVES) == table.size == 210
    for (agent, door_open, (r, c)), move in KEYCORRIDOR_MOVES.items():
        assert table[agent, int(door_open), r * KeyCorridor.COLS + c] == move, (agent, door_open,
                                                                               (r, c))


def _keycorridor_act(pol, obs, agent_id: int) -> int:
    rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
    r, c = _denorm(obs[0], rows), _denorm(obs[1], cols)
    if obs[2] > 0.0:  # the door is open
        return KEYCORRIDOR_MOVES[(agent_id, True, (r, c))]
    if agent_id == 0 and pol.weakened and (r, c) != KeyCorridor.SWITCH:
        mate_r = min(max(r + _denorm_rel(obs[9], rows), 0), rows - 1)
        mate_c = min(max(c + _denorm_rel(obs[10], cols), 0), cols - 1)
        if (mate_r + mate_c) % 2 == 1:
            return STAY  # foot-dragging: advances on half the steps
    return KEYCORRIDOR_MOVES[(agent_id, False, (r, c))]


def _diagnostic_act(pol, obs, agent_id: int) -> int:
    return _step_toward(_denorm_rel(obs[2], pol.grid), _denorm_rel(obs[3], pol.grid))


def _learned_act(pol, obs, agent_id: int) -> int:
    rows = np.zeros((pol.n_agents, pol.obs_dim))  # a set whose other agents see zeros
    rows[agent_id] = obs
    return int(np.argmax(pol._qnet.q_all_agents(rows)[agent_id]))  # lowest index wins ties


REFERENCE_ACTS = {ScriptedSpread: _spread_act, ScriptedKeyCorridor: _keycorridor_act,
                  ScriptedDiagnostic: _diagnostic_act, LearnedPolicy: _learned_act}


def _reference_act(pol, obs, agent_id: int) -> int:
    obs = np.asarray(obs, dtype=np.float64)
    assert obs.shape == (pol.obs_dim,)
    return REFERENCE_ACTS[type(pol)](pol, obs, agent_id)


def _row_by_row(pol, obs) -> list:
    """The joint actions act_batch must return, one reference call per agent."""
    return [[_reference_act(pol, o, i) for i, o in enumerate(row)] for row in obs]


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
@given(obs=arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3), st.just(13)),
                  elements=OBS_VALUES),
       weakened=st.booleans())
def test_keycorridor_act_batch_equals_act(obs, weakened):
    pol = ScriptedKeyCorridor(weakened=weakened)
    batch = pol.act_batch(obs)
    assert batch.dtype == np.int64 and batch.shape == (len(obs), 3)
    assert batch.tolist() == _row_by_row(pol, obs)


def test_keycorridor_act_batch_rounds_ties_like_act():
    own_cols = [k / 3 - 1 for k in range(7)]
    grid = np.array(list(itertools.product(OWN_ROW_TIES, own_cols, REL_ROW_TIES, REL_COL_TIES)))
    obs = np.zeros((len(grid), 13))
    obs[:, [0, 1, 9, 10]] = grid
    obs[:, 2] = -1.0  # door closed: agent 0's foot-dragging reads teammate 1's parity
    joint = np.repeat(obs[:, None], 3, axis=1)  # every agent sees every tie row
    for weakened in (False, True):
        pol = ScriptedKeyCorridor(weakened=weakened)
        out = pol.act_batch(joint)
        for i in range(3):
            assert out[:, i].tolist() == [_reference_act(pol, row, i) for row in obs]


def test_keycorridor_act_batch_on_visited_states():
    env = make_env("keycorridor")
    for weakened in (False, True):
        pol = ScriptedKeyCorridor(weakened=weakened)
        for seed in range(4):
            trace = rollout.run_target_episode(env, seed, pol)
            obs = np.stack([s.observations for s in trace.steps])
            assert pol.act_batch(obs).tolist() == _row_by_row(pol, obs)


def _grid_ties(grid: int) -> list[float]:
    """Observation values that decode exactly onto a .5 tie on this grid:
    own cells (v + 1) * (grid - 1) / 2 and relative cells v * (grid - 1)."""
    return ([(2 * k + 1) / (grid - 1) - 1 for k in range(grid)]
            + [(k + 0.5) / (grid - 1) for k in range(-grid, grid)])


SCRIPTED_GRIDS = {"name": st.sampled_from(["spread", "diagnostic"]),
                  "n_agents": st.integers(2, 4), "grid": st.integers(3, 8)}


def _visited_observations(env, seed: int, noise: float, steps: int) -> np.ndarray:
    """Observations of 12 episodes of `env` after `steps` random joint moves,
    clean (noise 0) or noise-perturbed, as the attack feeds them."""
    batch = env.reset_batch([seed + k for k in range(12)])
    rng = stream(seed, "scripted-visited")
    for _ in range(steps):
        batch.step(rng.integers(0, 5, size=(batch.size, env.spec.n_agents)))
    obs = batch.observations()
    return np.clip(obs + rng.uniform(-noise, noise, obs.shape), -1.0, 1.0)


def _arbitrary_rows(data, env, grid: int) -> np.ndarray:
    """1 to 8 joint observations of `env`'s shape, of any values in
    [-1.5, 1.5] and of values that decode onto a .5 tie on this grid."""
    values = st.one_of(st.floats(-1.5, 1.5, allow_nan=False), st.sampled_from(_grid_ties(grid)))
    return data.draw(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(env.spec.n_agents),
                                                 st.just(env.spec.obs_dim)), elements=values))


def _random_init_learned(env, hidden: tuple[int, int], seed: int) -> LearnedPolicy:
    spec = env.spec
    return LearnedPolicy(target.AgentQNet(spec.obs_dim, spec.n_agents, spec.n_actions,
                                          hidden=hidden, rng=stream(seed, "learned-init")))


VISITED = {"seed": st.integers(0, 2**32), "noise": st.sampled_from([0.0, 0.02, 0.2, 0.6]),
           "steps": st.integers(0, 6)}
LEARNED_HIDDEN = st.sampled_from([(8, 8), (32, 16)])


@settings(max_examples=150, deadline=None)
@given(**SCRIPTED_GRIDS, **VISITED)
def test_scripted_act_batch_equals_act_on_visited_states(name, n_agents, grid, seed, noise,
                                                         steps):
    env = make_env(name, n_agents=n_agents, grid=grid, horizon=8)
    pol = scripted_policy(env)
    obs = _visited_observations(env, seed, noise, steps)
    out = pol.act_batch(obs)
    assert out.dtype == np.int64 and out.shape == (len(obs), n_agents)
    assert out.tolist() == _row_by_row(pol, obs)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), **SCRIPTED_GRIDS)
def test_scripted_act_batch_equals_act_on_arbitrary_rows(data, name, n_agents, grid):
    env = make_env(name, n_agents=n_agents, grid=grid)
    pol = scripted_policy(env)
    obs = _arbitrary_rows(data, env, grid)
    assert pol.act_batch(obs).tolist() == _row_by_row(pol, obs)


@settings(max_examples=60, deadline=None)
@given(**SCRIPTED_GRIDS, **VISITED, hidden=LEARNED_HIDDEN)
def test_learned_act_batch_equals_act_on_visited_states(name, n_agents, grid, seed, noise,
                                                        steps, hidden):
    env = make_env(name, n_agents=n_agents, grid=grid, horizon=8)
    pol = _random_init_learned(env, hidden, seed)
    obs = _visited_observations(env, seed, noise, steps)
    out = pol.act_batch(obs)
    assert out.dtype == np.int64 and out.shape == (len(obs), n_agents)
    assert out.tolist() == _row_by_row(pol, obs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), **SCRIPTED_GRIDS, hidden=LEARNED_HIDDEN, seed=st.integers(0, 2**16))
def test_learned_act_batch_equals_act_on_arbitrary_rows(data, name, n_agents, grid, hidden,
                                                        seed):
    env = make_env(name, n_agents=n_agents, grid=grid)
    pol = _random_init_learned(env, hidden, seed)
    obs = _arbitrary_rows(data, env, grid)
    assert pol.act_batch(obs).tolist() == _row_by_row(pol, obs)


def test_scripted_act_batch_rejects_non_finite_rows():
    for env in (make_env("spread", n_agents=3, grid=5), make_env("diagnostic", n_agents=3)):
        for agent in range(3):
            bad = np.zeros((2, 3, env.spec.obs_dim))
            bad[1, agent, 3] = np.inf
            with pytest.raises(ValueError, match="non-finite"):
                scripted_policy(env).act_batch(bad)


def test_act_batch_rejects_wrong_shapes():
    learned = LearnedPolicy(target.AgentQNet(13, 3, 5, hidden=(8, 8), rng=stream(0, "shape")))
    for pol in (ScriptedKeyCorridor(), learned):
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros(13))  # one row, not a batch
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros((3, 13)))  # one joint observation, not a batch
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros((4, 3, 12)))
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros((2, 4, 13)))  # four agents, not three
        with pytest.raises(ValueError):
            pol.act_batch(np.zeros((1, 2, 3, 13)))
    bad = np.zeros((2, 3, 13))
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ScriptedKeyCorridor().act_batch(bad)


ONE_ROW_CASES = {"spread": ("spread", {"n_agents": 3, "grid": 5, "horizon": 8}),
                 "keycorridor": ("keycorridor", {}),
                 "diagnostic": ("diagnostic", {"n_agents": 4, "grid": 5, "horizon": 8}),
                 "learned": ("spread", {"n_agents": 2, "grid": 5, "horizon": 8})}


@pytest.mark.parametrize("kind", sorted(ONE_ROW_CASES))
def test_act_is_the_one_row_view_of_act_batch(kind):
    name, params = ONE_ROW_CASES[kind]
    env = make_env(name, **params)
    spec = env.spec
    pol = (LearnedPolicy(target.AgentQNet(spec.obs_dim, spec.n_agents, spec.n_actions,
                                          hidden=(8, 8), rng=stream(4, "one-row")))
           if kind == "learned" else scripted_policy(env))
    batch = env.reset_batch(list(range(6)))
    batch.step(stream(4, "one-row-moves").integers(0, 5, size=(6, spec.n_agents)))
    for obs in batch.observations():
        joint = pol.act(obs)
        assert joint == pol.act_batch(obs[None])[0].tolist()
        assert all(type(a) is int for a in joint)
    for shape in [(spec.obs_dim,), (spec.n_agents + 1, spec.obs_dim),
                  (spec.n_agents, spec.obs_dim - 1), (1, spec.n_agents, spec.obs_dim)]:
        with pytest.raises(ValueError, match="observation shape"):
            pol.act(np.zeros(shape))
    # a scalar episode asks the kernel once per step, for one joint row
    calls = []
    kernel = pol.act_batch

    def spy(obs):
        calls.append(obs.shape)
        return kernel(obs)

    pol.act_batch = spy
    trace = rollout.run_target_episode(env, 3, pol)
    assert len(trace.steps) == spec.horizon
    assert calls == [(1, spec.n_agents, spec.obs_dim)] * spec.horizon


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
