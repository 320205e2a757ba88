"""Environment contracts: determinism, shapes, rewards, movement rules."""
from __future__ import annotations

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emai import envs
from emai.envs import (DELTAS, LEFT, RIGHT, STAY, EnvError, EnvSpec, GridBatch, KeyCorridor,
                       StepResult, make_env)
from emai.masking import MASK, apply_mask
from emai.rng import episode_seeds, stream
from emai.target import ScriptedKeyCorridor, scripted_by_name

# recorded from stream(123, "recorded-fixture") draws over 2 actions
RECORDED_DISCRETE2 = [1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1]


# ---- the per-agent reference rules, written cell by cell in plain Python.
# An env implements every rule once, batched (GridBatch), and a scalar env is
# a one-row GridBatch; every row must equal these rules bitwise ----

def _norm_pos(pos, rows: int, cols: int) -> tuple[float, float]:
    return (2.0 * pos[0] / (rows - 1) - 1.0, 2.0 * pos[1] / (cols - 1) - 1.0)


def _rel(a, b, rows: int, cols: int) -> tuple[float, float]:
    return ((b[0] - a[0]) / (rows - 1), (b[1] - a[1]) / (cols - 1))


def spread_reward(positions, landmarks, n: int, grid: int) -> float:
    """The Spread team reward for a given configuration."""
    dist_sum = 0
    for lm in landmarks:
        dist_sum += min(abs(p[0] - lm[0]) + abs(p[1] - lm[1]) for p in positions)
    shared = 0
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if positions[i] == positions[j]:
                shared += 1
    return -(1.0 / (n * grid)) * dist_sum - 0.05 * shared


class ScalarGrid:
    """One state of `env` under the reference rules: simultaneous moves, of
    which a move into a wall, off the grid or into a closed door is a stay;
    keycorridor's switch, which opens the door for the rest of the episode;
    diagnostic's inert agents; and each env's reward, observation and state."""

    def __init__(self, env, positions, landmarks=(), door_open=False, t: int = 0):
        self.env = env
        self.positions = [tuple(p) for p in positions]
        self.landmarks = [tuple(p) for p in landmarks]
        self.door_open = bool(door_open)
        self.t = t
        self.done = t >= env.spec.horizon

    @classmethod
    def reset(cls, env, seed: int) -> "ScalarGrid":
        return cls(env, *env._place(seed))

    def _passable(self, cell) -> bool:
        env, (r, c) = self.env, cell
        if cell == env.DOOR:
            return self.door_open
        return 0 <= r < env._rows and 0 <= c < env._cols and cell not in env.WALLS

    def _move_all(self, actions: list[int]) -> None:
        inert = getattr(self.env, "inert", ())
        new = []
        for i, (pos, a) in enumerate(zip(self.positions, actions)):
            dr, dc = DELTAS[STAY if i in inert else a]
            cand = (pos[0] + dr, pos[1] + dc)
            new.append(cand if self._passable(cand) else pos)
        self.positions = new
        if self.env.name == "keycorridor" and KeyCorridor.SWITCH in new:
            self.door_open = True

    def _reward(self) -> float:
        env, positions = self.env, self.positions
        if env.name == "spread":
            return spread_reward(positions, self.landmarks, env.n, env.grid)
        if env.name == "keycorridor":
            return 0.1 * sum(1 for p in positions if p[1] == env.GOAL_COL) - 0.01
        if env.zero_reward:
            return 0.0
        lm = self.landmarks[0]
        active = [p for i, p in enumerate(positions) if i not in env.inert]
        dist = sum(abs(p[0] - lm[0]) + abs(p[1] - lm[1]) for p in active)
        return -dist / (max(1, len(active)) * env.grid)

    def _door_flag(self) -> list[float]:
        return [] if self.env.DOOR is None else [1.0 if self.door_open else -1.0]

    def observations(self) -> np.ndarray:
        env, positions = self.env, self.positions
        rows, cols = env._rows, env._cols
        out = []
        for i, own in enumerate(positions):
            parts = [*_norm_pos(own, rows, cols), *self._door_flag()]
            for cell in [*env.ANCHORS, *self.landmarks, *positions[:i], *positions[i + 1:]]:
                parts.extend(_rel(own, cell, rows, cols))
            out.append(np.array(parts))
        return np.stack(out)

    def state(self) -> np.ndarray:
        parts = []
        for cell in [*self.positions, *self.landmarks]:
            parts.extend(_norm_pos(cell, self.env._rows, self.env._cols))
        return np.array(parts + self._door_flag())

    def step(self, joint_action) -> StepResult:
        assert not self.done
        self._move_all([int(a) for a in joint_action])
        reward = self._reward()
        self.t += 1
        self.done = self.t >= self.env.spec.horizon
        return StepResult(self.state(), self.observations(), reward, self.done)


def _place(env, positions, door_open: bool = False) -> None:
    """Move a reset env's agents to `positions` and set its door flag at t = 0,
    keeping its landmarks; the row is built through the GridBatch constructor."""
    row = env.branch(1)
    env._row = GridBatch(env, row.tables, row.tables.flat(np.array([positions])),
                         row.landmark_cells, np.array([door_open]), 0, False)


def _cells(env) -> list:
    """The agents' (row, col) cells of a reset env."""
    return [tuple(p) for p in env.branch(1).positions[0].tolist()]


def _landmarks(env) -> list:
    return [tuple(p) for p in env.branch(1).landmarks[0].tolist()]


def _door(env) -> bool:
    return bool(env.branch(1).door_open[0])


def test_reset_deterministic():
    env = make_env("spread", n_agents=3, grid=8)
    _, obs_a = env.reset(7)
    _, obs_b = env.reset(7)
    assert np.array_equal(obs_a, obs_b)


def test_keycorridor_initial_door_closed():
    env = make_env("keycorridor")
    _, obs = env.reset(0)
    assert np.all(obs[:, 2] == -1.0)


@pytest.mark.parametrize("name,params", [
    ("spread", {"n_agents": 3, "grid": 8}),
    ("keycorridor", {}),
    ("diagnostic", {"n_agents": 4, "grid": 5}),
])
def test_observation_shapes(name, params):
    env = make_env(name, **params)
    for seed in (0, 1, 99):
        _, obs = env.reset(seed)
        assert obs.shape == (env.spec.n_agents, env.spec.obs_dim)


def test_wall_bump_is_noop():
    env = make_env("spread", n_agents=2, grid=8)
    env.reset(0)
    _place(env, [(0, 0), (5, 5)])
    env.step([LEFT, STAY])
    assert _cells(env)[0] == (0, 0)


def test_spread_reward_example():
    # direct evaluation of the reward formula
    assert spread_reward([(1, 1), (5, 5)], [(1, 1), (5, 6)], 2, 8) == pytest.approx(-0.0625)


def test_spread_collision_penalty():
    r = spread_reward([(2, 2), (2, 2)], [(2, 2), (2, 2)], 2, 8)
    assert r == pytest.approx(-0.05)


def test_keycorridor_switch_opens_door_permanently():
    env = make_env("keycorridor")
    env.reset(0)
    _place(env, [(4, 3), (0, 0), (0, 3)])
    result = env.step([RIGHT, STAY, STAY])  # agent 0 onto the switch
    assert _door(env)
    assert np.all(result.observations[:, 2] == 1.0)
    env.step([LEFT, STAY, STAY])
    assert _door(env)  # monotone within the episode


def test_door_blocks_until_open():
    env = make_env("keycorridor")
    env.reset(0)
    _place(env, [(4, 0), (2, 4), (0, 3)])
    env.step([STAY, RIGHT, STAY])
    assert _cells(env)[1] == (2, 4)  # closed door is a wall
    _place(env, _cells(env), door_open=True)
    env.step([STAY, RIGHT, STAY])
    assert _cells(env)[1] == (2, 5)


def test_random_action_recorded_sequence():
    # a masked action is a uniform draw over the action indices
    rng = stream(123, "recorded-fixture")
    assert [apply_mask(0, MASK, 2, rng) for _ in range(16)] == RECORDED_DISCRETE2


def test_trajectory_bitwise_reproducible():
    def run():
        env = make_env("spread", n_agents=3, grid=8)
        _, obs = env.reset(42)
        rows = [obs.copy()]
        rewards = []
        rng = stream(0, "traj-actions")
        for _ in range(env.spec.horizon):
            result = env.step(rng.integers(0, 5, size=3))
            rows.append(result.observations.copy())
            rewards.append(result.reward)
        return np.concatenate([r.reshape(-1) for r in rows]), rewards

    obs_a, rew_a = run()
    obs_b, rew_b = run()
    assert np.array_equal(obs_a, obs_b) and rew_a == rew_b


def test_spread_reward_nonpositive_and_zero_condition():
    rng = stream(2, "spread-prop")
    env = make_env("spread", n_agents=3, grid=6)
    for ep in range(20):
        env.reset(ep)
        for _ in range(5):
            r = env.step(rng.integers(0, 5, size=3)).reward
            assert r <= 0.0
    # zero iff landmarks all covered exactly and no shared cells
    assert spread_reward([(0, 0), (1, 1), (2, 2)], [(2, 2), (0, 0), (1, 1)], 3, 6) == 0.0


def test_door_flag_monotone_over_episode():
    env = make_env("keycorridor")
    rng = stream(3, "door-prop")
    for ep in range(10):
        _, obs = env.reset(ep)
        seen_open = False
        done = False
        while not done:
            result = env.step(rng.integers(0, 5, size=3))
            flag = result.observations[0, 2] > 0
            if seen_open:
                assert flag
            seen_open = seen_open or flag
            done = result.done


def test_observations_within_unit_range():
    rng = stream(4, "obs-range")
    for name, params in (("spread", {"n_agents": 3, "grid": 8}), ("keycorridor", {}),
                         ("diagnostic", {"n_agents": 3, "grid": 6})):
        env = make_env(name, **params)
        _, obs = env.reset(11)
        assert np.all(obs >= -1.0) and np.all(obs <= 1.0)
        done = False
        while not done:
            result = env.step(rng.integers(0, 5, size=env.spec.n_agents))
            assert np.all(result.observations >= -1.0)
            assert np.all(result.observations <= 1.0)
            done = result.done


def test_invalid_action_and_step_after_done():
    # the one-row view has no input check of its own: GridBatch.step's is it
    env = make_env("spread", n_agents=2, grid=5, horizon=2)
    assert env.done and env.t == 0
    for call in (lambda: env.step([0, 0]), lambda: env.branch(2), env.observations):
        with pytest.raises(EnvError, match="reset"):  # never reset
            call()
    env.reset(0)
    for bad in ([7, 0], [0, -1], [0], [0, 0, 0], [], 3):  # out of range, negative, wrong length
        with pytest.raises(EnvError):
            env.step(bad)
    assert env.t == 0  # a rejected step changes nothing
    env.step([0, 0])
    env.step(np.zeros(2, dtype=np.int64))
    assert env.done
    with pytest.raises(EnvError):
        env.step([0, 0])


@pytest.mark.parametrize("name,params", [("keycorridor", {}), ("spread", {"grid": 5}),
                                         ("diagnostic", {"inert": (1,)})])
def test_deepcopy_of_a_reset_env_steps_independently(name, params):
    # the oracle's unmasked suffix plays a deepcopy of the replayed env
    env = make_env(name, **params)
    env.reset(3)
    rng = stream(8, "deepcopy", name)
    env.step(rng.integers(0, 5, size=env.spec.n_agents))
    clone = copy.deepcopy(env)
    assert clone.branch(1).tables is env.branch(1).tables  # read-only, so shared
    before = (env.t, env.observations())
    acts = rng.integers(0, 5, size=(env.spec.horizon - 1, env.spec.n_agents))
    stepped = [clone.step(a) for a in acts]
    assert clone.done and not env.done
    assert env.t == before[0] and _same_bits(env.observations(), before[1])
    for a, other in zip(acts, stepped):
        mine = env.step(a)
        assert _same_bits(mine.next_state, other.next_state)
        assert _same_bits(mine.observations, other.observations)
        assert mine.reward == other.reward and mine.done == other.done


def test_diagnostic_inert_agent_never_moves():
    env = make_env("diagnostic", n_agents=3, grid=6, inert=(2,))
    env.reset(5)
    frozen = _cells(env)[2]
    rng = stream(5, "inert")
    for _ in range(10):
        env.step(rng.integers(0, 5, size=3))
        assert _cells(env)[2] == frozen


def test_simultaneous_moves_use_time_t_positions():
    env = make_env("spread", n_agents=2, grid=5)
    env.reset(0)
    _place(env, [(2, 2), (2, 3)])
    env.step([RIGHT, LEFT])  # swap through each other; no collision blocking
    assert _cells(env) == [(2, 3), (2, 2)]


def test_action_space_invariants():
    assert EnvSpec(2, 3, 3, 2, 5).n_actions == 2
    with pytest.raises(ValueError, match="n_actions"):
        EnvSpec(2, 3, 3, 1, 5)


def test_unknown_env_rejected():
    with pytest.raises(EnvError):
        make_env("atari")


def _no_tables(*args, **kwargs):
    raise AssertionError("a geometry's tables were built")


@pytest.mark.parametrize("name", ["spread", "diagnostic"])
def test_geometry_beyond_its_bounds_rejected_unbuilt(monkeypatch, name):
    # GridTables' pair arrays grow as (grid + 2)**4: about 26 GB at grid 200
    monkeypatch.setattr(envs.GridTables, "__init__", _no_tables)
    with pytest.raises(ValueError, match="above GRID_MAX 64"):
        make_env(name, n_agents=3, grid=envs.GRID_MAX + 1)
    with pytest.raises(ValueError, match="above AGENTS_MAX 64"):
        make_env(name, n_agents=envs.AGENTS_MAX + 1, grid=9)
    assert make_env(name, n_agents=3, grid=envs.GRID_MAX).grid == envs.GRID_MAX


def test_grid_too_small_for_its_entities_rejected_at_construction():
    # spread draws n distinct agent cells, diagnostic n agent cells and a landmark
    with pytest.raises(ValueError, match="too small for 70 agents"):
        make_env("spread", n_agents=70, grid=8)
    with pytest.raises(ValueError, match="too small for 4 agents and a landmark"):
        make_env("diagnostic", n_agents=4, grid=2)
    for grid in (-3, 1):  # a negative grid squares to a positive cell count
        with pytest.raises(ValueError, match="grid must be >= 2"):
            make_env("diagnostic", n_agents=2, grid=grid)
    for name, params in [("spread", {"n_agents": 64, "grid": 8}),
                         ("diagnostic", {"n_agents": 3, "grid": 2})]:
        make_env(name, **params).reset_batch([0, 1])  # a full grid still places


def test_keycorridor_geometry_sanity():
    # the switch corridor dead-ends next to agent 0's start zone
    assert KeyCorridor.SWITCH == (4, 4)
    assert (3, 4) in KeyCorridor.WALLS
    for zone_cell in KeyCorridor.START_ZONES[0]:
        assert zone_cell[0] == 4  # agent 0 starts inside the corridor
    for zone in KeyCorridor.START_ZONES:
        assert KeyCorridor.SWITCH not in zone


# ---- batched branches: GridBatch must reproduce the reference rules bitwise ----

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _step_pair(env, ref, joint_action) -> StepResult:
    """Step the env and its reference state; assert bitwise equality."""
    result, expected = env.step(joint_action), ref.step(joint_action)
    assert _same_bits(result.next_state, expected.next_state)
    assert _same_bits(result.observations, expected.observations)
    assert type(result.reward) is float and _same_bits(result.reward, expected.reward)
    assert result.done == expected.done == env.done and env.t == ref.t
    return result


def _step_lockstep(batch, copies, joint_actions):
    """Step the batch and one reference state per row; assert bitwise equality."""
    result = batch.step(joint_actions)
    scalar = [c.step(list(a)) for c, a in zip(copies, joint_actions)]
    assert _same_bits(result.observations, np.stack([s.observations for s in scalar]))
    assert _same_bits(batch.states(), np.stack([s.next_state for s in scalar]))
    assert _same_bits(result.reward, np.array([s.reward for s in scalar]))
    assert result.done == scalar[0].done
    assert [list(map(tuple, p)) for p in batch.positions.tolist()] == [c.positions for c in copies]
    return result


BATCH_CASES = [
    ("spread", {"n_agents": 3, "grid": 4, "horizon": 12}),
    ("spread", {"n_agents": 4, "grid": 2, "horizon": 8}),  # agents crowd and share cells
    ("keycorridor", {}),
    ("diagnostic", {"n_agents": 3, "grid": 4, "horizon": 10, "inert": (1,)}),
    ("diagnostic", {"n_agents": 3, "grid": 5, "horizon": 10, "zero_reward": True}),
]


@pytest.mark.parametrize("name,params", BATCH_CASES)
def test_batch_matches_scalar_copies_under_random_actions(name, params):
    env = make_env(name, **params)
    n, size = env.spec.n_agents, 24
    bumps = shared = 0
    for seed in range(3):
        env.reset(seed)
        ref = ScalarGrid.reset(env, seed)
        rng = stream(seed, "batch-vs-scalar", name)
        for _ in range(seed * 2):  # branch from a few different t
            _step_pair(env, ref, rng.integers(0, 5, size=n))
        batch = env.branch(size)
        copies = [copy.deepcopy(ref) for _ in range(size)]
        assert _same_bits(batch.observations(), np.stack([c.observations() for c in copies]))
        assert _same_bits(batch.states(), np.stack([c.state() for c in copies]))
        while not batch.done:
            before = batch.positions.copy()
            acts = rng.integers(0, 5, size=(size, n))
            _step_lockstep(batch, copies, acts)
            bumps += int(((acts != STAY) & (batch.positions == before).all(axis=-1)).sum())
            shared += sum(len(set(c.positions)) < n for c in copies)
    assert bumps > 0  # walls, edges or the door blocked some moves
    if name == "spread":
        assert shared > 0


def test_batch_door_opens_per_row_mid_rollout():
    env = make_env("keycorridor")
    env.reset(0)
    positions = [(4, 3), (2, 4), (0, 3)]  # agent 0 beside the switch, 1 at the door
    _place(env, positions)
    batch = env.branch(2)
    copies = [ScalarGrid(env, positions) for _ in range(2)]
    # row 1 steps agent 0 onto the switch; agent 1 still bumps the closed door
    _step_lockstep(batch, copies, [[STAY, RIGHT, STAY], [RIGHT, RIGHT, STAY]])
    assert batch.door_open.tolist() == [False, True]
    assert batch.positions[:, 1].tolist() == [[2, 4], [2, 4]]
    # next step the door lets agent 1 through in row 1 only
    result = _step_lockstep(batch, copies, [[STAY, RIGHT, STAY], [LEFT, RIGHT, STAY]])
    assert batch.positions[:, 1].tolist() == [[2, 4], [2, 5]]
    assert result.observations[:, :, 2].tolist() == [[-1.0] * 3, [1.0] * 3]
    assert not _door(env)  # branching copied the state; the source env is untouched


def test_batch_inert_agent_never_moves():
    env = make_env("diagnostic", n_agents=3, grid=6, inert=(2,))
    env.reset(5)
    frozen = _cells(env)[2]
    batch = env.branch(16)
    rng = stream(5, "inert-batch")
    while not batch.done:
        batch.step(rng.integers(0, 5, size=(16, 3)))
        assert (batch.positions[:, 2] == frozen).all()


def test_batch_rejects_what_the_scalar_env_rejects():
    env = make_env("spread", n_agents=2, grid=5, horizon=2)
    env.reset(0)
    batch = env.branch(3)
    with pytest.raises(EnvError):
        env.step([7, 0])
    with pytest.raises(EnvError, match="row 1, agent 0"):
        batch.step([[0, 0], [7, 0], [0, 0]])
    with pytest.raises(EnvError):
        batch.step([[0, -1], [0, 0], [0, 0]])
    with pytest.raises(EnvError):
        batch.step([[0, 0], [0, 0]])  # one row short
    with pytest.raises(EnvError, match="row 2, agent 1"):
        batch.advance([[0, 0], [0, 0], [0, 5]])  # advance validates as step does
    batch.step(np.zeros((3, 2), dtype=int))
    batch.advance(np.zeros((3, 2), dtype=int))
    assert batch.done and batch.t == 2
    with pytest.raises(EnvError):
        batch.step(np.zeros((3, 2), dtype=int))
    with pytest.raises(EnvError):
        batch.advance(np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError):
        env.branch(0)
    with pytest.raises(EnvError):
        make_env("keycorridor").branch(2)  # never reset


# ---- multi-reset batches: row b of reset_batch(seeds) is reset(seeds[b]) ----

RESET_SEEDS = [0, 1, 7, 2**63 - 2, -3] + [int(s) for s in np.random.default_rng(0).integers(
    0, 2**63 - 1, size=27)]


def _scalar_resets(env, seeds) -> list:
    """One reference state per seed, each fresh from reset(seed)."""
    return [ScalarGrid.reset(env, seed) for seed in seeds]


@pytest.mark.parametrize("name,params", BATCH_CASES)
def test_reset_batch_rows_equal_scalar_resets(name, params):
    env = make_env(name, **params)
    batch = env.reset_batch(RESET_SEEDS)
    copies = _scalar_resets(env, RESET_SEEDS)
    assert batch.size == len(RESET_SEEDS) and batch.t == 0 and not batch.done
    assert batch.positions.dtype == batch.landmarks.dtype == np.int64
    assert [list(map(tuple, p)) for p in batch.positions.tolist()] == [c.positions for c in copies]
    assert [list(map(tuple, lm)) for lm in batch.landmarks.tolist()] == [
        c.landmarks for c in copies]
    assert batch.landmarks.shape == (len(RESET_SEEDS), len(copies[0].landmarks), 2)
    if name == "keycorridor":
        assert batch.door_open.dtype == bool and not batch.door_open.any()
    assert _same_bits(batch.observations(), np.stack([c.observations() for c in copies]))
    assert _same_bits(batch.states(), np.stack([c.state() for c in copies]))
    for seed, ref in zip(RESET_SEEDS, copies):  # the scalar reset is the same row
        state, obs = env.reset(seed)
        assert _same_bits(state, ref.state()) and _same_bits(obs, ref.observations())
        assert env.t == 0 and not env.done


@pytest.mark.parametrize("name,params", BATCH_CASES)
def test_reset_batch_steps_like_scalar_resets(name, params):
    # rows start from different seeds, so each row has its own landmarks
    env = make_env(name, **params)
    seeds = RESET_SEEDS[:12]
    batch = env.reset_batch(seeds)
    copies = _scalar_resets(env, seeds)
    rng = stream(5, "reset-batch-vs-scalar", name)
    while not batch.done:
        _step_lockstep(batch, copies, rng.integers(0, 5, size=(len(seeds), env.spec.n_agents)))
    assert batch.t == env.spec.horizon


def test_keycorridor_reset_batch_places_every_row_in_one_draw(monkeypatch):
    # a batch draws its start zones from one table; a one-row reset keeps _place
    env = make_env("keycorridor")
    seeds = episode_seeds(5, "fidelity", 40)
    places = []
    original_place = KeyCorridor._place
    monkeypatch.setattr(KeyCorridor, "_place",
                        lambda self, seed: places.append(seed) or original_place(self, seed))
    batch = env.reset_batch(seeds)
    assert places == []
    env.reset(seeds[0])
    assert places == [seeds[0]]
    assert [list(map(tuple, p)) for p in batch.positions.tolist()] == [
        c.positions for c in _scalar_resets(env, seeds)]


def test_reset_batch_rejects_no_seeds_and_steps_past_the_horizon():
    env = make_env("spread", n_agents=2, grid=5, horizon=2)
    with pytest.raises(ValueError):
        env.reset_batch([])
    batch = env.reset_batch([3, 4])
    for _ in range(2):
        batch.step(np.zeros((2, 2), dtype=int))
    assert batch.done
    with pytest.raises(EnvError):
        batch.step(np.zeros((2, 2), dtype=int))


def test_reset_batch_leaves_the_scalar_env_alone():
    env = make_env("keycorridor")
    env.reset(0)
    _place(env, [(4, 4), (2, 4), (0, 3)])  # agent 0 on the switch
    env.step([STAY, STAY, STAY])
    before = (_cells(env), _door(env), env.t)
    assert before[1:] == (True, 1)
    batch = env.reset_batch([1, 2])
    assert (_cells(env), _door(env), env.t) == before
    assert not batch.door_open.any()  # rows start closed whatever the env's state
    assert _same_bits(batch.observations(),
                      np.stack([c.observations() for c in _scalar_resets(env, [1, 2])]))


# ---- pinned dynamics: the digests were recorded before the three envs shared
# one reset/step/observation skeleton, and must never move ----

PINNED_DIGESTS = {
    "keycorridor": ("keycorridor", {},
        "393804588b1fed282d41e3aa88a35beca6e3eb4225b5c20096a1fb7c7050d84c"),
    "spread": ("spread", {},
        "4088f7cc27763afee4cd7699e2f70396bda0d90063ab941a3beff31e1605b747"),
    "spread-4x5": ("spread", {"n_agents": 4, "grid": 5},
        "0c0e6aacbe8f98b3a297dc016050bf5c9a3cbbe37ef377219b3d36f9a5625190"),
    "diagnostic": ("diagnostic", {},
        "f50084905a6ff41f085de07f962abf2516ce4d67bd860b45e297b041f0b83e1b"),
    "diagnostic-inert": ("diagnostic", {"inert": (1,)},
        "653162111a3ee74981fe5528fcf86d25b5d5a7d47efc4bf0b0d6d0295a51f246"),
    "diagnostic-zero": ("diagnostic", {"zero_reward": True},
        "e72be78584f34f3df2d37420cf82d0272d5822ee325737d6ae5bd7b33463c029"),
}


def _trajectory_digest(env) -> str:
    """sha256 over every state, observation and reward of 40 scalar episodes,
    a 40-seed reset_batch rollout and a 16-row branch taken after one step."""
    digest = hashlib.sha256()

    def add(*values):
        for v in values:
            digest.update(np.asarray(v).tobytes())

    n = env.spec.n_agents
    rng = np.random.default_rng(20240)
    for seed in range(40):
        add(*env.reset(seed))
        done = False
        while not done:
            result = env.step(rng.integers(0, 5, size=n))
            add(result.next_state, result.observations, result.reward)
            done = result.done
    env.reset(40)
    env.step(rng.integers(0, 5, size=n))
    for batch in (env.reset_batch(list(range(40))), env.branch(16)):
        add(batch.positions, batch.landmarks, batch.observations())
        while not batch.done:
            result = batch.step(rng.integers(0, 5, size=(batch.size, n)))
            add(batch.positions, result.observations, result.reward)
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_trajectories_match_pinned_digests(case):
    name, params, pinned = PINNED_DIGESTS[case]
    assert _trajectory_digest(make_env(name, **params)) == pinned


# ---- the table-driven kernel: every batch row is the reference rules, bitwise ----

PARITY_CASES = [
    ("spread", {"n_agents": 3, "grid": 3, "horizon": 10}),  # edges everywhere, shared cells
    ("keycorridor", {}),
    ("diagnostic", {"n_agents": 3, "grid": 4, "horizon": 10, "inert": (1,)}),
]
SEEDS = st.integers(-(2**63), 2**63 - 1)


def _grid_cells(env) -> list:
    return [(r, c) for r in range(env._rows) for c in range(env._cols)
            if (r, c) not in env.WALLS]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), case=st.sampled_from(range(len(PARITY_CASES))), size=st.integers(1, 5),
       from_branch=st.booleans())
def test_batch_kernel_equals_scalar_env_bitwise(data, case, size, from_branch):
    name, params = PARITY_CASES[case]
    env = make_env(name, **params)
    n, horizon = env.spec.n_agents, env.spec.horizon
    if from_branch:
        # any open cells and door flag, e.g. agent 0 beside the switch or
        # agent 1 at the closed door, then a few scalar steps before the branch
        env.reset(data.draw(SEEDS))
        cells = _grid_cells(env)
        door_open = env.DOOR is not None and data.draw(st.booleans())
        if not door_open:
            cells = [cell for cell in cells if cell != env.DOOR]
        positions = data.draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n))
        _place(env, positions, door_open)
        ref = ScalarGrid(env, positions, _landmarks(env), door_open)
        for _ in range(data.draw(st.integers(0, horizon - 1))):
            _step_pair(env, ref, data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        batch = env.branch(size)
        copies = [copy.deepcopy(ref) for _ in range(size)]
    else:
        seeds = data.draw(st.lists(SEEDS, min_size=size, max_size=size))
        batch = env.reset_batch(seeds)
        copies = _scalar_resets(env, seeds)
    assert _same_bits(batch.observations(), np.stack([c.observations() for c in copies]))
    assert _same_bits(batch.states(), np.stack([c.state() for c in copies]))
    while not batch.done:
        acts = data.draw(arrays(np.int64, (size, n), elements=st.integers(0, 4)))
        _step_lockstep(batch, copies, acts)
        assert batch.door_open.tolist() == [c.door_open for c in copies]
        assert [list(map(tuple, lm)) for lm in batch.landmarks.tolist()] == [
            c.landmarks for c in copies]
    assert batch.t == horizon and all(c.done for c in copies)


def test_tables_are_built_on_the_first_batch_once_per_geometry(monkeypatch):
    monkeypatch.setattr(envs, "_TABLES", {})
    monkeypatch.setattr(ScriptedKeyCorridor, "_MOVES", None)
    env = make_env("keycorridor")
    for variant in ("default", "weakened"):
        scripted_by_name(env, variant)
    for name in ("spread", "diagnostic"):
        scripted_by_name(make_env(name))
    # construction builds no table
    assert envs._TABLES == {} and ScriptedKeyCorridor._MOVES is None
    env.reset(0)
    env.step([RIGHT, STAY, STAY])
    first = env.branch(2)
    again = make_env("keycorridor").reset_batch([1, 2])
    assert again.tables is first.tables and len(envs._TABLES) == 1
    assert not first.tables.rel.flags.writeable  # shared, so read-only
    make_env("spread", grid=5).reset_batch([0])
    make_env("spread", grid=6).reset_batch([0])
    assert len(envs._TABLES) == 3  # one per (env class, grid size)
    obs = first.observations()
    scripted_by_name(env, "default").act_batch(obs)
    moves = ScriptedKeyCorridor._MOVES
    assert moves is not None and not moves.flags.writeable
    scripted_by_name(env, "weakened").act(obs[0])
    assert ScriptedKeyCorridor._MOVES is moves


NEXT_CELL_CASES = [
    ("spread", {"n_agents": 3, "grid": 4}),
    ("keycorridor", {}),
    ("diagnostic", {"n_agents": 3, "grid": 5, "inert": (1,)}),
]


@pytest.mark.parametrize("name,params", NEXT_CELL_CASES)
def test_next_cell_table_equals_the_move_rule(name, params):
    env = make_env(name, **params)
    tables = env.reset_batch([0]).tables
    assert not tables.next_cell.flags.writeable
    grid = [(r, c) for r in range(env._rows) for c in range(env._cols)]
    doors = (False, True) if env.DOOR is not None else (False,)
    for door in doors:
        ref = ScalarGrid(env, [], door_open=door)
        for cell in grid:
            for action, (dr, dc) in enumerate(DELTAS):
                cand = (cell[0] + dr, cell[1] + dc)
                want = cand if ref._passable(cand) else cell
                index = (door * tables.size + tables.flat(cell)) * len(DELTAS) + action
                assert tables.next_cell[index] == tables.flat(want), (door, cell, action)
    # the batched move, inert agents included: every agent of row b on cell
    # b // 5 takes action b % 5, as the reference rules move it
    for door in doors:
        rows = [(cell, a) for cell in grid for a in range(len(DELTAS))]
        n = env.spec.n_agents
        batch = env.reset_batch([0] * len(rows))
        batch.cells = np.array([[tables.flat(cell)] * n for cell, _ in rows])
        batch.door_open = np.full(len(rows), door)
        batch.advance(np.array([[a] * n for _, a in rows]))
        for (cell, a), got in zip(rows, batch.positions.tolist()):
            ref = ScalarGrid(env, [cell] * n, door_open=door)
            ref._move_all([a] * n)
            assert [tuple(p) for p in got] == ref.positions, (door, cell, a)


def test_keycorridor_door_and_reward_tables_equal_the_reduced_rules():
    env = make_env("keycorridor")
    batch = env.reset_batch(list(range(64)))
    tables = batch.tables
    rng = stream(2, "door-reward-tables")
    interior = tables.flat(np.argwhere(np.ones((env._rows, env._cols), dtype=bool)))
    switch, goal = tables.flat(KeyCorridor.SWITCH), tables.goal
    for _ in range(20):
        # any grid cell, the switch and the goal column well represented
        cells = rng.choice(interior, size=(64, 3))
        cells[rng.random((64, 3)) < 0.15] = switch
        door = rng.random(64) < 0.3
        batch.cells, batch.door_open = cells.copy(), door.copy()
        reward = env._reward_batch(batch)
        want = 0.1 * np.add.reduce(goal.take(cells), axis=1) - 0.01
        assert _same_bits(reward, want)
        env._move_batch(batch, np.full((64, 3), STAY))
        assert np.array_equal(batch.cells, cells)  # a stay never moves
        assert _same_bits(batch.door_open, door | (cells == switch).any(axis=1))


def _observed(batch):
    """The batch, once it has built its point slots and gather indices."""
    batch.observations()
    return batch


def test_batches_of_one_shape_share_their_gather_indices():
    env = make_env("keycorridor")
    batch = _observed(env.reset_batch([1, 2, 3]))
    copy_ = _observed(batch.repeat(1))
    assert copy_._seen is batch._seen and copy_._layout is batch._layout
    # writeable, though never written: take() copies read-only indices each call
    assert batch._seen.flags.writeable and batch._layout.flags.writeable
    assert copy_._points is not batch._points  # observations() writes into _points
    assert _observed(env.reset_batch([4, 5, 6]))._seen is batch._seen
    assert _observed(batch.repeat(2))._seen is not batch._seen
    assert _observed(make_env("spread").reset_batch([1]))._layout is None


@pytest.mark.parametrize("rows", [slice(1, 3), [2, 0]])
def test_a_row_copy_that_never_observes_builds_no_point_slots(rows):
    env = make_env("keycorridor")
    batch = _observed(env.reset_batch([1, 2, 3]))
    copy_ = batch.repeat(1, rows)
    assert copy_._points is None and not hasattr(copy_, "_seen")
    # its own rows: a step sets the copy's door flags in place, not the batch's
    door = batch.door_open.copy()
    copy_.door_open[:] = True
    assert np.array_equal(batch.door_open, door)
    assert np.array_equal(copy_.cells, batch.cells[rows]) and copy_._points is None


@pytest.mark.parametrize("name,params", [("keycorridor", {}), ("spread", {"grid": 5})])
def test_repeat_copies_the_selected_rows(name, params):
    env = make_env(name, **params)
    batch = env.reset_batch([3, 4, 5, 6])
    moves = stream(9, "repeat-rows").integers(0, 5, size=(8, 4, env.spec.n_agents))
    for joint in moves:
        batch.step(joint)
    obs, states = batch.observations(), batch.states()
    for rows, picked in ((slice(1, 3), [1, 2]), ([3, 0, 3], [3, 0, 3]),
                         (slice(None), [0, 1, 2, 3])):
        copy_ = batch.repeat(2, rows)
        order = np.repeat(picked, 2)
        assert copy_.size == 2 * len(picked) and (copy_.t, copy_.done) == (batch.t, batch.done)
        assert np.array_equal(copy_.observations(), obs[order])
        assert np.array_equal(copy_.states(), states[order])
        copy_.step(np.full((copy_.size, env.spec.n_agents), RIGHT))
    # stepping the copies left the batch as it was
    assert batch.t == 8
    assert np.array_equal(batch.observations(), obs)
    assert np.array_equal(batch.states(), states)


@pytest.mark.parametrize("name,params", [("keycorridor", {}), ("spread", {"grid": 5})])
def test_deepcopy_shares_the_read_only_parts_and_steps_like_repeat(name, params):
    env = make_env(name, **params)
    env.reset(3)
    for joint in stream(9, "deepcopy").integers(0, 5, size=(6, env.spec.n_agents)):
        env.step(joint.tolist())
    row = env.row
    t, cells, landmarks, door = row.t, row.cells.copy(), row.landmark_cells.copy(), \
        row.door_open.copy()
    clone = copy.deepcopy(env)
    copied, fresh = clone.row, row.repeat(1)
    assert copied.env is clone and copied.tables is row.tables
    assert not any(np.shares_memory(getattr(copied, k), getattr(row, k))
                   for k in ("cells", "landmark_cells", "door_open", "_points"))
    moves = stream(10, "deepcopy").integers(0, 5, size=(24, 1, env.spec.n_agents))
    for joint in moves:
        a, b = copied.step(joint), fresh.step(joint)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.reward, b.reward) and a.done == b.done
        assert np.array_equal(copied.states(), fresh.states())
        if a.done:
            break
    # stepping the copy left the original as it was
    assert row.t == t and np.array_equal(row.cells, cells)
    assert np.array_equal(row.landmark_cells, landmarks) and np.array_equal(row.door_open, door)


@pytest.mark.parametrize("rows, cols", [(5, 7), (8, 8), (6, 6), (2, 3)])
def test_decoders_equal_the_scalar_rules(rows, cols):
    """decode_norm and decode_rel against the scalar rules they replace:
    Python's round (half to even), then a clamp to the grid."""
    extent = np.array([rows, cols])
    halfway = np.array([[(2 * k + 1) / (rows - 1) - 1, (k + 0.5) / (cols - 1)]
                        for k in range(-max(rows, cols), max(rows, cols))])
    values = np.concatenate([stream(rows * cols, "decode").uniform(-1.5, 1.5, (2000, 2)),
                             halfway, halfway[:, ::-1], [[1e300, -1e300], [-1e300, 1e300]]])
    top = extent - 1.0
    cells, offsets = envs.decode_norm(values, top), envs.decode_rel(values, top)
    for value, cell, offset in zip(values.tolist(), cells.tolist(), offsets.tolist()):
        assert cell == [min(max(round((v + 1.0) * (e - 1) / 2.0), 0), e - 1)
                        for v, e in zip(value, (rows, cols))], value
        assert offset == [min(max(round(v * (e - 1)), 1 - e), e - 1)
                          for v, e in zip(value, (rows, cols))], value
