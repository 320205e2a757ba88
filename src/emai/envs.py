"""Desk-scale cooperative gridworlds with a shared episodic interface.

All three environments expose reset(seed) / step(joint_action), per-agent
observations normalized to [-1, 1], a team reward, and a flat global state
vector. Transitions are deterministic; the only randomness is the seeded
initial placement, so trajectories replay bitwise from (seed, actions).

Movement is simultaneous: every agent moves based on positions at time t,
moves into walls, grid edges or a closed door are no-ops, and agents may
share a cell (Spread penalizes sharing through the reward only).

A GridBatch steps many states in lockstep on flat cell indices and the
lookup tables of its geometry (GridTables). It is the one implementation of
the rules: a scalar env is a GridBatch of one row, and tests/test_envs.py
keeps per-agent reference rules that every row must equal bitwise.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# action indices, fixed across all environments
STAY, UP, DOWN, LEFT, RIGHT = range(5)
DELTAS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))  # (drow, dcol)


class EnvError(ValueError):
    """Invalid interaction with an environment (bad action, step after done)."""


@dataclass(frozen=True)
class EnvSpec:
    n_agents: int
    obs_dim: int
    state_dim: int
    n_actions: int
    horizon: int

    def __post_init__(self):
        if self.n_agents < 2:
            raise ValueError("n_agents must be >= 2")
        if self.n_actions < 2:
            raise ValueError("n_actions must be >= 2")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class StepResult:
    next_state: np.ndarray
    observations: np.ndarray  # (n_agents, obs_dim)
    reward: float
    done: bool


@dataclass
class BatchStepResult:
    observations: np.ndarray  # (B, n_agents, obs_dim)
    reward: np.ndarray  # (B,)
    done: bool  # rows share t, so they all end together


class _GridEnv:
    """The gridworld skeleton the built-in envs share.

    A subclass supplies four things: `_place(seed)`, its `WALLS` (plus a
    `DOOR` and fixed `ANCHORS` if it has them), `_reward_batch()`, and any
    movement rule of its own, by extending `_move_batch` (plus
    `_build_tables` for any per-cell entry of its own).

    Agent i observes its own normalized position, then the door flag (+1 open,
    -1 closed) on an env with a door, then the positions of the anchors, of
    the landmarks and of the other agents in index order, each relative to its
    own. The state is every agent's position, then the landmarks, then the
    door flag.

    Every rule is written once, batched: reset(seed) and step(joint_action)
    are one-row views of a GridBatch the env holds, whose t and done the env
    reports.
    """

    spec: EnvSpec
    name: str = ""
    WALLS: frozenset[tuple[int, int]] = frozenset()
    DOOR: tuple[int, int] | None = None
    ANCHORS: tuple[tuple[int, int], ...] = ()

    def __init__(self, rows: int, cols: int):
        self._rows, self._cols = rows, cols
        self._row: GridBatch | None = None  # the current state, from reset

    def _place(self, seed: int) -> tuple[list, list]:
        """The initial (agent cells, landmark cells) of reset(seed), as
        reset_batch places row b; builds no observations."""
        raise NotImplementedError

    @property
    def t(self) -> int:
        return 0 if self._row is None else self._row.t

    @property
    def done(self) -> bool:
        return self._row is None or self._row.done

    def _live(self) -> "GridBatch":
        if self._row is None:
            raise EnvError("the environment has not been reset; call reset() first")
        return self._row

    def observations(self) -> np.ndarray:
        return self._live().observations()[0]

    def reset(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        self._row = row = self.reset_batch([seed])
        return row.states()[0], row.observations()[0]

    def step(self, joint_action) -> StepResult:
        row = self._live()
        result = row.step(np.asarray(joint_action)[None])
        # a Python float, as replay text writes repr(reward)
        return StepResult(row.states()[0], result.observations[0], float(result.reward[0]),
                          result.done)

    def branch(self, size: int) -> "GridBatch":
        """`size` independent copies of the current state, to step in lockstep."""
        if size < 1:
            raise ValueError("a batch needs size >= 1")
        return self._live().repeat(size)

    def reset_batch(self, seeds) -> "GridBatch":
        """One row per seed: row b is the state after reset(seeds[b])."""
        placed = [self._place(seed) for seed in seeds]
        if not placed:
            raise ValueError("reset_batch needs at least one seed")
        tables = self._tables()
        cells = tables.flat(np.array([cells for cells, _ in placed], dtype=np.int64))
        landmarks = np.array([lms for _, lms in placed], dtype=np.int64)
        return GridBatch(self, tables, cells, tables.flat(landmarks.reshape(len(placed), -1, 2)),
                         np.zeros(len(placed), dtype=bool), 0, False)

    def _tables(self) -> "GridTables":
        """This geometry's lookup tables, built on the first batch and shared
        by every env of the same class and grid size."""
        key = (type(self), self._rows, self._cols)
        tables = _TABLES.get(key)
        if tables is None:
            tables = _TABLES[key] = self._build_tables()
            for value in vars(tables).values():
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
        return tables

    def _build_tables(self) -> "GridTables":
        return GridTables(self._rows, self._cols, self.WALLS, self.DOOR, self.ANCHORS)

    def _move_batch(self, batch: "GridBatch", actions: np.ndarray) -> None:
        """Every row's simultaneous move: a move into a wall, off the grid or
        into a closed door leaves the agent where it was."""
        tables = batch.tables
        cand = batch.cells + tables.delta.take(actions)
        ok = tables.open.take(cand + batch.door_open[:, None] * tables.size)
        batch.cells = np.where(ok, cand, batch.cells)

    def _reward_batch(self, batch: "GridBatch") -> np.ndarray:
        raise NotImplementedError


# GridTables per (env class, rows, cols), shared by every env of that geometry
_TABLES: dict[tuple, "GridTables"] = {}


class GridTables:
    """Lookup tables of one grid geometry, indexed by flat cell.

    A cell is one int64 index into the grid padded with a one-cell closed
    border, (rows + 2) x (cols + 2) in row-major order, so a move off the
    edge lands on the border instead of wrapping around. Each float entry is
    one expression on the grid (row, col) ints: the normalized position
    norm(a) = (2.0 * a_r / (rows - 1) - 1.0, 2.0 * a_c / (cols - 1) - 1.0)
    and the relative offset rel(a, b) = ((b_r - a_r) / (rows - 1),
    (b_c - a_c) / (cols - 1)), as the per-agent reference rules in
    tests/test_envs.py write them. Entries of border cells are never read.
    The tables are read-only and shared, so a deepcopy keeps the same object.

    In the block of own cell a, rel[a * stride + b] is rel(a, b), then
    rel[a * stride + size] is norm(a) and rel[a * stride + size + 1 + d]
    holds the door flag of door_open = d twice, so one gather reads an
    observation's own position, its door flag and every point it sees.
    manhattan[a * size + b] is the Manhattan distance of two cells, and
    open[door_open * size + cell] says whether a move may end on cell.
    fixed holds the point slots every observation reads before the
    landmarks: the own position's (size), the door flag's (size + 1) on an
    env with a door, then each anchor's cell.
    """

    def __init__(self, rows: int, cols: int, walls, door, anchors):
        self.width = cols + 2
        self.size = (rows + 2) * self.width
        self.stride = self.size + 3
        r, c = np.divmod(np.arange(self.size), self.width)
        self.coords = np.stack([r - 1, c - 1], axis=1)  # (size, 2) grid (row, col)
        extent = np.array([rows - 1, cols - 1])
        self.norm = 2.0 * self.coords / extent - 1.0  # (size, 2)
        diff = self.coords[None, :, :] - self.coords[:, None, :]  # [own, other]: other - own
        flags = np.broadcast_to([[[-1.0, -1.0], [1.0, 1.0]]], (self.size, 2, 2))
        self.rel = np.concatenate([diff / extent, self.norm[:, None], flags], axis=1).reshape(-1, 2)
        self.manhattan = np.abs(diff).sum(axis=-1).reshape(-1)
        grid = np.zeros((rows + 2, self.width), dtype=bool)
        grid[1:-1, 1:-1] = True
        for wr, wc in walls:
            grid[wr + 1, wc + 1] = False
        closed = grid.reshape(-1).copy()
        if door is not None:
            closed[self.flat(door)] = False
        self.open = np.concatenate([closed, grid.reshape(-1)])
        self.delta = np.array([dr * self.width + dc for dr, dc in DELTAS], dtype=np.int64)
        self.fixed = np.array([self.size, *([] if door is None else [self.size + 1]),
                               *(self.flat(a) for a in anchors)], dtype=np.int64)

    def flat(self, points) -> np.ndarray:
        """Flat cells of grid (row, col) points, a (..., 2) int array or one pair."""
        points = np.asarray(points)
        return (points[..., 0] + 1) * self.width + points[..., 1] + 1

    def __deepcopy__(self, memo) -> "GridTables":
        return self


class GridBatch:
    """`size` gridworld states of one env, stepped in lockstep.

    The rows are copies of one state (env.branch), the starts of different
    seeds (env.reset_batch) or copies of another batch's rows (repeat). Each
    row has its own agent cells, a (size, n_agents) int64 array of GridTables
    flat cells, its own landmark cells, (size, k) with k = 0 on keycorridor,
    and its own door flag, a (size,) bool array that stays False on an env
    without a door. Walls, the tables and the step counter t are shared, so
    all rows end together. positions and landmarks derive the (size, ·, 2)
    grid coordinates. step() validates the joint actions, for the scalar env
    too, and raises EnvError on bad input.
    """

    def __init__(self, env: _GridEnv, tables: GridTables, cells: np.ndarray,
                 landmark_cells: np.ndarray, door_open: np.ndarray, t: int, done: bool):
        self.env = env
        self.tables = tables
        self.t = t
        self.done = done
        self.cells = cells
        self.landmark_cells = landmark_cells
        self.door_open = door_open
        size, n = cells.shape
        # point slots, one row of cells each: the fixed slots of the tables,
        # the landmarks, then the agents, whose rows every observation
        # rewrites (so each batch owns its _points, while the index arrays it
        # gathers with are shared)
        self._points = np.concatenate(
            [np.repeat(tables.fixed[:, None], size, axis=1), landmark_cells.T, cells.T])
        self._seen, self._layout = _gather_indices(n, len(self._points), size,
                                                   env.DOOR is not None)

    @property
    def size(self) -> int:
        return len(self.cells)

    def repeat(self, count: int) -> "GridBatch":
        """A new batch whose row b * count + j is a copy of row b, j < count."""
        return GridBatch(self.env, self.tables, np.repeat(self.cells, count, axis=0),
                         np.repeat(self.landmark_cells, count, axis=0),
                         np.repeat(self.door_open, count), self.t, self.done)

    @property
    def positions(self) -> np.ndarray:
        """Agent (row, col) coordinates, (size, n_agents, 2) int64."""
        return self.tables.coords.take(self.cells, axis=0)

    @property
    def landmarks(self) -> np.ndarray:
        """Landmark (row, col) coordinates, (size, k, 2) int64."""
        return self.tables.coords.take(self.landmark_cells, axis=0)

    def observations(self) -> np.ndarray:
        """Every row's observations, (size, n_agents, obs_dim), in the layout
        the _GridEnv docstring gives."""
        tables, cells, points = self.tables, self.cells, self._points
        size, n = cells.shape
        points[-n:] = cells.T
        if self.env.DOOR is not None:
            np.add(self.door_open, tables.size + 1, out=points[1])
        # C order keeps the (agent, slot, row) sums row-contiguous, which numpy adds fastest
        own = np.multiply(cells.T, tables.stride, order="C")
        seen = tables.rel.take(np.add(own[:, None], points).take(self._seen), axis=0)
        if self.env.DOOR is not None:
            return seen.take(self._layout)
        return seen.reshape(size, n, -1)

    def states(self) -> np.ndarray:
        """Every row's state, (size, state_dim), in the _GridEnv layout."""
        cells = np.concatenate([self.cells, self.landmark_cells], axis=1)
        norm = self.tables.norm.take(cells, axis=0).reshape(self.size, -1)
        if self.env.DOOR is None:
            return norm
        return np.concatenate([norm, np.where(self.door_open, 1.0, -1.0)[:, None]], axis=1)

    def _validate_actions(self, joint_actions) -> np.ndarray:
        if self.done:
            raise EnvError("step() called on a terminated episode; reset or branch a live state")
        acts = np.asarray(joint_actions, dtype=np.int64)
        spec = self.env.spec
        if acts.shape != (self.size, spec.n_agents):
            raise EnvError(f"joint actions need shape ({self.size}, {spec.n_agents}), "
                           f"got {acts.shape}")
        n_actions = spec.n_actions
        bad = acts.view(np.uint64) >= n_actions  # a negative index wraps to a huge one
        if bad.any():
            b, i = np.argwhere(bad)[0]
            raise EnvError(f"row {b}, agent {i}: action index {acts[b, i]} "
                           f"outside [0, {n_actions})")
        return acts

    def step(self, joint_actions) -> BatchStepResult:
        self.env._move_batch(self, self._validate_actions(joint_actions))
        reward = self.env._reward_batch(self)
        self.t += 1
        self.done = self.t >= self.env.spec.horizon
        return BatchStepResult(self.observations(), reward, self.done)


@functools.lru_cache(maxsize=16)
def _gather_indices(n: int, m: int, size: int, door: bool) -> tuple:
    """GridBatch.observations' gather indices for n agents, m point slots and
    size rows, shared by every batch of that shape (a repeat(1) copy, the
    blocks of one oracle query), which only ever read them. They stay
    writeable all the same: ndarray.take copies a read-only index array on
    every call. Agent i reads the fixed slots and landmarks, then the other
    agents in index order: `seen` holds flat entries of the (n, m, size)
    (agent, slot, row) pairs. With a door, `layout` holds flat entries of the
    gathered values, less the second door flag; without one it is None."""
    slots = np.array([[*range(m - n), *(m - n + j for j in range(n) if j != i)]
                      for i in range(n)]).reshape(n, m - 1)
    seen = (np.arange(n)[:, None] * m + slots) * size + np.arange(size)[:, None, None]
    if not door:
        return seen, None
    keep = [0, 1, 2, *range(4, 2 * (m - 1))]
    layout = (np.arange(size * n)[:, None] * (2 * (m - 1)) + keep).reshape(size, n, len(keep))
    return seen, layout


class Spread(_GridEnv):
    """n agents cover n landmarks on a grid; closer and un-stacked is better.

    reward_t = -(1/(n*grid)) * sum over landmarks of min_i manhattan(agent_i, lm)
               - 0.05 * (# agent pairs sharing a cell)

    Each reset draws the agents' cells and the n landmarks' cells.
    """

    name = "spread"

    def __init__(self, n_agents: int = 3, grid: int = 8, horizon: int = 25):
        if grid < 2:
            raise ValueError("grid must be >= 2")
        super().__init__(int(grid), int(grid))
        self.n = int(n_agents)
        self.grid = int(grid)
        if self.n > self.grid * self.grid:
            raise ValueError(f"a {self.grid} x {self.grid} grid is too small for {self.n} agents")
        obs_dim = 2 + 2 * self.n + 2 * (self.n - 1)
        self.spec = EnvSpec(self.n, obs_dim, 4 * self.n, 5, int(horizon))
        self._pairs = np.triu_indices(self.n, 1)  # every agent pair (i < j)

    @property
    def params(self) -> dict:
        return {"n_agents": self.n, "grid": self.grid, "horizon": self.spec.horizon}

    def _place(self, seed: int) -> tuple[list, list]:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), 0x51]))
        cells = self.grid * self.grid
        agent_idx = rng.choice(cells, size=self.n, replace=False)
        lm_idx = rng.choice(cells, size=self.n, replace=False)
        return ([(int(i) // self.grid, int(i) % self.grid) for i in agent_idx],
                [(int(i) // self.grid, int(i) % self.grid) for i in lm_idx])

    def _reward_batch(self, batch: GridBatch) -> np.ndarray:
        cells, tables = batch.cells, batch.tables
        dist = tables.manhattan.take(cells[:, :, None] * tables.size
                                     + batch.landmark_cells[:, None])
        dist_sum = dist.min(axis=1).sum(axis=1)  # nearest agent per landmark
        i, j = self._pairs
        shared = (cells[:, i] == cells[:, j]).sum(axis=1)
        return -(1.0 / (self.n * self.grid)) * dist_sum - 0.05 * shared


class KeyCorridor(_GridEnv):
    """Three agents, a switch-operated door, and a goal column.

    5x7 cells (rows x cols). A serpentine of walls puts the switch at the
    dead end of a corridor next to agent 0's start zone; agents 1 and 2
    start by the door on the other side of the maze. Any agent standing on
    the switch opens the door permanently. reward_t = 0.1 * (# agents in
    the goal column) - 0.01, horizon 30. There are no landmarks; each agent
    observes the switch, the door and the goal anchor instead.
    """

    name = "keycorridor"

    ROWS, COLS = 5, 7
    WALLS = frozenset({(1, 0), (1, 1), (1, 2), (1, 3),
                       (3, 1), (3, 2), (3, 3), (3, 4),
                       (0, 5), (1, 5), (3, 5), (4, 5)})
    DOOR = (2, 5)
    SWITCH = (4, 4)
    GOAL_COL = 6
    GOAL_ANCHOR = (2, 6)
    ANCHORS = (SWITCH, DOOR, GOAL_ANCHOR)
    START_ZONES = (((4, 0), (4, 1), (4, 2), (4, 3)),
                   ((0, 0), (0, 1)),
                   ((0, 3), (0, 4)))

    def __init__(self, horizon: int = 30):
        super().__init__(self.ROWS, self.COLS)
        self.n = 3
        # own pos, door flag, rel switch, rel door, rel goal, rel two others
        self.spec = EnvSpec(self.n, 13, 2 * self.n + 1, 5, int(horizon))

    # bench/tracing.py wraps reset and step by name in this class's own namespace
    reset = _GridEnv.reset
    step = _GridEnv.step

    @property
    def params(self) -> dict:
        return {"horizon": self.spec.horizon}

    def _place(self, seed: int) -> tuple[list, list]:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), 0x52]))
        return [zone[int(rng.integers(0, len(zone)))] for zone in self.START_ZONES], []

    def _build_tables(self) -> GridTables:
        tables = super()._build_tables()
        tables.switch = tables.flat(self.SWITCH)
        tables.goal = (tables.coords[:, 1] == self.GOAL_COL).astype(np.int64)  # 1: goal column
        return tables

    def _move_batch(self, batch: GridBatch, actions: np.ndarray) -> None:
        super()._move_batch(batch, actions)
        batch.door_open |= (batch.cells == batch.tables.switch).any(axis=1)

    def _reward_batch(self, batch: GridBatch) -> np.ndarray:
        return 0.1 * np.add.reduce(batch.tables.goal.take(batch.cells), axis=1) - 0.01


class Diagnostic(_GridEnv):
    """Instrumented gridworld for explainer sanity checks.

    Every agent walks toward one shared landmark, landmarks[0]. Optional zero
    reward (sparsity-pressure experiments) and optional inert agents whose
    actions never move them, so their actions provably cannot influence
    transitions or reward.
    """

    name = "diagnostic"

    def __init__(self, n_agents: int = 3, grid: int = 6, horizon: int = 15,
                 zero_reward: bool = False, inert: tuple[int, ...] = ()):
        if grid < 2:
            raise ValueError("grid must be >= 2")
        super().__init__(int(grid), int(grid))
        self.n = int(n_agents)
        self.grid = int(grid)
        self.zero_reward = bool(zero_reward)
        self.inert = tuple(sorted(int(i) for i in inert))
        if any(i < 0 or i >= self.n for i in self.inert):
            raise ValueError("inert agent ids must be valid agent indices")
        if self.n + 1 > self.grid * self.grid:
            raise ValueError(f"a {self.grid} x {self.grid} grid is too small for "
                             f"{self.n} agents and a landmark")
        obs_dim = 2 + 2 + 2 * (self.n - 1)
        self.spec = EnvSpec(self.n, obs_dim, 2 * self.n + 2, 5, int(horizon))

    @property
    def params(self) -> dict:
        return {"n_agents": self.n, "grid": self.grid, "horizon": self.spec.horizon,
                "zero_reward": self.zero_reward, "inert": list(self.inert)}

    def _place(self, seed: int) -> tuple[list, list]:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), 0x53]))
        idx = rng.choice(self.grid * self.grid, size=self.n + 1, replace=False)
        cells = [(int(i) // self.grid, int(i) % self.grid) for i in idx]
        return cells[:-1], cells[-1:]

    def _move_batch(self, batch: GridBatch, actions: np.ndarray) -> None:
        if self.inert:
            actions = actions.copy()
            actions[:, list(self.inert)] = STAY
        super()._move_batch(batch, actions)

    def _reward_batch(self, batch: GridBatch) -> np.ndarray:
        if self.zero_reward:
            return np.zeros(batch.size)
        active = [i for i in range(self.n) if i not in self.inert]
        tables = batch.tables
        dist = tables.manhattan.take(batch.cells[:, active] * tables.size
                                     + batch.landmark_cells).sum(axis=1)
        return -dist / (max(1, len(active)) * self.grid)


_REGISTRY = {
    "spread": Spread,
    "keycorridor": KeyCorridor,
    "diagnostic": Diagnostic,
}


def make_env(name: str, **params) -> _GridEnv:
    """Instantiate a built-in environment by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise EnvError(f"unknown environment {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key](**params)

