"""Black-box target policies: the multi-agent system being explained.

Each target implements one query kernel, act_batch(obs), from joint
observations (B, n_agents, obs_dim) to joint actions (B, n_agents), agent i
reading only its own row; act(obs) is its one-row view. Learned targets keep
their value network private, and white-box baselines must go through the
explicit privileged accessor below. Scripted targets give controlled,
reviewable ground truth; the learned trainer reuses the ctde machinery.
"""
from __future__ import annotations

import hashlib
import json
from collections import deque

import numpy as np

from . import envs
from .config import merged_sections
from .ctde import AgentQNet, QLearner, checkpoint_doc, load_checkpoint_doc
from .envs import DOWN, LEFT, RIGHT, STAY, UP, Diagnostic, KeyCorridor, Spread


class CapabilityError(RuntimeError):
    """An explainer demanded access a target does not provide."""


class TargetPolicy:
    """Query-only interface: deterministic joint observations -> joint actions."""

    obs_dim: int
    n_agents: int

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """Joint actions (B, n_agents) int64 for observations (B, n_agents,
        obs_dim); entry [b, i] depends on obs[b, i] alone. A wrong shape
        raises ValueError."""
        raise NotImplementedError

    def act(self, obs: np.ndarray) -> list[int]:
        """Joint actions of one observation set (n_agents, obs_dim): row 0
        of act_batch(obs[None]), as a list. A wrong shape raises ValueError."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (self.n_agents, self.obs_dim):
            raise ValueError(f"observation shape {obs.shape} vs expected "
                             f"({self.n_agents}, {self.obs_dim})")
        return self.act_batch(obs[None])[0].tolist()

    def descriptor(self) -> str:
        raise NotImplementedError

    def checksum(self) -> str:
        return hashlib.sha256(self.descriptor().encode("utf-8")).hexdigest()

    def _check_obs_batch(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 3 or obs.shape[1:] != (self.n_agents, self.obs_dim):
            raise ValueError(f"observation batch shape {obs.shape} vs expected "
                             f"(B, {self.n_agents}, {self.obs_dim})")
        return obs


# Own cells and relative offsets decoded from the normalized observation:
# own (v + 1) * (extent - 1) / 2 and relative v * (extent - 1), rounded half
# to even; extent is an int or an int array broadcast against values.
# Clipping before the int cast changes no in-range result (callers clamp the
# cell to the grid) but keeps huge inputs from overflowing into bad indices.
# The first operation writes a C-order array, which the in-place rest runs
# through fastest.
def _own_cells(values: np.ndarray, extent) -> np.ndarray:
    top = np.subtract(extent, 1.0)  # exact: extent is a small int
    cells = np.add(values, 1.0, order="C")
    cells *= top
    cells /= 2.0
    np.rint(cells, out=cells)
    np.maximum(cells, 0.0, out=cells)
    np.minimum(cells, top, out=cells)
    return cells.astype(np.int64)


def _rel_offsets(values: np.ndarray, extent) -> np.ndarray:
    top = np.subtract(extent, 1.0)
    cells = np.multiply(values, top, order="C")
    np.rint(cells, out=cells)
    np.maximum(cells, -top, out=cells)
    np.minimum(cells, top, out=cells)
    return cells.astype(np.int64)


def _check_finite_batch(obs: np.ndarray) -> np.ndarray:
    if not np.isfinite(obs).all():
        raise ValueError("observation batch has non-finite entries")
    return obs


def _step_toward(dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Per entry, the move that closes a row gap dr first, then a column gap
    dc (STAY when both are 0)."""
    return np.where(dr != 0, np.where(dr < 0, UP, DOWN),
                    np.where(dc != 0, np.where(dc < 0, LEFT, RIGHT), STAY))


class ScriptedSpread(TargetPolicy):
    """Greedy landmark assignment, Manhattan moves with the row fixed first.

    Agents in id order claim their nearest unclaimed landmark (ties to the
    lowest landmark index); every agent recomputes the full assignment from
    its own observation, so the team stays consistent without messaging.
    """

    def __init__(self, n_agents: int, grid: int):
        self.n_agents = int(n_agents)
        self.grid = int(grid)
        self.obs_dim = 2 + 2 * self.n_agents + 2 * (self.n_agents - 1)

    def descriptor(self) -> str:
        return f"scripted:spread:n={self.n_agents}:grid={self.grid}"

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """Every agent decodes its teammates' and the landmarks' cells from
        its own row and replays the greedy claims up to its own, vectorized
        over (row, agent) pairs; non-finite input raises."""
        obs = _check_finite_batch(self._check_obs_batch(obs))
        g, n = self.grid, self.n_agents
        flat = obs.reshape(-1, self.obs_dim)  # pair b * n + i: agent i of row b
        pairs = np.arange(len(flat))
        agent = np.tile(np.arange(n), len(obs))
        own = _own_cells(flat[:, :2], g)

        def cells(offset: int, count: int) -> np.ndarray:  # (pairs, count, 2), clamped to the grid
            rel = _rel_offsets(flat[:, offset:offset + 2 * count], g).reshape(-1, count, 2)
            return np.clip(own[:, None] + rel, 0, g - 1)

        landmarks = cells(2, n)
        others = np.array([[j for j in range(n) if j != i] for i in range(n)]).reshape(n, n - 1)
        positions = np.empty((len(flat), n, 2), dtype=np.int64)
        positions[pairs, agent] = own
        positions[pairs[:, None], others[agent]] = cells(2 + 2 * n, n - 1)
        dist = np.abs(positions[:, :, None] - landmarks[:, None]).sum(axis=-1)  # (pairs, agent, lm)
        claimed = np.zeros((len(flat), n), dtype=bool)
        mine = np.zeros(len(flat), dtype=np.int64)
        for i in range(n):  # claims in id order; argmin takes the lowest index
            best = np.argmin(np.where(claimed, np.iinfo(np.int64).max, dist[:, i]), axis=1)
            claimed[pairs, best] = True
            mine = np.where(agent == i, best, mine)  # each pair keeps its own agent's claim
        goal = landmarks[pairs, mine]
        return _step_toward(goal[:, 0] - own[:, 0], goal[:, 1] - own[:, 1]).reshape(obs.shape[:2])


def _bfs_distances(passable, rows: int, cols: int, goal: tuple[int, int]) -> dict:
    dist = {goal: 0}
    dq = deque([goal])
    while dq:
        cell = dq.popleft()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nb = (cell[0] + dr, cell[1] + dc)
            if nb in dist or not (0 <= nb[0] < rows and 0 <= nb[1] < cols):
                continue
            if not passable(nb):
                continue
            dist[nb] = dist[cell] + 1
            dq.append(nb)
    return dist


class ScriptedKeyCorridor(TargetPolicy):
    """Agent 0 runs switch-then-goal; agents 1-2 queue at the door, then goal.

    The weakened variant makes agent 0 drag its feet on the way to the
    switch: it advances only on half of the steps (keyed to the parity of
    teammate 1's position, which alternates while that teammate walks and
    settles on "advance" once it parks at the door). Agent 0 still carries
    the whole door-opening value, so masking it stays very costly, but the
    door opens roughly one step late per cell of its start distance. The
    wasted steps are exactly the states a patch can fix with the direct-run
    actions harvested from the luckiest starts.
    """

    n_agents = 3
    obs_dim = 13

    ANTECHAMBER = (2, 4)
    _EXTENT = np.array([[KeyCorridor.ROWS], [KeyCorridor.COLS]])  # (row, col) by rows
    _MOVES: np.ndarray | None = None  # the next-move table, see _moves
    # offsets of each agent's closed-door and open-door rows in the flat _MOVES
    _CLOSED_BASE = np.arange(n_agents) * 2 * KeyCorridor.ROWS * KeyCorridor.COLS
    _OPEN_BASE = _CLOSED_BASE + KeyCorridor.ROWS * KeyCorridor.COLS

    def __init__(self, weakened: bool = False):
        self.weakened = bool(weakened)

    def descriptor(self) -> str:
        return "scripted:keycorridor:weakened" if self.weakened else "scripted:keycorridor"

    # bench/tracing.py wraps act by name in this class's own namespace
    act = TargetPolicy.act

    @staticmethod
    def _move_toward(own: tuple[int, int], dist: dict) -> int:
        here = dist.get(own)
        if here is None or here == 0:
            return STAY
        best_action, best_d = STAY, here
        for action, (dr, dc) in ((UP, (-1, 0)), (DOWN, (1, 0)), (LEFT, (0, -1)), (RIGHT, (0, 1))):
            nb = (own[0] + dr, own[1] + dc)
            d = dist.get(nb)
            if d is not None and d < best_d:
                best_action, best_d = action, d
        return best_action

    @classmethod
    def _moves(cls) -> np.ndarray:
        """_move_toward for every cell, stacked per agent as (agent, door open,
        ROWS * COLS): with the door closed agent 0 heads for the switch and
        agents 1-2 for the antechamber; once it is open all head for the goal.
        Built on first use and shared by every instance."""
        if cls._MOVES is None:
            rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
            walls, door = KeyCorridor.WALLS, KeyCorridor.DOOR

            def table(goal, passable) -> np.ndarray:
                dist = _bfs_distances(passable, rows, cols, goal)
                return np.array([cls._move_toward((r, c), dist)
                                 for r in range(rows) for c in range(cols)], dtype=np.int64)

            def closed(cell):
                return cell not in walls and cell != door

            to_goal = table(KeyCorridor.GOAL_ANCHOR, lambda cell: cell not in walls)
            to_wait = table(cls.ANTECHAMBER, closed)
            moves = np.stack([[table(KeyCorridor.SWITCH, closed), to_goal],
                              [to_wait, to_goal], [to_wait, to_goal]])
            moves.setflags(write=False)
            cls._MOVES = moves
        return cls._MOVES

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """One gather from the stacked next-move table, by each agent's own
        cell and door bit; non-finite input raises."""
        obs = _check_finite_batch(self._check_obs_batch(obs))
        own = _own_cells(obs[..., :2].transpose(2, 0, 1), self._EXTENT[:, None])  # (2, B, n)
        door = obs[..., 2] > 0.0
        actions = self._moves().take(np.where(door, self._OPEN_BASE, self._CLOSED_BASE)
                                     + own[0] * KeyCorridor.COLS + own[1])
        if self.weakened:
            # agent 0 stalls on teammate 1's odd parity while the door is
            # closed; on the switch itself its table move is STAY anyway
            mate = own[:, :, 0] + _rel_offsets(obs[:, 0, 9:11].T, self._EXTENT)
            np.maximum(mate, 0, out=mate)
            np.minimum(mate, self._EXTENT - 1, out=mate)
            stall = ~door[:, 0] & ((mate[0] + mate[1]) % 2 == 1)
            actions[:, 0] = np.where(stall, STAY, actions[:, 0])
        return actions


class ScriptedDiagnostic(TargetPolicy):
    """Every agent walks to the shared landmark, row difference first."""

    def __init__(self, n_agents: int, grid: int):
        self.n_agents = int(n_agents)
        self.grid = int(grid)
        self.obs_dim = 2 + 2 + 2 * (self.n_agents - 1)

    def descriptor(self) -> str:
        return f"scripted:diagnostic:n={self.n_agents}:grid={self.grid}"

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """Each agent steps along its own landmark offset, row first;
        non-finite input raises."""
        obs = _check_finite_batch(self._check_obs_batch(obs))
        dr = _rel_offsets(obs[..., 2], self.grid)
        dc = _rel_offsets(obs[..., 3], self.grid)
        return _step_toward(dr, dc)


class LearnedPolicy(TargetPolicy):
    """Greedy execution of a trained utility network (epsilon = 0)."""

    def __init__(self, qnet: AgentQNet, source: str = "learned"):
        self._qnet = qnet
        self.obs_dim = qnet.obs_dim
        self.n_agents = qnet.n_agents
        self._source = source

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """Per agent, the argmax (lowest index on ties) of one stacked
        forward of one-row blocks."""
        obs = self._check_obs_batch(obs)
        return np.stack([np.argmax(self._qnet.q_single(obs[:, i], i), axis=1)
                         for i in range(self.n_agents)], axis=1)

    def descriptor(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self._qnet.to_doc(), sort_keys=True).encode()).hexdigest()
        return f"learned:{self._source}:{digest[:16]}"


def privileged_q_network(policy: TargetPolicy) -> AgentQNet:
    """White-box accessor; scripted targets have no network to expose."""
    if isinstance(policy, LearnedPolicy):
        return policy._qnet
    raise CapabilityError(
        f"target {policy.descriptor()!r} is a black box; white-box access requires "
        "a learned target")


def scripted_policy(env) -> TargetPolicy:
    """The reference scripted target for a built-in environment."""
    if isinstance(env, Spread):
        return ScriptedSpread(env.n, env.grid)
    if isinstance(env, KeyCorridor):
        return ScriptedKeyCorridor()
    if isinstance(env, Diagnostic):
        return ScriptedDiagnostic(env.n, env.grid)
    raise envs.EnvError(f"no scripted policy for environment {getattr(env, 'name', env)!r}")


def scripted_by_name(env, variant: str = "default") -> TargetPolicy:
    if variant == "weakened":
        if not isinstance(env, KeyCorridor):
            raise envs.EnvError("weakened scripted variant exists only for keycorridor")
        return ScriptedKeyCorridor(weakened=True)
    return scripted_policy(env)


def train_target(env, config: dict, seed: int, progress=None):
    """Train a learned target on `env` with the shared TD machinery; config
    overrides DEFAULT_CONFIG["training"], and a key not in it raises
    ValueError.

    Returns (LearnedPolicy, curve_rows); curve rows are dicts suitable for
    CSV export. A zero-step budget returns the random-init greedy policy.
    """
    learner = QLearner(env.spec, env.spec.n_actions, seed,
                       merged_sections(config, "training"))
    curves = learner.learn(env, "target",
                           {"loss": "loss_total", "episode_reward": "episode_reward"},
                           progress=progress)
    policy = LearnedPolicy(learner.net, source=f"{env.name}:seed={seed}")
    return policy, curves


def save_checkpoint(policy: LearnedPolicy, env, path, training_step: int = 0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint_doc(policy._qnet, None, env, training_step), fh, sort_keys=True)


def load_checkpoint(path) -> LearnedPolicy:
    """Load a learned target; a malformed checkpoint raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    qnet, _ = load_checkpoint_doc(doc)
    return LearnedPolicy(qnet, source=f"checkpoint:{doc['env']}")
