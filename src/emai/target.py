"""Black-box target policies: the multi-agent system being explained.

Targets are queryable only through act(obs, agent_id) and its joint batched
form act_batch(obs), (B, n_agents, obs_dim) -> (B, n_agents); learned targets keep
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
    """Query-only interface: deterministic per-agent obs -> action."""

    obs_dim: int
    n_agents: int

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        raise NotImplementedError

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """Joint actions (B, n_agents) int64 for observations (B, n_agents,
        obs_dim): entry [b, i] is act(obs[b, i], i).

        Overrides must give exactly that; the default loops over act().
        """
        obs = self._check_obs_batch(obs)
        return np.array([[self.act(o, i) for i, o in enumerate(row)] for row in obs],
                        dtype=np.int64).reshape(obs.shape[:2])

    def descriptor(self) -> str:
        raise NotImplementedError

    def checksum(self) -> str:
        return hashlib.sha256(self.descriptor().encode("utf-8")).hexdigest()

    def _check_obs(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (self.obs_dim,):
            raise ValueError(f"observation shape {obs.shape} vs expected ({self.obs_dim},)")
        return obs

    def _check_obs_batch(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 3 or obs.shape[1:] != (self.n_agents, self.obs_dim):
            raise ValueError(f"observation batch shape {obs.shape} vs expected "
                             f"(B, {self.n_agents}, {self.obs_dim})")
        return obs


def _denorm(value: float, extent: int) -> int:
    """Undo the [-1, 1] own-position normalization, robust to noisy inputs."""
    cell = round((value + 1.0) * (extent - 1) / 2.0)
    return int(min(max(cell, 0), extent - 1))


def _denorm_rel(value: float, extent: int) -> int:
    return int(round(value * (extent - 1)))


# Batched _denorm/_denorm_rel, elementwise with the scalar float operations;
# extent is an int or an int array broadcast against values. np.rint and
# round() both round half to even. Clipping before the int cast changes no
# in-range result (callers clamp the cell to the grid) but keeps huge inputs
# from overflowing into bad indices. The first operation writes a C-order
# array, which the in-place rest runs through fastest.
def _denorm_batch(values: np.ndarray, extent) -> np.ndarray:
    top = np.subtract(extent, 1.0)  # exact: extent is a small int
    cells = np.add(values, 1.0, order="C")
    cells *= top
    cells /= 2.0
    np.rint(cells, out=cells)
    np.maximum(cells, 0.0, out=cells)
    np.minimum(cells, top, out=cells)
    return cells.astype(np.int64)


def _denorm_rel_batch(values: np.ndarray, extent) -> np.ndarray:
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
    """Per row, the move that closes a row gap dr first, then a column gap
    dc (STAY when both are 0), as the scripted targets' act() picks it."""
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

    def _decode(self, obs: np.ndarray, agent_id: int):
        g = self.grid
        own = (_denorm(obs[0], g), _denorm(obs[1], g))
        landmarks = []
        for k in range(self.n_agents):
            dr, dc = obs[2 + 2 * k], obs[3 + 2 * k]
            landmarks.append((min(max(own[0] + _denorm_rel(dr, g), 0), g - 1),
                              min(max(own[1] + _denorm_rel(dc, g), 0), g - 1)))
        base = 2 + 2 * self.n_agents
        positions: list[tuple[int, int]] = [None] * self.n_agents  # type: ignore
        positions[agent_id] = own
        others = [j for j in range(self.n_agents) if j != agent_id]
        for slot, j in enumerate(others):
            dr, dc = obs[base + 2 * slot], obs[base + 2 * slot + 1]
            positions[j] = (min(max(own[0] + _denorm_rel(dr, g), 0), g - 1),
                            min(max(own[1] + _denorm_rel(dc, g), 0), g - 1))
        return positions, landmarks

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        obs = self._check_obs(obs)
        positions, landmarks = self._decode(obs, agent_id)
        claimed: set[int] = set()
        mine: tuple[int, int] | None = None
        for i in range(self.n_agents):
            best, best_d = -1, None
            for k, lm in enumerate(landmarks):
                if k in claimed:
                    continue
                d = abs(positions[i][0] - lm[0]) + abs(positions[i][1] - lm[1])
                if best_d is None or d < best_d:
                    best, best_d = k, d
            claimed.add(best)
            if i == agent_id:
                mine = landmarks[best]
                break
        own = positions[agent_id]
        if own[0] != mine[0]:
            return UP if mine[0] < own[0] else DOWN
        if own[1] != mine[1]:
            return LEFT if mine[1] < own[1] else RIGHT
        return STAY

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """act() of every agent of every row: _decode and the greedy claims,
        vectorized over (row, agent) pairs; non-finite input raises."""
        obs = _check_finite_batch(self._check_obs_batch(obs))
        g, n = self.grid, self.n_agents
        flat = obs.reshape(-1, self.obs_dim)  # pair b * n + i: agent i of row b
        pairs = np.arange(len(flat))
        agent = np.tile(np.arange(n), len(obs))
        own = _denorm_batch(flat[:, :2], g)

        def cells(offset: int, count: int) -> np.ndarray:  # (pairs, count, 2), clamped to the grid
            rel = _denorm_rel_batch(flat[:, offset:offset + 2 * count], g).reshape(-1, count, 2)
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

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        obs = self._check_obs(obs)
        rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
        r, c = _denorm(obs[0], rows), _denorm(obs[1], cols)
        moves = self._moves()[agent_id]
        if obs[2] > 0.0:  # the door is open
            return int(moves[1, r * cols + c])
        if agent_id == 0 and self.weakened and (r, c) != KeyCorridor.SWITCH:
            mate_r = min(max(r + _denorm_rel(obs[9], rows), 0), rows - 1)
            mate_c = min(max(c + _denorm_rel(obs[10], cols), 0), cols - 1)
            if (mate_r + mate_c) % 2 == 1:
                return STAY  # foot-dragging: advances on half the steps
        return int(moves[0, r * cols + c])

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """act() of every agent of every row, one gather from the stacked
        next-move table; non-finite input raises."""
        obs = _check_finite_batch(self._check_obs_batch(obs))
        own = _denorm_batch(obs[..., :2].transpose(2, 0, 1), self._EXTENT[:, None])  # (2, B, n)
        door = obs[..., 2] > 0.0
        actions = self._moves().take(np.where(door, self._OPEN_BASE, self._CLOSED_BASE)
                                     + own[0] * KeyCorridor.COLS + own[1])
        if self.weakened:
            # agent 0 stalls on teammate 1's odd parity while the door is
            # closed; on the switch itself its table move is STAY anyway
            mate = own[:, :, 0] + _denorm_rel_batch(obs[:, 0, 9:11].T, self._EXTENT)
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

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        obs = self._check_obs(obs)
        dr = _denorm_rel(obs[2], self.grid)
        dc = _denorm_rel(obs[3], self.grid)
        if dr != 0:
            return UP if dr < 0 else DOWN
        if dc != 0:
            return LEFT if dc < 0 else RIGHT
        return STAY

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """act() of every agent of every row; non-finite input raises."""
        obs = _check_finite_batch(self._check_obs_batch(obs))
        dr = _denorm_rel_batch(obs[..., 2], self.grid)
        dc = _denorm_rel_batch(obs[..., 3], self.grid)
        return _step_toward(dr, dc)


class LearnedPolicy(TargetPolicy):
    """Greedy execution of a trained utility network (epsilon = 0)."""

    def __init__(self, qnet: AgentQNet, source: str = "learned"):
        self._qnet = qnet
        self.obs_dim = qnet.obs_dim
        self.n_agents = qnet.n_agents
        self._source = source

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        obs = self._check_obs(obs)
        return int(np.argmax(self._qnet.q_single(obs, agent_id)))  # lowest index wins ties

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """act() of every agent of every row: per agent, one stacked forward
        of one-row blocks."""
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
