"""Black-box target policies: the multi-agent system being explained.

Targets are queryable only through act(obs, agent_id); learned targets keep
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
    kind: str = "scripted"

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        raise NotImplementedError

    def act_batch(self, obs: np.ndarray, agent_id: int) -> np.ndarray:
        """act() over the rows of obs (B, obs_dim); returns (B,) int64.

        Overrides must give exactly [act(row, agent_id) for row in obs]. The
        default loops over act(), which keeps black-box and learned targets
        exact: a batched matmul need not round like a one-row product.
        """
        obs = self._check_obs_batch(obs)
        return np.array([self.act(row, agent_id) for row in obs], dtype=np.int64)

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
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise ValueError(f"observation batch shape {obs.shape} vs expected (B, {self.obs_dim})")
        return obs


def _denorm(value: float, extent: int) -> int:
    """Undo the [-1, 1] own-position normalization, robust to noisy inputs."""
    cell = round((value + 1.0) * (extent - 1) / 2.0)
    return int(min(max(cell, 0), extent - 1))


def _denorm_rel(value: float, extent: int) -> int:
    return int(round(value * (extent - 1)))


# Batched _denorm/_denorm_rel. np.rint and round() both round half to even.
# Clipping before the int cast changes no in-range result (callers clamp the
# cell to the grid) but keeps huge inputs from overflowing into bad indices.
def _denorm_batch(values: np.ndarray, extent: int) -> np.ndarray:
    return np.clip(np.rint((values + 1.0) * (extent - 1) / 2.0), 0, extent - 1).astype(np.int64)


def _denorm_rel_batch(values: np.ndarray, extent: int) -> np.ndarray:
    return np.clip(np.rint(values * (extent - 1)), 1 - extent, extent - 1).astype(np.int64)


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

    def __init__(self, weakened: bool = False):
        self.weakened = bool(weakened)
        rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
        walls = KeyCorridor.WALLS
        door = KeyCorridor.DOOR

        def passable_closed(cell):
            return cell not in walls and cell != door

        def passable_open(cell):
            return cell not in walls

        self._maps = {
            ("switch", False): _bfs_distances(passable_closed, rows, cols, KeyCorridor.SWITCH),
            ("goal", True): _bfs_distances(passable_open, rows, cols, KeyCorridor.GOAL_ANCHOR),
            ("wait", False): _bfs_distances(passable_closed, rows, cols, self.ANTECHAMBER),
        }
        self._tables: dict | None = None  # next-move lookup, see _next_moves

    def descriptor(self) -> str:
        return "scripted:keycorridor:weakened" if self.weakened else "scripted:keycorridor"

    def _move_toward(self, own: tuple[int, int], dist: dict) -> int:
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

    def _next_moves(self) -> dict:
        """_move_toward for every cell of each BFS map, as (ROWS, COLS) action
        tables; built on first use so construction stays cheap."""
        if self._tables is None:
            rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
            self._tables = {
                key: np.array([[self._move_toward((r, c), dist) for c in range(cols)]
                               for r in range(rows)], dtype=np.int64)
                for key, dist in self._maps.items()}
        return self._tables

    def _teammates(self, obs: np.ndarray, own: tuple[int, int]) -> list[tuple[int, int]]:
        rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
        out = []
        for base in (9, 11):
            out.append((min(max(own[0] + _denorm_rel(obs[base], rows), 0), rows - 1),
                        min(max(own[1] + _denorm_rel(obs[base + 1], cols), 0), cols - 1)))
        return out

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        obs = self._check_obs(obs)
        own = (_denorm(obs[0], KeyCorridor.ROWS), _denorm(obs[1], KeyCorridor.COLS))
        door_open = obs[2] > 0.0
        if door_open:
            return self._move_toward(own, self._maps[("goal", True)])
        if agent_id == 0:
            if self.weakened and own != KeyCorridor.SWITCH:
                mate = self._teammates(obs, own)[0]
                if (mate[0] + mate[1]) % 2 == 1:
                    return STAY  # foot-dragging: advances on half the steps
            return self._move_toward(own, self._maps[("switch", False)])
        return self._move_toward(own, self._maps[("wait", False)])

    def act_batch(self, obs: np.ndarray, agent_id: int) -> np.ndarray:
        """act() over rows via the next-move tables; non-finite input raises."""
        obs = self._check_obs_batch(obs)
        if not np.isfinite(obs).all():
            raise ValueError("observation batch has non-finite entries")
        rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
        tables = self._next_moves()
        r, c = _denorm_batch(obs[:, 0], rows), _denorm_batch(obs[:, 1], cols)
        closed = tables[("switch", False) if agent_id == 0 else ("wait", False)][r, c]
        if agent_id == 0 and self.weakened:
            mate_r = np.clip(r + _denorm_rel_batch(obs[:, 9], rows), 0, rows - 1)
            mate_c = np.clip(c + _denorm_rel_batch(obs[:, 10], cols), 0, cols - 1)
            at_switch = (r == KeyCorridor.SWITCH[0]) & (c == KeyCorridor.SWITCH[1])
            stall = ~at_switch & ((mate_r + mate_c) % 2 == 1)
            closed = np.where(stall, STAY, closed)
        return np.where(obs[:, 2] > 0.0, tables[("goal", True)][r, c], closed)


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


class LearnedPolicy(TargetPolicy):
    """Greedy execution of a trained utility network (epsilon = 0)."""

    kind = "learned"

    def __init__(self, qnet: AgentQNet, source: str = "learned"):
        self._qnet = qnet
        self.obs_dim = qnet.obs_dim
        self.n_agents = qnet.n_agents
        self._source = source

    def act(self, obs: np.ndarray, agent_id: int) -> int:
        obs = self._check_obs(obs)
        return int(np.argmax(self._qnet.q_single(obs, agent_id)))  # lowest index wins ties

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
    learner = QLearner(env.spec, env.spec.action_space.n, seed,
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
