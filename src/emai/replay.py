"""Episode recording, JSON-lines serialization and offline text rendering.

A record is one header line plus one line per step (a rollout.Step), floats
printed with 9 significant digits; parsing is strict (version check, per-line
diagnostics, header/step reward consistency, step shapes that fit the env the
header builds). Rendering marks the most critical agent per step so a human
can eyeball what an explainer claims.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .config import check_keys, check_tag, is_finite, is_finite_list, is_int, is_int_list
from .envs import AGENTS_MAX, DELTAS, GRID_MAX, KeyCorridor, decode_norm, make_env
from .rollout import Step, left_sum

FORMAT_VERSION = 1
KIND = "episode-record"


class ReplayError(ValueError):
    """Malformed, truncated or inconsistent replay data."""


def _round9(x: float) -> float:
    return float(f"{float(x):.9g}")


def _round9_each(values: np.ndarray) -> list[float]:
    """[_round9(v) for v in values] of a float64 array, with _round9 called
    once per distinct bit pattern (so -0.0 and 0.0 are rounded apart)."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    rounded = np.array([_round9(v) for v in bits.view(np.float64).tolist()], dtype=np.float64)
    return rounded[inverse].tolist()


_ACTIONS, _MASK_BITS = frozenset(range(len(DELTAS))), frozenset({0, 1})

# Step field -> the test its parsed JSON value must pass; a step line holds exactly these keys
_STEP_TYPES = {
    "t": is_int,
    "state": is_finite_list,
    "observations": lambda v: type(v) is list and all(map(is_finite_list, v)),
    "target_actions": lambda v: is_int_list(v, _ACTIONS),
    "mask_actions": lambda v: v is None or is_int_list(v, _MASK_BITS),
    "final_actions": lambda v: is_int_list(v, _ACTIONS),
    "reward": is_finite,
    "importance": lambda v: v is None or is_finite_list(v),
}
_STEP_KEYS = frozenset(_STEP_TYPES)


# header key -> the test its parsed JSON value must pass
_HEADER_TYPES = {
    "env_name": lambda v: isinstance(v, str),
    "env_params": lambda v: isinstance(v, dict),
    "seed": is_int,
    "target_id": lambda v: isinstance(v, str),
    "explainer_id": lambda v: isinstance(v, str),
    "n_agents": is_int,
    "n_steps": is_int,
    "reward_sum": is_finite,
}
_HEADER_KEYS = frozenset(("v", "kind", *_HEADER_TYPES))  # the keys serialize writes


def _header_env(env_name: str, env_params: dict, n_agents: int):
    """The env that a header's env_name and env_params build through
    make_env, which checks each param's JSON type. ReplayError unless the env
    builds, its grid lies in [2, GRID_MAX] and its n_agents param, if given,
    equals the header's n_agents and is at most AGENTS_MAX, all checked
    before it is built, so a hand-edited header can neither misdraw nor blow
    up the build or a rendering."""
    grid, agents = env_params.get("grid"), env_params.get("n_agents")
    if is_int(grid) and not 2 <= grid <= GRID_MAX:
        raise ReplayError(f"malformed header on line 1: env_params grid {grid} "
                          f"is not in [2, {GRID_MAX}]")
    if is_int(agents) and (agents != n_agents or agents > AGENTS_MAX):
        raise ReplayError(f"malformed header on line 1: env_params n_agents {agents} must be "
                          f"the header's n_agents {n_agents} and at most {AGENTS_MAX}")
    try:
        return make_env(env_name, **env_params)
    except (TypeError, ValueError) as exc:
        raise ReplayError(f"malformed header on line 1: env {env_name!r} with env_params "
                          f"{env_params} does not build: {exc}") from exc


@dataclass
class EpisodeRecord:
    env_name: str
    env_params: dict
    seed: int
    target_id: str
    explainer_id: str
    n_agents: int
    steps: list[Step]
    reward_sum: float


def record(stream, env_name: str, env_params: dict, seed: int,
           target_id: str = "", explainer_id: str = "") -> EpisodeRecord:
    """Capture a finished episode's step stream into a normalized record.

    Steps must be contiguous from t = 0; anything else is a mid-episode
    stream and is rejected. Floats are normalized to the serialized
    precision so records round-trip exactly: the record's floats are
    gathered into one array and _round9 runs once per distinct value. An
    empty stream records the n_agents of the env its name and params build.
    """
    stream = list(stream)
    for idx, s in enumerate(stream):
        if s.t != idx:
            raise ReplayError(f"mid-episode stream: step index {s.t} at position {idx}")
    # every float of the record in one array: the rewards, then each step's
    # state, observations and importance, consumed below in the same order
    arrays = [(np.asarray(s.state, dtype=np.float64), np.asarray(s.observations, dtype=np.float64),
               None if s.importance is None else np.asarray(s.importance, dtype=np.float64))
              for s in stream]
    parts = [np.array([s.reward for s in stream], dtype=np.float64)]
    for state, obs, importance in arrays:
        parts += (state, obs.reshape(-1), np.empty(0) if importance is None else importance)
    values = iter(_round9_each(np.concatenate(parts)))

    def take(count: int) -> list[float]:
        return list(itertools.islice(values, count))

    rewards = take(len(stream))
    steps = [Step(
        t=s.t,
        state=take(len(state)),
        observations=[take(obs.shape[1]) for _ in range(len(obs))],
        target_actions=[int(a) for a in s.target_actions],
        mask_actions=None if s.mask_actions is None else [int(b) for b in s.mask_actions],
        final_actions=[int(a) for a in s.final_actions],
        reward=reward,
        importance=None if importance is None else take(len(importance)),
    ) for s, (state, obs, importance), reward in zip(stream, arrays, rewards)]
    reward_sum = _round9(left_sum(rewards))
    n_agents = len(arrays[0][1]) if arrays else make_env(env_name, **env_params).spec.n_agents
    return EpisodeRecord(env_name, dict(env_params), int(seed), target_id, explainer_id,
                         n_agents, steps, reward_sum)


def serialize(rec: EpisodeRecord) -> str:
    header = {"v": FORMAT_VERSION, "kind": KIND,
              "env_name": rec.env_name, "env_params": rec.env_params,
              "seed": rec.seed, "target_id": rec.target_id,
              "explainer_id": rec.explainer_id, "n_agents": rec.n_agents,
              "n_steps": len(rec.steps), "reward_sum": rec.reward_sum}
    lines = [json.dumps(header, sort_keys=True)]
    for step in rec.steps:
        lines.append(json.dumps(vars(step), sort_keys=True))  # asdict would deep-copy every list
    return "\n".join(lines) + "\n"


def parse(text: str) -> EpisodeRecord:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ReplayError("empty replay: missing header line 1")
    try:  # a JSONDecodeError is a ValueError too
        header = json.loads(lines[0])
        check_tag(header, "kind", KIND, "replay header")
        check_keys(header, _HEADER_KEYS, "replay header")
        bad = [key for key, ok in _HEADER_TYPES.items() if not ok(header[key])]
        if bad:
            raise ValueError(f"ill-typed header fields {bad} (counts and the seed are JSON "
                             "ints, reward_sum a finite number, the ids strings, env_params "
                             "an object)")
    except ValueError as exc:
        raise ReplayError(f"malformed header on line 1: {exc}") from exc
    n_steps, declared = header["n_steps"], float(header["reward_sum"])
    seed, n_agents = header["seed"], header["n_agents"]
    env_name, env_params = header["env_name"], header["env_params"]
    target_id, explainer_id = header["target_id"], header["explainer_id"]
    spec = _header_env(env_name, env_params, n_agents).spec
    steps: list[Step] = []
    last_good = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            check_keys(doc, _STEP_KEYS, "step")
            bad = [name for name, ok in _STEP_TYPES.items() if not ok(doc[name])]
            if bad:
                raise TypeError(f"ill-typed step fields {bad} (every number must be finite, "
                                f"every action an int in [0, {len(DELTAS)}) and every "
                                "mask bit 0 or 1)")
            steps.append(Step(**doc))
        except (ValueError, TypeError) as exc:
            raise ReplayError(
                f"malformed step on line {lineno} (last good line {last_good}): {exc}"
            ) from exc
        last_good = lineno
    if len(steps) != n_steps:
        raise ReplayError(f"truncated replay: header promises {n_steps} steps, "
                          f"found {len(steps)} (last good line {last_good})")
    for idx, st in enumerate(steps):
        if st.t != idx:
            raise ReplayError(f"non-contiguous steps: expected t={idx}, got t={st.t}")
        per_agent = (st.observations, st.target_actions, st.mask_actions, st.final_actions,
                     st.importance)
        if any(v is not None and len(v) != n_agents for v in per_agent):
            raise ReplayError(f"step t={idx}: a per-agent field does not hold one entry for "
                              f"each of the header's n_agents={n_agents} agents")
        if len(st.state) != spec.state_dim or any(len(o) != spec.obs_dim
                                                  for o in st.observations):
            raise ReplayError(f"step t={idx}: the state or an observation does not have the "
                              f"{env_name} env's state_dim {spec.state_dim} or obs_dim "
                              f"{spec.obs_dim}")
    if spec.n_agents != n_agents:
        raise ReplayError(f"the header's n_agents {n_agents} differs from the "
                          f"{spec.n_agents} agents of its {env_name} env")
    total = left_sum(st.reward for st in steps)
    if abs(total - declared) > 1e-6 * max(1.0, abs(declared)):
        raise ReplayError(f"header reward_sum {declared} inconsistent with "
                          f"step sum {total}")
    return EpisodeRecord(env_name, env_params, seed, target_id, explainer_id, n_agents,
                         steps, declared)


def _grid_geometry(rec: EpisodeRecord, grid_shape: tuple[int, int], step: Step):
    """(rows, cols, walls, features, agent cells) for one step's state on
    the header env's (rows, cols) grid: the agents' cells, then the
    landmarks' (or keycorridor's door flag), decoded as envs.decode_norm
    decodes an observation's own position."""
    n, keycorridor = rec.n_agents, rec.env_name == "keycorridor"
    state = np.asarray(step.state, dtype=np.float64)
    if len(state) < 2 * n + keycorridor:
        raise ReplayError(f"a {rec.env_name} state of {n} agents holds at least "
                          f"{2 * n + keycorridor} entries, got {len(state)}")
    (rows, cols), top = grid_shape, np.subtract(grid_shape, 1.0)
    if keycorridor:
        feats = {KeyCorridor.SWITCH: "S", KeyCorridor.DOOR: "d" if state[2 * n] > 0 else "D"}
        for r in range(rows):
            feats.setdefault((r, KeyCorridor.GOAL_COL), "G")
        walls = set(KeyCorridor.WALLS)
    else:
        k = (len(state) - 2 * n) // 2
        walls = set()
        feats = {cell: "L" for cell in map(tuple, decode_norm(
            state[2 * n:2 * (n + k)].reshape(k, 2), top).tolist())}
    agents = decode_norm(state[:2 * n].reshape(n, 2), top).tolist()
    return rows, cols, walls, feats, agents


def render(rec: EpisodeRecord, mode: str = "ascii") -> str:
    """ascii: per-step grids with the most critical agent starred, each cell
    as wide as the widest agent index plus its mark (2 characters for up to
    10 agents). csv: one (t, agent, importance, masked) row per agent per
    step."""
    if mode == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "agent", "importance", "masked"])
        for step in rec.steps:
            for i in range(rec.n_agents):
                imp = "" if step.importance is None else step.importance[i]
                masked = 0 if step.mask_actions is None else int(step.mask_actions[i])
                writer.writerow([step.t, i, imp, masked])
        return buf.getvalue()
    if mode != "ascii":
        raise ValueError(f"unknown render mode {mode!r}")
    out: list[str] = [f"env={rec.env_name} seed={rec.seed} target={rec.target_id} "
                      f"explainer={rec.explainer_id} reward_sum={rec.reward_sum}"]
    grid_shape = _header_env(rec.env_name, rec.env_params, rec.n_agents).grid_shape
    width = len(str(rec.n_agents - 1)) + 1  # the widest agent index and its mark
    blank = ".".ljust(width)
    for step in rec.steps:
        critical = None
        if step.importance is not None:
            critical = int(np.argmax(step.importance))
        head = f"t={step.t} reward={step.reward}"
        if critical is not None:
            head += f" critical={critical}"
        out.append(head)
        rows, cols, walls, feats, agents = _grid_geometry(rec, grid_shape, step)
        cells = [[blank] * cols for _ in range(rows)]
        for (r, c) in walls:
            cells[r][c] = "#".ljust(width)
        for (r, c), ch in feats.items():
            if cells[r][c] == blank:
                cells[r][c] = ch.ljust(width)
        for i, (r, c) in enumerate(agents):
            mark = "*" if i == critical else " "
            cells[r][c] = f"{i}{mark}".ljust(width)
        out.extend("".join(row) for row in cells)
        out.append("")
    return "\n".join(out)
