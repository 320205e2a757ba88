"""Episode recording, JSON-lines serialization and offline text rendering.

A record is one header line plus one line per step, floats printed with 9
significant digits; parsing is strict (version check, per-line diagnostics,
header/step reward consistency). Rendering marks the most critical agent
per step so a human can eyeball what an explainer claims.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .envs import KeyCorridor

FORMAT_VERSION = 1


class ReplayError(ValueError):
    """Malformed, truncated or inconsistent replay data."""


def _round9(x: float) -> float:
    return float(f"{float(x):.9g}")


def _round_list(values) -> list[float]:
    return [_round9(v) for v in values]


@dataclass
class RecordStep:
    t: int
    state: list[float]
    observations: list[list[float]]
    target_actions: list[int]
    mask_actions: list[int] | None
    final_actions: list[int]
    reward: float
    importance: list[float] | None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


def _optional(check):
    return lambda v: v is None or check(v)


# RecordStep field -> the test its parsed JSON value must pass
_STEP_TYPES = {
    "t": _is_int,
    "state": _list_of(_is_num),
    "observations": _list_of(_list_of(_is_num)),
    "target_actions": _list_of(_is_int),
    "mask_actions": _optional(_list_of(_is_int)),
    "final_actions": _list_of(_is_int),
    "reward": _is_num,
    "importance": _optional(_list_of(_is_num)),
}


@dataclass
class EpisodeRecord:
    env_name: str
    env_params: dict
    seed: int
    target_id: str
    explainer_id: str
    n_agents: int
    steps: list[RecordStep]
    reward_sum: float


def record(stream, env_name: str, env_params: dict, seed: int,
           target_id: str = "", explainer_id: str = "") -> EpisodeRecord:
    """Capture a finished episode's step stream into a normalized record.

    Steps must be contiguous from t = 0; anything else is a mid-episode
    stream and is rejected. Floats are normalized to the serialized
    precision so records round-trip exactly.
    """
    steps: list[RecordStep] = []
    n_agents = None
    for idx, s in enumerate(stream):
        if s.t != idx:
            raise ReplayError(f"mid-episode stream: step index {s.t} at position {idx}")
        if n_agents is None:
            n_agents = len(s.observations)
        steps.append(RecordStep(
            t=s.t,
            state=_round_list(s.state),
            observations=[_round_list(row) for row in s.observations],
            target_actions=[int(a) for a in s.target_actions],
            mask_actions=None if s.mask_actions is None else [int(b) for b in s.mask_actions],
            final_actions=[int(a) for a in s.final_actions],
            reward=_round9(s.reward),
            importance=None if s.importance is None else _round_list(s.importance),
        ))
    reward_sum = _round9(sum(st.reward for st in steps))
    return EpisodeRecord(env_name, dict(env_params), int(seed), target_id, explainer_id,
                         n_agents if n_agents is not None else 0, steps, reward_sum)


def serialize(rec: EpisodeRecord) -> str:
    header = {"v": FORMAT_VERSION, "kind": "episode-record",
              "env_name": rec.env_name, "env_params": rec.env_params,
              "seed": rec.seed, "target_id": rec.target_id,
              "explainer_id": rec.explainer_id, "n_agents": rec.n_agents,
              "n_steps": len(rec.steps), "reward_sum": rec.reward_sum}
    lines = [json.dumps(header, sort_keys=True)]
    for step in rec.steps:
        lines.append(json.dumps(asdict(step), sort_keys=True))
    return "\n".join(lines) + "\n"


def parse(text: str) -> EpisodeRecord:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ReplayError("empty replay: missing header line 1")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ReplayError(f"malformed header on line 1: {exc}") from exc
    if not isinstance(header, dict):
        raise ReplayError("malformed header on line 1: not a JSON object")
    if header.get("v") != FORMAT_VERSION:
        raise ReplayError(f"unsupported replay version {header.get('v')!r}; "
                          f"this reader handles v:{FORMAT_VERSION} only")
    try:
        n_steps, declared = int(header["n_steps"]), float(header["reward_sum"])
        seed, n_agents = int(header["seed"]), int(header["n_agents"])
        env_name, env_params = header["env_name"], header["env_params"]
        target_id, explainer_id = header["target_id"], header["explainer_id"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"malformed header on line 1: {type(exc).__name__}: {exc}") from exc
    steps: list[RecordStep] = []
    last_good = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            step = RecordStep(**json.loads(line))
            bad = [name for name, ok in _STEP_TYPES.items() if not ok(getattr(step, name))]
            if bad:
                raise TypeError(f"ill-typed step fields {bad}")
            steps.append(step)
        except (json.JSONDecodeError, TypeError) as exc:
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
    total = sum(st.reward for st in steps)
    if abs(total - declared) > 1e-6 * max(1.0, abs(declared)):
        raise ReplayError(f"header reward_sum {declared} inconsistent with "
                          f"step sum {total}")
    return EpisodeRecord(env_name, env_params, seed, target_id, explainer_id, n_agents,
                         steps, declared)


def _denorm_cell(norm_r: float, norm_c: float, rows: int, cols: int) -> tuple[int, int]:
    r = int(round((norm_r + 1.0) * (rows - 1) / 2.0))
    c = int(round((norm_c + 1.0) * (cols - 1) / 2.0))
    return min(max(r, 0), rows - 1), min(max(c, 0), cols - 1)


def _grid_geometry(rec: EpisodeRecord, step: RecordStep):
    """(rows, cols, walls, features, agent cells) for one step's state."""
    n = rec.n_agents
    if rec.env_name == "keycorridor":
        rows, cols = KeyCorridor.ROWS, KeyCorridor.COLS
        agents = [_denorm_cell(step.state[2 * i], step.state[2 * i + 1], rows, cols)
                  for i in range(n)]
        door_open = step.state[2 * n] > 0
        feats = {KeyCorridor.SWITCH: "S", KeyCorridor.DOOR: "d" if door_open else "D"}
        for r in range(rows):
            feats.setdefault((r, KeyCorridor.GOAL_COL), "G")
        return rows, cols, set(KeyCorridor.WALLS), feats, agents
    grid = int(rec.env_params.get("grid", 8))
    rows = cols = grid
    agents = [_denorm_cell(step.state[2 * i], step.state[2 * i + 1], rows, cols)
              for i in range(n)]
    feats = {}
    tail = step.state[2 * n:]
    for k in range(len(tail) // 2):
        feats[_denorm_cell(tail[2 * k], tail[2 * k + 1], rows, cols)] = "L"
    return rows, cols, set(), feats, agents


def render(rec: EpisodeRecord, mode: str = "ascii") -> str:
    """ascii: per-step grids with the most critical agent starred.
    csv: one (t, agent, importance, masked) row per agent per step."""
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
    for step in rec.steps:
        critical = None
        if step.importance is not None:
            critical = int(np.argmax(step.importance))
        head = f"t={step.t} reward={step.reward}"
        if critical is not None:
            head += f" critical={critical}"
        out.append(head)
        rows, cols, walls, feats, agents = _grid_geometry(rec, step)
        cells = [[". " for _ in range(cols)] for _ in range(rows)]
        for (r, c) in walls:
            cells[r][c] = "# "
        for (r, c), ch in feats.items():
            if cells[r][c] == ". ":
                cells[r][c] = ch + " "
        for i, (r, c) in enumerate(agents):
            mark = "*" if i == critical else " "
            cells[r][c] = f"{i}{mark}"
        out.extend("".join(row) for row in cells)
        out.append("")
    return "\n".join(out)
