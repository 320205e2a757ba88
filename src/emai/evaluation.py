"""Quantitative evaluation harness.

Fidelity (RRD): randomize the explainer's most critical agent every step and
compare the reward damage against random agent selection on matched episode
seeds. Attacks: uniform observation noise on the most critical agent only.
Patching: harvest (observation, action) pairs of critical agents from
high-reward episodes and override the critical agent's action whenever a
sufficiently similar observation (Manhattan distance below d_th) is on file.

Each command plays all its matched arms as row blocks of one lockstep batch
over its episode seeds, each seed placed once: block 0 is the original arm,
and row i of every block plays episode i. Each step makes one target query
over every row, one env step and one explainer query, which scores a batch
of exactly the rows of the block that reads it. Every row's result depends
on that row alone, so a report equals that of one batch per arm. The patch
harvest plays its episodes and then replays the kept ones: two batches, as
the second needs the first one's ranking.
All episode rewards here are undiscounted sums; every batch derives its
episode seeds from the root seed so reports replay bitwise.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .explain import Explainer
from .masking import _check_compat
from .nn import _sum_rows
from .rng import episode_seeds, integers_rows, uniform_rows
from .rollout import reward_sums, run_lockstep, stderr

RRD_DENOMINATOR_GUARD = 1e-6
# bound on the (rows, entries, obs_dim) distance block of one patch query
PATCH_DISTANCE_BLOCK = 1 << 16


def _paired_stats(deltas: np.ndarray) -> tuple[float, float]:
    return float(deltas.mean()), float(stderr(deltas))


def _matched_start(target, env, episodes: int, seed: int, tag: str, arms: int) -> tuple:
    """The matched-seed start of one command's `arms` arms: the `episodes`
    episode seeds, each placed once, and a batch of `arms` row blocks of
    their starts, row a * episodes + i the start of episode i in arm a.
    Block 0 is the original, unperturbed arm."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    _check_compat(target, env)
    seeds = episode_seeds(seed, tag, episodes)
    return seeds, env.reset_batch(seeds).repeat(1, np.tile(np.arange(episodes), arms))


def _most_critical(explainer: Explainer, batch, obs: np.ndarray, seeds,
                   block: int = 0) -> np.ndarray:
    """The most critical agent of each row of row block `block` of the live
    batch, len(seeds) rows a block, at its step (lowest index wins ties): the
    argmax of the explainer's scores, as most_critical takes it. The
    explainer scores a batch of exactly the block's rows: the live batch
    itself when it is one block, else a copy of them."""
    size = len(seeds)
    rows = slice(block * size, (block + 1) * size)
    if batch.size != size:
        batch = batch.repeat(1, rows)
    return np.argmax(explainer.scores_batch(obs[rows], batch.t, seeds, batch), axis=1)


# An arm that randomizes draws all its episodes' randomness up front as one
# table, row i bitwise the draws of stream(root, tag, i) in the order one
# scalar episode makes them, and step t reads its column(s) t.
def _episode_tags(count: int) -> tuple[np.ndarray]:
    """The one tail column, episode index i, of `count` rows."""
    return (np.arange(count),)


def _package_columns(pkg_obs: np.ndarray, queries: int) -> np.ndarray:
    """A package as _nearest_entries takes it: (obs_dim, block, entries), each
    [:, i] its transpose, for blocks of up to `queries` query rows."""
    block = min(max(1, queries), max(1, PATCH_DISTANCE_BLOCK // max(1, pkg_obs.size)))
    return np.ascontiguousarray(np.broadcast_to(pkg_obs.T[:, None], (pkg_obs.shape[1], block,
                                                                      len(pkg_obs))))


def _nearest_entries(columns: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per query row: the index of the package entry nearest in Manhattan
    distance (ties to the lowest index) and that distance, bitwise those of
    np.abs(pkg_obs - queries[:, None]).sum(axis=2). A block of rows, repeated
    per entry, meets _package_columns in one subtraction, and nn._sum_rows
    adds the obs_dim slabs: a cost per term, not per (row, entry) pair."""
    obs_dim, block, entries = columns.shape
    best, dist = np.empty(len(queries), dtype=np.int64), np.empty(len(queries))
    for lo in range(0, len(queries), block):
        terms = np.repeat(queries[lo:lo + block].T, entries, axis=1).reshape(obs_dim, -1, entries)
        np.subtract(columns[:, :terms.shape[1]], terms, out=terms)
        dists = _sum_rows(np.abs(terms, out=terms))
        best[lo:lo + block] = np.argmin(dists, axis=1)
        dist[lo:lo + block] = dists[np.arange(len(dists)), best[lo:lo + block]]
    return best, dist


# ---- fidelity ----

@dataclass
class RrdReport:
    explainer_id: str
    env_name: str
    episodes: int
    r_o: float
    r_e: float
    r_r: float
    se_o: float
    se_e: float
    se_r: float
    delta_e: float       # mean per-episode (guided - original), matched seeds
    delta_r: float
    se_delta_e: float
    se_delta_r: float
    rrd: float | None
    rrd_stderr: float | None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_rewards(cls, explainer_id: str, env_name: str, r_o: np.ndarray,
                     r_e: np.ndarray, r_r: np.ndarray) -> "RrdReport":
        """The report of matched per-episode rewards: original, guided, random."""
        delta_e, se_de = _paired_stats(r_e - r_o)
        delta_r, se_dr = _paired_stats(r_r - r_o)
        if abs(delta_r) < RRD_DENOMINATOR_GUARD:
            rrd, rrd_se = None, None  # undefined; numerator/denominator still reported
        else:
            rrd = abs(delta_e) / abs(delta_r)
            rrd_se = float(np.sqrt(se_de ** 2 + (rrd ** 2) * se_dr ** 2) / abs(delta_r))
        return cls(explainer_id, env_name, len(r_o),
                   float(r_o.mean()), float(r_e.mean()), float(r_r.mean()),
                   float(stderr(r_o)), float(stderr(r_e)), float(stderr(r_r)),
                   delta_e, delta_r, se_de, se_dr, rrd, rrd_se)


def eval_fidelity(explainer: Explainer, target, env, episodes: int = 500,
                  seed: int = 0) -> RrdReport:
    """RRD = |R_e - R_o| / |R_r - R_o| over matched-seed episodes, in row
    blocks original, guided (each step the explainer's most critical agent
    acts at random) and random (each step a uniformly drawn agent does)."""
    seeds, start = _matched_start(target, env, episodes, seed, "fidelity", 3)
    spec, tags = env.spec, _episode_tags(episodes)
    mask = integers_rows(seed, ("fid-mask-e",), tags, episodes, [spec.n_actions] * spec.horizon,
                         spec.horizon)
    # per step, the action draw precedes the agent draw
    draws = integers_rows(seed, ("fid-mask-r",), tags, episodes,
                          [spec.n_actions, spec.n_agents] * spec.horizon, 2 * spec.horizon)
    guided, randomized = np.arange(episodes, 2 * episodes), np.arange(2 * episodes, 3 * episodes)

    def act(batch, obs):
        t, actions = batch.t, target.act_batch(obs)
        actions[guided, _most_critical(explainer, batch, obs, seeds, 1)] = mask[:, t]
        actions[randomized, draws[:, 2 * t + 1]] = draws[:, 2 * t]
        return actions

    r_o, r_e, r_r = reward_sums(run_lockstep(start, act)[0]).reshape(3, episodes)
    return RrdReport.from_rewards(explainer.kind, env.name, r_o, r_e, r_r)


# ---- attacks ----

@dataclass
class AttackReport:
    explainer_id: str
    env_name: str
    episodes: int
    noise_eps: float
    r_original: float
    r_attacked: float
    delta: float
    stderr: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_rewards(cls, explainer_id: str, env_name: str, noise_eps: float,
                     r_o: np.ndarray, r_a: np.ndarray) -> "AttackReport":
        """The report of matched per-episode rewards: original, attacked."""
        delta, se = _paired_stats(r_a - r_o)
        return cls(explainer_id, env_name, len(r_o), float(noise_eps),
                   float(r_o.mean()), float(r_a.mean()), delta, se)


def launch_attack(explainer: Explainer, target, env, noise_eps: float = 0.5,
                  episodes: int = 500, seed: int = 0, attack_all: bool = False) -> AttackReport:
    """Uniform noise on the observations of the most critical agent (or of
    every agent, in agent order) over matched-seed episodes, in row blocks
    original and attacked; the target acts on what it sees."""
    if not (noise_eps >= 0 and math.isfinite(2 * noise_eps)):
        raise ValueError(f"noise_eps must be >= 0 and 2 * noise_eps finite, got {noise_eps}")
    seeds, start = _matched_start(target, env, episodes, seed, "attack", 2)
    spec, eps = env.spec, float(noise_eps)
    n, obs_dim = spec.n_agents, spec.obs_dim
    k = n if attack_all else 1  # victims per step, each drawing obs_dim values
    noise = uniform_rows(seed, ("attack-noise",), _episode_tags(episodes), episodes, -eps, eps,
                         spec.horizon * k * obs_dim).reshape(episodes, spec.horizon, k, obs_dim)
    attacked = np.arange(episodes, 2 * episodes)[:, None]
    every_agent = np.tile(np.arange(n), (episodes, 1))

    def act(batch, obs):
        victims = (every_agent if attack_all else
                   _most_critical(explainer, batch, obs, seeds, 1)[:, None])
        seen = obs.copy()
        seen[attacked, victims] = np.clip(obs[attacked, victims] + noise[:, batch.t], -1.0, 1.0)
        return target.act_batch(seen)

    r_o, r_a = reward_sums(run_lockstep(start, act)[0]).reshape(2, episodes)
    return AttackReport.from_rewards(explainer.kind, env.name, noise_eps, r_o, r_a)


# ---- patching ----

@dataclass
class PatchPackage:
    """Deduplicated (observation, action) pairs of critical agents from
    high-reward episodes."""

    env_name: str
    explainer_id: str
    quantile: float
    obs: np.ndarray       # (entries, obs_dim)
    actions: np.ndarray   # (entries,)

    def __len__(self) -> int:
        return len(self.actions)

    def to_doc(self) -> dict:
        return {"format": "patch-package", "v": 1, "env_name": self.env_name,
                "explainer_id": self.explainer_id, "quantile": self.quantile,
                "entries": [{"obs": [float(v) for v in o], "action": int(a)}
                            for o, a in zip(self.obs, self.actions)]}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_doc(), fh, sort_keys=True)


def _first_sightings(entries: np.ndarray) -> np.ndarray:
    """The index of each distinct row of `entries` (-0.0 equals 0.0) where
    it first occurs, in entry order. Each row is one opaque key of its bytes,
    once + 0.0 has turned -0.0 into 0.0 (entries hold no NaN). np.unique's
    axis=0 form compares the rows field by field: 1.4 ms against 0.1 ms on
    a 900-row harvest (timeit, 2-vCPU VM)."""
    rows = np.add(entries, 0.0, order="C")
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


def build_patch_package(explainer: Explainer, target, env, harvest_episodes: int = 100,
                        quantile: float = 0.1, seed: int = 0) -> PatchPackage:
    """Run the target unperturbed and harvest critical-agent behavior from
    the top `quantile` of episodes by reward."""
    if harvest_episodes < 10:
        raise ValueError("harvest_episodes must be >= 10")
    if not (0.0 < quantile <= 1.0):
        raise ValueError("quantile must lie in (0, 1]")
    _check_compat(target, env)
    seeds = episode_seeds(seed, "harvest", harvest_episodes)
    start = env.reset_batch(seeds)
    step_rewards, actions = run_lockstep(start, lambda batch, obs: target.act_batch(obs))
    rewards = reward_sums(step_rewards)
    if np.all(rewards == rewards[0]):
        warnings.warn("all harvest episode rewards are equal; keeping every episode")
        kept = list(range(harvest_episodes))
    else:
        order = sorted(range(harvest_episodes), key=lambda i: (-rewards[i], i))
        kept = order[:max(1, int(round(quantile * harvest_episodes)))]
    # replay the kept episodes' actions, keeping each step's critical entries
    kept_seeds, played = [seeds[i] for i in kept], actions[kept]
    rows, entries, chosen = np.arange(len(kept)), [], []

    def replay(batch, obs):
        critical = _most_critical(explainer, batch, obs, kept_seeds)
        entries.append(obs[rows, critical])
        chosen.append(played[rows, batch.t, critical])
        return played[:, batch.t]

    run_lockstep(start.repeat(1, kept), replay)
    # the entries episode by episode, then step by step, deduplicated
    entries = np.stack(entries, axis=1).reshape(-1, env.spec.obs_dim)
    chosen = np.stack(chosen, axis=1).reshape(-1)
    first = _first_sightings(entries)
    return PatchPackage(env.name, explainer.kind, float(quantile), entries[first], chosen[first])


@dataclass
class PatchReport:
    explainer_id: str
    env_name: str
    episodes: int
    d_th: float
    package_entries: int
    r_original: float
    r_patched: float
    delta: float
    stderr: float
    mean_overrides: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_rewards(cls, explainer_id: str, env_name: str, d_th: float, package_entries: int,
                     r_o: np.ndarray, r_p: np.ndarray, overrides: np.ndarray) -> "PatchReport":
        """The report of matched per-episode rewards, original and patched,
        and of the per-episode override counts."""
        delta, se = _paired_stats(r_p - r_o)
        return cls(explainer_id, env_name, len(r_o), float(d_th), package_entries,
                   float(r_o.mean()), float(r_p.mean()), delta, se, float(overrides.mean()))


def apply_patch(package: PatchPackage, explainer: Explainer, target, env,
                d_th: float | None = None, episodes: int = 500, seed: int = 0) -> PatchReport:
    """Override the critical agent's action with the action of its nearest
    package observation whenever that lies within Manhattan distance d_th
    (and the actions disagree); reports the matched-seed reward delta of the
    row blocks original and patched."""
    if len(package) == 0:
        raise ValueError("patch package is empty")
    if d_th is None:
        d_th = 0.05 * env.spec.obs_dim
    if not d_th >= 0:  # NaN too
        raise ValueError(f"d_th must be >= 0, got {d_th}")
    seeds, start = _matched_start(target, env, episodes, seed, "patch", 2)
    rows = np.arange(episodes)
    overrides = np.zeros(episodes, dtype=np.int64)
    columns = _package_columns(package.obs, episodes)

    def act(batch, obs):
        actions = target.act_batch(obs)
        critical = _most_critical(explainer, batch, obs, seeds, 1)
        patched = actions[episodes:]  # a view of the patched block
        best, dist = _nearest_entries(columns, obs[episodes + rows, critical])
        proposed = package.actions[best]
        hit = (dist < d_th) & (proposed != patched[rows, critical])
        patched[rows[hit], critical[hit]] = proposed[hit]
        overrides[hit] += 1
        return actions

    r_o, r_p = reward_sums(run_lockstep(start, act)[0]).reshape(2, episodes)
    return PatchReport.from_rewards(explainer.kind, env.name, d_th, len(package),
                                    r_o, r_p, overrides)
