"""Quantitative evaluation harness.

Fidelity (RRD): randomize the explainer's most critical agent every step and
compare the reward damage against random agent selection on matched episode
seeds. Attacks: uniform observation noise on the most critical agent only.
Patching: harvest (observation, action) pairs of critical agents from
high-reward episodes and override the critical agent's action whenever a
sufficiently similar observation (Manhattan distance below d_th) is on file.

Each arm, and the harvest's replay of its kept episodes, is one lockstep
batch whose live rows the explainer scores at every step.
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
from .rng import episode_seeds, integers_rows, uniform_rows
from .rollout import reward_sums, run_lockstep, target_rewards

RRD_DENOMINATOR_GUARD = 1e-6
# bound on the (rows, entries, obs_dim) distance block of one patch query
PATCH_DISTANCE_BLOCK = 1 << 16


def _paired_stats(deltas: np.ndarray) -> tuple[float, float]:
    mean = float(deltas.mean())
    se = float(deltas.std(ddof=1) / np.sqrt(len(deltas))) if len(deltas) > 1 else 0.0
    return mean, se


def _most_critical(explainer: Explainer, batch, obs: np.ndarray, seeds) -> np.ndarray:
    """Each row's most critical agent at the live batch's step (lowest index
    wins ties): the argmax of the explainer's scores, as most_critical takes it."""
    return np.argmax(explainer.scores_batch(obs, batch.t, seeds, batch), axis=1)


# ---- lockstep episode arms ----
# Each plays every episode of a shared start batch (env.reset_batch(seeds)) in
# lockstep. An arm that randomizes draws all its episodes' randomness up front
# as one table, row i bitwise the draws of stream(root, tag, i) in the order one
# scalar episode makes them, and step t reads its column(s) t.

def _episode_tags(count: int) -> list[tuple[int]]:
    return [(i,) for i in range(count)]


def _guided(start, target, explainer, root: int, seeds: list) -> np.ndarray:
    """Each step, randomize only the explainer's most critical agent."""
    spec = start.env.spec
    mask = integers_rows(root, ("fid-mask-e",), _episode_tags(len(seeds)), spec.n_actions,
                         spec.horizon)
    rows = np.arange(len(seeds))

    def act(batch, obs):
        actions = target.act_batch(obs)
        critical = _most_critical(explainer, batch, obs, seeds)
        actions[rows, critical] = mask[:, batch.t]
        return actions

    return reward_sums(run_lockstep(start, act)[0])


def _random_guided(start, target, root: int, seeds: list) -> np.ndarray:
    """Each step, randomize one uniformly drawn agent."""
    spec = start.env.spec
    # per step, the action draw precedes the agent draw
    draws = integers_rows(root, ("fid-mask-r",), _episode_tags(len(seeds)),
                          [spec.n_actions, spec.n_agents] * spec.horizon, 2 * spec.horizon)
    rows = np.arange(len(seeds))

    def act(batch, obs):
        actions = target.act_batch(obs)
        actions[rows, draws[:, 2 * batch.t + 1]] = draws[:, 2 * batch.t]
        return actions

    return reward_sums(run_lockstep(start, act)[0])


def _attacked(start, target, explainer, noise_eps: float, attack_all: bool, root: int,
              seeds: list) -> np.ndarray:
    """Uniform noise on the observations of the most critical agent (or of
    every agent), in agent order; the target acts on what it sees."""
    spec = start.env.spec
    n, obs_dim = spec.n_agents, spec.obs_dim
    k = n if attack_all else 1  # victims per step, each drawing obs_dim values
    noise = uniform_rows(root, ("attack-noise",), _episode_tags(len(seeds)), -noise_eps,
                         noise_eps, spec.horizon * k * obs_dim)
    noise = noise.reshape(len(seeds), spec.horizon, k, obs_dim)
    rows = np.arange(len(seeds))[:, None]

    def act(batch, obs):
        victims = (np.tile(np.arange(n), (len(seeds), 1)) if attack_all else
                   _most_critical(explainer, batch, obs, seeds)[:, None])
        seen = obs.copy()
        seen[rows, victims] = np.clip(obs[rows, victims] + noise[:, batch.t], -1.0, 1.0)
        return target.act_batch(seen)

    return reward_sums(run_lockstep(start, act)[0])


def _nearest_entries(pkg_obs: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per query row: the index of the package entry nearest in Manhattan
    distance (ties to the lowest index) and that distance. Rows are taken a
    block at a time, each row's distances summed as in a one-row query."""
    block = max(1, PATCH_DISTANCE_BLOCK // max(1, pkg_obs.size))
    best = np.empty(len(queries), dtype=np.int64)
    dist = np.empty(len(queries))
    for lo in range(0, len(queries), block):
        dists = np.abs(pkg_obs - queries[lo:lo + block, None]).sum(axis=2)
        best[lo:lo + block] = np.argmin(dists, axis=1)
        dist[lo:lo + block] = dists[np.arange(len(dists)), best[lo:lo + block]]
    return best, dist


def _patched(start, target, explainer, pkg_obs: np.ndarray, pkg_actions: np.ndarray,
             d_th: float, seeds: list) -> tuple[np.ndarray, np.ndarray]:
    """Override the critical agent's action with its nearest package action."""
    rows = np.arange(len(seeds))
    overrides = np.zeros(len(seeds), dtype=np.int64)

    def act(batch, obs):
        actions = target.act_batch(obs)
        critical = _most_critical(explainer, batch, obs, seeds)
        best, dist = _nearest_entries(pkg_obs, obs[rows, critical])
        proposed = pkg_actions[best]
        hit = (dist < d_th) & (proposed != actions[rows, critical])
        actions[rows[hit], critical[hit]] = proposed[hit]
        overrides[hit] += 1
        return actions

    rewards = reward_sums(run_lockstep(start, act)[0])
    return rewards, overrides


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
        def se(x):
            return float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
        return cls(explainer_id, env_name, len(r_o),
                   float(r_o.mean()), float(r_e.mean()), float(r_r.mean()),
                   se(r_o), se(r_e), se(r_r),
                   delta_e, delta_r, se_de, se_dr, rrd, rrd_se)


def eval_fidelity(explainer: Explainer, target, env, episodes: int = 500,
                  seed: int = 0) -> RrdReport:
    """RRD = |R_e - R_o| / |R_r - R_o| over matched-seed episode batches."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    _check_compat(target, env)
    seeds = episode_seeds(seed, "fidelity", episodes)
    start = env.reset_batch(seeds)
    r_o = reward_sums(target_rewards(start, target))
    r_e = _guided(start, target, explainer, seed, seeds)
    r_r = _random_guided(start, target, seed, seeds)
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
    """Uniform observation noise on the most critical agent, matched seeds."""
    if not (noise_eps >= 0 and math.isfinite(2 * noise_eps)):
        raise ValueError(f"noise_eps must be >= 0 and 2 * noise_eps finite, got {noise_eps}")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    _check_compat(target, env)
    seeds = episode_seeds(seed, "attack", episodes)
    start = env.reset_batch(seeds)
    r_o = reward_sums(target_rewards(start, target))
    r_a = _attacked(start, target, explainer, float(noise_eps), attack_all, seed, seeds)
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
    # the entries episode by episode, then step by step, deduplicated on the
    # exact observation in first-seen order: a stable sort puts each run of
    # equal rows in entry order, so a run's first index is its first sighting
    # (observations hold no NaN, so != is the negation of tuple equality)
    entries = np.stack(entries, axis=1).reshape(-1, env.spec.obs_dim)
    chosen = np.stack(chosen, axis=1).reshape(-1)
    order = np.lexsort(entries.T[::-1])
    ranked = entries[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.sort(order[starts])
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
    """Override the critical agent's action with the package action whenever
    a package observation lies within Manhattan distance d_th (and the
    actions disagree); reports the matched-seed reward delta."""
    if len(package) == 0:
        raise ValueError("patch package is empty")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    _check_compat(target, env)
    if d_th is None:
        d_th = 0.05 * env.spec.obs_dim
    if d_th < 0:
        raise ValueError(f"d_th must be >= 0, got {d_th}")
    seeds = episode_seeds(seed, "patch", episodes)
    start = env.reset_batch(seeds)
    r_o = reward_sums(target_rewards(start, target))
    r_p, overrides = _patched(start, target, explainer, package.obs, package.actions,
                              float(d_th), seeds)
    return PatchReport.from_rewards(explainer.kind, env.name, d_th, len(package),
                                    r_o, r_p, overrides)
