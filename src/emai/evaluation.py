"""Quantitative evaluation harness.

Fidelity (RRD): randomize the explainer's most critical agent every step and
compare the reward damage against random agent selection on matched episode
seeds. Attacks: uniform observation noise on the most critical agent only.
Patching: harvest (observation, action) pairs of critical agents from
high-reward episodes and override the critical agent's action whenever a
sufficiently similar observation (Manhattan distance below d_th) is on file.

All episode rewards here are undiscounted sums; every batch derives its
episode seeds from the root seed so reports replay bitwise.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .explain import ExplainContext, Explainer, trace_contexts
from .masking import _check_compat
from .rng import episode_seed, stream
from .rollout import (greedy_actions, reward_sums, run_batch, run_episode,
                      run_target_episode, target_rewards)

RRD_DENOMINATOR_GUARD = 1e-6


def _ctx(env, obs, state, ep_seed, prefix) -> ExplainContext:
    return ExplainContext(obs, state, len(prefix), env.name, env.params, ep_seed, list(prefix))


def _paired_stats(deltas: np.ndarray) -> tuple[float, float]:
    mean = float(deltas.mean())
    se = float(deltas.std(ddof=1) / np.sqrt(len(deltas))) if len(deltas) > 1 else 0.0
    return mean, se


# ---- episode workers (module-level for picklability) ----

def _w_guided(payload) -> float:
    """Each step, randomize only the explainer's most critical agent."""
    env, target, explainer, ep_seed, tags = payload
    mask_rng = stream(*tags)
    n_actions = env.spec.n_actions

    def act(obs, state, prefix):
        actions = greedy_actions(target, obs)
        critical = explainer.most_critical(_ctx(env, obs, state, ep_seed, prefix))
        actions[critical] = int(mask_rng.integers(0, n_actions))
        return actions

    return run_episode(env, ep_seed, act).episode_reward


def _w_random_guided(payload) -> float:
    env, target, ep_seed, tags = payload
    rng = stream(*tags)
    n, n_actions = env.spec.n_agents, env.spec.n_actions

    def act(obs, state, prefix):
        actions = greedy_actions(target, obs)
        actions[int(rng.integers(0, n))] = int(rng.integers(0, n_actions))
        return actions

    return run_episode(env, ep_seed, act).episode_reward


def _w_attacked(payload) -> float:
    env, target, explainer, ep_seed, noise_eps, tags, attack_all = payload
    rng = stream(*tags)
    obs_dim = env.spec.obs_dim
    n = env.spec.n_agents

    def act(obs, state, prefix):
        victims = (range(n) if attack_all else
                   [explainer.most_critical(_ctx(env, obs, state, ep_seed, prefix))])
        actions = []
        for i in range(n):
            if i in victims:
                noise = rng.uniform(-noise_eps, noise_eps, obs_dim)
                seen = np.clip(obs[i] + noise, -1.0, 1.0)
            else:
                seen = obs[i]
            actions.append(target.act(seen, i))
        return actions

    return run_episode(env, ep_seed, act).episode_reward


def _w_patched(payload) -> tuple[float, int]:
    env, target, explainer, pkg_obs, pkg_actions, ep_seed, d_th = payload
    overrides = 0

    def act(obs, state, prefix):
        nonlocal overrides
        actions = greedy_actions(target, obs)
        critical = explainer.most_critical(_ctx(env, obs, state, ep_seed, prefix))
        dists = np.abs(pkg_obs - obs[critical]).sum(axis=1)
        best = int(np.argmin(dists))  # ties resolve to the lowest entry index
        if dists[best] < d_th and int(pkg_actions[best]) != actions[critical]:
            actions[critical] = int(pkg_actions[best])
            overrides += 1
        return actions

    reward = run_episode(env, ep_seed, act).episode_reward
    return reward, overrides


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


def eval_fidelity(explainer: Explainer, target, env, episodes: int = 500,
                  seed: int = 0, workers: int = 1) -> RrdReport:
    """RRD = |R_e - R_o| / |R_r - R_o| over matched-seed episode batches."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    _check_compat(target, env)
    seeds = [episode_seed(seed, "fidelity", i) for i in range(episodes)]
    r_o = reward_sums(target_rewards(env, seeds, target))
    r_e = np.array(run_batch(
        _w_guided,
        [(env, target, explainer, s, (seed, "fid-mask-e", i)) for i, s in enumerate(seeds)],
        workers))
    r_r = np.array(run_batch(
        _w_random_guided,
        [(env, target, s, (seed, "fid-mask-r", i)) for i, s in enumerate(seeds)],
        workers))
    delta_e, se_de = _paired_stats(r_e - r_o)
    delta_r, se_dr = _paired_stats(r_r - r_o)
    if abs(delta_r) < RRD_DENOMINATOR_GUARD:
        rrd, rrd_se = None, None  # undefined; numerator/denominator still reported
    else:
        rrd = abs(delta_e) / abs(delta_r)
        rrd_se = float(np.sqrt(se_de ** 2 + (rrd ** 2) * se_dr ** 2) / abs(delta_r))
    def se(x):
        return float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
    return RrdReport(explainer.kind, env.name, episodes,
                     float(r_o.mean()), float(r_e.mean()), float(r_r.mean()),
                     se(r_o), se(r_e), se(r_r),
                     delta_e, delta_r, se_de, se_dr, rrd, rrd_se)


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


def launch_attack(explainer: Explainer, target, env, noise_eps: float = 0.5,
                  episodes: int = 500, seed: int = 0, workers: int = 1,
                  attack_all: bool = False) -> AttackReport:
    """Uniform observation noise on the most critical agent, matched seeds."""
    if noise_eps < 0:
        raise ValueError("noise_eps must be >= 0")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    _check_compat(target, env)
    seeds = [episode_seed(seed, "attack", i) for i in range(episodes)]
    r_o = reward_sums(target_rewards(env, seeds, target))
    r_a = np.array(run_batch(
        _w_attacked,
        [(env, target, explainer, s, float(noise_eps), (seed, "attack-noise", i), attack_all)
         for i, s in enumerate(seeds)],
        workers))
    delta, se = _paired_stats(r_a - r_o)
    return AttackReport(explainer.kind, env.name, episodes, float(noise_eps),
                        float(r_o.mean()), float(r_a.mean()), delta, se)


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

    @classmethod
    def from_doc(cls, doc: dict) -> "PatchPackage":
        if doc.get("format") != "patch-package" or doc.get("v") != 1:
            raise ValueError("not a v1 patch package")
        obs = np.array([e["obs"] for e in doc["entries"]], dtype=np.float64)
        actions = np.array([e["action"] for e in doc["entries"]], dtype=np.int64)
        return cls(doc["env_name"], doc["explainer_id"], float(doc["quantile"]), obs, actions)

    @classmethod
    def load(cls, path) -> "PatchPackage":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_doc(json.load(fh))


def build_patch_package(explainer: Explainer, target, env, harvest_episodes: int = 100,
                        quantile: float = 0.1, seed: int = 0) -> PatchPackage:
    """Run the target unperturbed and harvest critical-agent behavior from
    the top `quantile` of episodes by reward."""
    if harvest_episodes < 10:
        raise ValueError("harvest_episodes must be >= 10")
    if not (0.0 < quantile <= 1.0):
        raise ValueError("quantile must lie in (0, 1]")
    _check_compat(target, env)
    traces = [run_target_episode(env, episode_seed(seed, "harvest", i), target)
              for i in range(harvest_episodes)]
    rewards = np.array([tr.episode_reward for tr in traces])
    if np.all(rewards == rewards[0]):
        warnings.warn("all harvest episode rewards are equal; keeping every episode")
        kept = list(range(harvest_episodes))
    else:
        order = sorted(range(harvest_episodes), key=lambda i: (-rewards[i], i))
        kept = order[:max(1, int(round(quantile * harvest_episodes)))]
    seen: dict[tuple, int] = {}
    entries_obs: list[np.ndarray] = []
    entries_act: list[int] = []
    for i in kept:
        for step, ctx in trace_contexts(traces[i], env):
            critical = explainer.most_critical(ctx)
            key = tuple(step.observations[critical])
            if key not in seen:
                seen[key] = len(entries_obs)
                entries_obs.append(np.asarray(step.observations[critical]))
                entries_act.append(int(step.final_actions[critical]))
    return PatchPackage(env.name, explainer.kind, float(quantile),
                        np.stack(entries_obs) if entries_obs else np.zeros((0, env.spec.obs_dim)),
                        np.array(entries_act, dtype=np.int64))


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


def apply_patch(package: PatchPackage, explainer: Explainer, target, env,
                d_th: float | None = None, episodes: int = 500, seed: int = 0,
                workers: int = 1) -> PatchReport:
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
    seeds = [episode_seed(seed, "patch", i) for i in range(episodes)]
    r_o = reward_sums(target_rewards(env, seeds, target))
    rows = run_batch(
        _w_patched,
        [(env, target, explainer, package.obs, package.actions, s, float(d_th))
         for s in seeds],
        workers)
    r_p = np.array([r[0] for r in rows])
    overrides = np.array([r[1] for r in rows])
    delta, se = _paired_stats(r_p - r_o)
    return PatchReport(explainer.kind, env.name, episodes, float(d_th), len(package),
                       float(r_o.mean()), float(r_p.mean()), delta, se,
                       float(overrides.mean()))
