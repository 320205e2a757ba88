"""Masking agents: learned per-agent, per-step keep-or-randomize decisions.

Each target agent gets a masking agent choosing between KEEP (0) and MASK
(1, replace the target's action with a uniform random one). The masking
team trains with the shared CTDE machinery on the masked process's reward
plus a sparsity bonus for masked agents, with an extra difference loss that
ties the discounted team value to the target policy's frozen Monte-Carlo
return. An agent whose masking would cost a lot of value is important; the
keep-minus-mask value gap is the canonical importance score.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ctde
from .config import merged_sections
from .ctde import AgentQNet, QLearner, Transitions
from .envs import Discrete, random_action
from .rng import episode_seed, stream
from .rollout import greedy_actions, reward_sums, target_rewards

KEEP, MASK = 0, 1


class IncompatibilityError(RuntimeError):
    """Target, environment and explainer artifacts do not fit together."""


def apply_mask(action: int, mask_bit: int, space: Discrete, rng: np.random.Generator) -> int:
    """Final action: keep the target's choice, or draw uniformly at random."""
    if mask_bit not in (KEEP, MASK):
        raise ValueError(f"mask bit must be 0 or 1, got {mask_bit!r}")
    return action if mask_bit == KEEP else random_action(space, rng)


@dataclass(frozen=True)
class BaselineEstimate:
    """Frozen Monte-Carlo estimate of the target policy's expected return."""

    j_pi: float
    stderr: float
    reward_scale: float  # mean |step reward|, used to scale the sparsity weight
    episodes: int
    gamma: float


def estimate_baseline_return(target, env, episodes: int, gamma: float,
                             seed: int = 0) -> BaselineEstimate:
    """Mean discounted return of the greedy target over seeded episodes,
    played as one lockstep batch."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    _check_compat(target, env)
    seeds = [episode_seed(seed, "baseline", i) for i in range(episodes)]
    rewards = target_rewards(env, seeds, target)
    returns = reward_sums(rewards, gamma)
    abs_total = sum(reward_sums(np.abs(rewards)).tolist())  # across episodes, in seed order
    stderr = float(returns.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return BaselineEstimate(float(returns.mean()), stderr,
                            abs_total / rewards.size, episodes, gamma)


def diff_loss(q_tot: np.ndarray, flat: Transitions, j_pi: float, gamma: float, beta: float,
              weight: float = 1.0) -> tuple[float, np.ndarray, dict]:
    """Squared gap between J(pi) and the discounted per-episode value sum.

    Per episode: D = J(pi) - sum_t gamma^t (Q_tot(o_t, a^m_t) - R^m_t);
    the loss is the batch mean of D^2. q_tot holds the live Q_tot of the
    transitions in `flat`. Returns the loss, the gradient of weight * loss
    with respect to q_tot (in the float ops of autodiff), and stats.
    """
    n_eps = flat.n_episodes
    weights = gamma ** flat.t_index.astype(np.float64)
    r_mask = float(beta) * flat.actions.sum(axis=1)
    member = np.zeros((len(flat.ep_index), n_eps))
    member[np.arange(len(flat.ep_index)), flat.ep_index] = 1.0
    per_episode = (((q_tot - r_mask) * weights).reshape(1, -1) @ member).reshape(n_eps)
    d = float(j_pi) - per_episode
    inv_n = 1.0 / n_eps
    loss = float((d * d).sum() * inv_n)
    half = (weight * inv_n) * d
    d_per_episode = (half + half) * -1.0
    d_qtot = (d_per_episode.reshape(1, n_eps) @ member.T).reshape(-1) * weights
    return loss, d_qtot, {"loss_d": loss}


class MaskingPolicy:
    """Trained masking team plus everything needed to score importance."""

    def __init__(self, qnet: AgentQNet, mixer, beta: float, lam: float, gamma: float,
                 j_pi: float, j_pi_stderr: float, target_checksum: str = ""):
        if qnet.n_actions != 2:
            raise ValueError("masking policy needs exactly the actions {keep, mask}")
        if mixer is None:
            raise ValueError("masking policy needs a mixer")
        if beta < 0 or lam < 0:
            raise ValueError("beta and lambda must be >= 0")
        self.qnet = qnet
        self.mixer = mixer
        self.beta = float(beta)
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.j_pi = float(j_pi)
        self.j_pi_stderr = float(j_pi_stderr)
        self.target_checksum = target_checksum

    @property
    def n_agents(self) -> int:
        return self.qnet.n_agents

    def mask_q(self, observations: np.ndarray) -> np.ndarray:
        """(n_agents, 2) matrix of keep/mask values, graph-free."""
        return self.qnet.q_all_agents(np.asarray(observations))

    def importance_vector(self, observations: np.ndarray) -> np.ndarray:
        q = self.mask_q(observations)
        return q[:, KEEP] - q[:, MASK]

    def most_critical(self, observations: np.ndarray) -> int:
        return int(np.argmax(self.importance_vector(observations)))  # lowest index wins ties

    def greedy_mask_bits(self, observations: np.ndarray) -> np.ndarray:
        """Per-agent argmax over {keep, mask}; keep wins ties."""
        q = self.mask_q(observations)
        return (q[:, MASK] > q[:, KEEP]).astype(np.int64)

    def to_doc(self, env=None, training_step: int = 0) -> dict:
        return {
            "format": "masking-checkpoint", "v": 1,
            "beta": self.beta, "lambda": self.lam, "gamma": self.gamma,
            "j_pi": self.j_pi, "j_pi_stderr": self.j_pi_stderr,
            "target_checksum": self.target_checksum,
            "ctde": ctde.checkpoint_doc(self.qnet, self.mixer, env, training_step),
        }

    def save(self, path, env=None, training_step: int = 0) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_doc(env, training_step), fh, sort_keys=True)

    @classmethod
    def from_doc(cls, doc) -> "MaskingPolicy":
        """Parse to_doc's output; any malformed document raises ValueError."""
        try:
            if doc["format"] != "masking-checkpoint" or doc["v"] != 1:
                raise ValueError("not a v1 masking checkpoint")
            qnet, mixer = ctde.load_checkpoint_doc(doc["ctde"])
            return cls(qnet, mixer, doc["beta"], doc["lambda"], doc["gamma"],
                       doc["j_pi"], doc["j_pi_stderr"], doc["target_checksum"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed masking checkpoint: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "MaskingPolicy":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_doc(json.load(fh))


def _check_compat(target, env) -> None:
    spec = env.spec
    if target.obs_dim != spec.obs_dim or target.n_agents != spec.n_agents:
        raise IncompatibilityError(
            f"target ({target.n_agents} agents, obs_dim {target.obs_dim}) does not match "
            f"env {env.name!r} ({spec.n_agents} agents, obs_dim {spec.obs_dim})")


def train_emai(target, env, config: dict | None = None, seed: int = 0,
               baseline: BaselineEstimate | None = None, progress=None):
    """Train the masking team against a fixed black-box target.

    config overrides DEFAULT_CONFIG's "training" section merged with its
    "emai" section; a key in neither raises ValueError. Per step: query the
    target's actions, pick mask actions epsilon-greedily from the masking
    net, compose the final joint action, and bank the whole episode; after
    each episode apply one optimizer step on L_total = L_e + lambda * L_d.
    Returns (MaskingPolicy, curve_rows).
    """
    cfg = merged_sections(config, "training", "emai")
    _check_compat(target, env)
    spec = env.spec
    gamma = float(cfg["gamma"])
    if baseline is None:
        baseline = estimate_baseline_return(target, env, int(cfg["baseline_episodes"]),
                                            gamma, seed=seed)
    beta = cfg["beta"]
    if beta is None:
        beta = float(cfg["beta_scale"]) * baseline.reward_scale
    beta = float(beta)
    lam = float(cfg["lambda"])
    if beta < 0 or lam < 0:
        raise ValueError("beta and lambda must be >= 0")

    learner = QLearner(spec, 2, seed, cfg)

    def reward_fn(rewards, actions):
        return rewards + beta * actions.sum(axis=1)

    def extra_loss(q_tot, flat):
        loss_d, d_qtot, stats = diff_loss(q_tot, flat, baseline.j_pi, gamma, beta, lam)
        return loss_d * lam, d_qtot, stats

    mask_rng = stream(seed, "emai-mask-actions")
    space = spec.action_space

    def compose(obs, bits):
        return [apply_mask(a, b, space, mask_rng)
                for a, b in zip(greedy_actions(target, obs), bits)]

    columns = {k: k for k in ("loss_e", "loss_d", "loss_total", "mask_rate", "episode_reward")}
    curves = learner.learn(env, "emai", columns, compose, reward_fn,
                           extra_loss if lam > 0 else None, progress)
    policy = MaskingPolicy(learner.net, learner.mixer, beta, lam, gamma,
                           baseline.j_pi, baseline.stderr, target.checksum())
    return policy, curves
