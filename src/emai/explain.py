"""Importance explainers: the learned masking scores, three baselines, and
a brute-force Monte-Carlo counterfactual oracle.

The oracle measures directly how the remaining episode reward moves when a
single agent's actions are randomized from the queried step onward. A query
runs all its suffix rollouts as one lockstep batch, and scores_batch those of
many episodes, yet it remains far too slow to be the product; at desk scale
it doubles as both a baseline and the independent ground truth for tests.

Access discipline: emai / random / mc_oracle touch the target only through
its query kernel act_batch(), one call per lockstep step, and its one-row
view act(), one call per scalar step; value- and gradient-based baselines
need the privileged accessor and therefore a learned target.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .ctde import agent_inputs
from .envs import make_env
from .masking import MaskingPolicy
from .rng import integers_rows, uniform_rows
from .rollout import Step, Trace, greedy_actions, replay_prefix
from .target import TargetPolicy, privileged_q_network


@dataclass
class ExplainContext:
    """Everything an explainer may consult about the queried time-step."""

    observations: np.ndarray
    state: np.ndarray
    t: int
    env_name: str = ""
    env_params: dict = field(default_factory=dict)
    episode_seed: int = 0
    prefix_actions: list = field(default_factory=list)  # executed joint actions before t


def trace_contexts(trace: Trace, env) -> Iterator[tuple[Step, ExplainContext]]:
    """(step, context) for every step of a finished trace of `env`; each
    context's prefix lists the joint actions executed before its step."""
    prefix: list[list[int]] = []
    for step in trace.steps:
        yield step, ExplainContext(step.observations, step.state, step.t, env.name,
                                   env.params, trace.seed, list(prefix))
        prefix.append(list(step.final_actions))


class Explainer:
    kind: str = ""
    # whether scores_batch reads its states argument; callers skip building
    # the states for an explainer that does not
    reads_states: bool = True

    def scores_batch(self, env, observations: np.ndarray, states: np.ndarray, t: int,
                     episode_seeds, prefix: np.ndarray) -> np.ndarray:
        """Importance scores of B episodes of `env` at step t, (B, n_agents).

        Row b scores the context of episode_seeds[b] with observations[b]
        (n_agents, obs_dim), states[b] and the executed joint actions
        prefix[b] (t, n_agents); states is None when reads_states is False.
        This is the one method an explainer implements.
        """
        raise NotImplementedError

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        """scores_batch's one-row view, with no env and no prefix."""
        states = None if ctx.state is None else np.asarray(ctx.state)[None]
        return self.scores_batch(None, np.asarray(ctx.observations)[None], states, ctx.t,
                                 [ctx.episode_seed], None)[0]

    def most_critical(self, ctx: ExplainContext) -> int:
        return int(np.argmax(self.scores(ctx)))  # lowest index wins ties


class EmaiExplainer(Explainer):
    """Keep-minus-mask value gap from a trained masking policy."""

    kind = "emai"
    reads_states = False

    def __init__(self, policy: MaskingPolicy):
        self.policy = policy

    def scores_batch(self, env, observations, states, t, episode_seeds, prefix) -> np.ndarray:
        """One stacked forward over the B observation sets."""
        return self.policy.importance_vector(observations)


class RandomExplainer(Explainer):
    """Uniform random scores; the normalization reference for RRD.

    Each query draws from stream(seed, "random-explainer", episode_seed, t),
    so a score depends only on the queried context, never on how many
    queries came before it or in which batch they ran.
    """

    kind = "random"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def scores_batch(self, env, observations, states, t, episode_seeds, prefix) -> np.ndarray:
        """Every row's stream drawn at once: random(n) is uniform(0.0, 1.0, n)."""
        return uniform_rows(self.seed, ("random-explainer",),
                            [(int(s), t) for s in episode_seeds], 0.0, 1.0, observations.shape[1])


class ValueBasedExplainer(Explainer):
    """Per-agent best utility-head value, read from the target's network."""

    kind = "value"
    reads_states = False

    def __init__(self, target: TargetPolicy):
        self._qnet = privileged_q_network(target)

    def scores_batch(self, env, observations, states, t, episode_seeds, prefix) -> np.ndarray:
        """One stacked forward over the B observation sets."""
        return self._qnet.q_all_agents(observations).max(axis=2)


class GradientBasedExplainer(Explainer):
    """Saliency of the chosen action's log-probability w.r.t. the observation.

    p is the softmax of the target's Q values at temperature 1 and the chosen
    action their argmax (lowest index on ties); the score is the L1 norm of
    d log p(chosen) / d obs per agent, formed in closed form in the float
    order of backpropagating log p through the graph, with no weight gradient.
    """

    kind = "gradient"
    reads_states = False

    def __init__(self, target: TargetPolicy):
        self._qnet = privileged_q_network(target)

    def scores_batch(self, env, observations, states, t, episode_seeds, prefix) -> np.ndarray:
        """One stacked forward over (B * n, 1, in) one-row blocks, each of
        which rounds as the one-row forward of its agent would."""
        net = self._qnet
        size, n = observations.shape[:2]
        x = agent_inputs(size, n, net.obs_dim)
        x[..., :net.obs_dim] = observations
        q, cache = net.mlp.fused_forward(x.reshape(size * n, 1, -1))
        e = np.exp(q - q.max(axis=-1, keepdims=True))
        # the one-hot of each row's argmax (lowest index on ties), added as 0.0/1.0
        pick = np.equal(np.arange(net.n_actions), q.argmax(axis=-1)[..., None])
        d_q = (-1.0 / e.sum(axis=-1, keepdims=True)) * e + pick
        grad = net.mlp.fused_input_grad(cache, d_q)
        return np.abs(grad[:, 0, :net.obs_dim]).sum(axis=1).reshape(size, n)


def _suffix_return(env, target) -> float:
    total = 0.0
    done = env.done
    obs = env.observations()
    while not done:
        result = env.step(greedy_actions(target, obs))
        total += result.reward
        obs, done = result.observations, result.done
    return total


def _randomized_suffix_return(batch, target, seeds, rollouts: int, seed: int) -> np.ndarray:
    """Suffix returns (B, width) of a lockstep batch of the B episodes of
    `seeds` at step t = batch.t, episode b's width = size / B rows in a run.
    In its last n * rollouts rows, row i * rollouts + k is rollout k of
    agent i: agent i plays the draws of stream(seed, "mc-oracle", seeds[b],
    t, i, k), one per suffix step. Every other agent, and every agent of the
    other rows, acts greedily, from one joint act_batch query per step."""
    spec = batch.env.spec
    n, t, width = spec.n_agents, batch.t, batch.size // len(seeds)
    # a size-m draw yields the same values as m single draws from the stream
    draws = integers_rows(seed, ("mc-oracle",), [(s, t, i, k) for s in seeds
                                                 for i in range(n) for k in range(rollouts)],
                          spec.n_actions, spec.horizon - t)
    episode, entry = np.divmod(np.arange(len(draws)), n * rollouts)
    played = (episode * width + width - n * rollouts + entry) * n + entry // rollouts
    totals = np.zeros(batch.size)
    obs = batch.observations()
    for s in range(spec.horizon - t):
        actions = target.act_batch(obs)
        actions.put(played, draws[:, s])  # flat (row, agent) entries
        result = batch.step(actions)
        totals += result.reward
        obs = result.observations
    return totals.reshape(len(seeds), width)


def mc_counterfactual_oracle(target, env, episode_seed: int, prefix_actions,
                             rollouts: int, seed: int = 0
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent |change in remaining episode reward| when that agent alone
    acts randomly from here on, drawing as _randomized_suffix_return does;
    returns (scores, standard errors)."""
    if rollouts < 1:
        raise ValueError("rollouts must be >= 1")
    replay_prefix(env, episode_seed, prefix_actions)
    n = env.spec.n_agents
    unmasked = _suffix_return(copy.deepcopy(env), target)
    returns = _randomized_suffix_return(env.branch(n * rollouts), target, [episode_seed],
                                        rollouts, seed).reshape(n, rollouts)
    scores = np.abs(returns.mean(axis=1) - unmasked)
    stderr = returns.std(axis=1, ddof=1) / np.sqrt(rollouts) if rollouts > 1 else np.zeros(n)
    return scores, stderr


# bound on the rows of one batched oracle block, made of whole episodes
ORACLE_ROW_BLOCK = 1 << 12


class McOracleExplainer(Explainer):
    """Monte-Carlo counterfactual randomization oracle (black-box, slow)."""

    kind = "mc_oracle"
    reads_states = False

    def __init__(self, target: TargetPolicy, rollouts: int = 64, seed: int = 0):
        if rollouts < 1:
            raise ValueError("rollouts must be >= 1")
        self.target = target
        self.rollouts = int(rollouts)
        self.seed = int(seed)

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        return self.scores_with_stderr(ctx)[0]

    def scores_with_stderr(self, ctx: ExplainContext) -> tuple[np.ndarray, np.ndarray]:
        if not ctx.env_name:
            raise ValueError("the oracle needs a replayable context (env_name/seed/prefix)")
        if len(ctx.prefix_actions) != ctx.t:
            raise ValueError(f"the oracle replays the prefix to reach step t: got "
                             f"{len(ctx.prefix_actions)} prefix actions for t={ctx.t}")
        env = make_env(ctx.env_name, **ctx.env_params)
        return mc_counterfactual_oracle(self.target, env, ctx.episode_seed,
                                        ctx.prefix_actions, self.rollouts, self.seed)

    def scores_batch(self, env, observations, states, t, episode_seeds, prefix) -> np.ndarray:
        """Blocks of whole episodes, at most ORACLE_ROW_BLOCK rows each: the
        block's prefixes replay from env.reset_batch, and each episode then
        runs its unmasked suffix and its n * rollouts randomized ones as
        1 + n * rollouts rows of one lockstep batch."""
        if prefix.shape[1] != t:
            raise ValueError(f"the oracle replays the prefix to reach step t: got "
                             f"{prefix.shape[1]} prefix actions for t={t}")
        n, rollouts = env.spec.n_agents, self.rollouts
        width = 1 + n * rollouts  # an episode's unmasked row, then its rollouts
        per_block = max(1, ORACLE_ROW_BLOCK // width)
        out = np.empty((len(episode_seeds), n))
        for lo in range(0, len(episode_seeds), per_block):
            seeds = [int(s) for s in episode_seeds[lo:lo + per_block]]
            batch = env.reset_batch(seeds)
            for s in range(t):
                batch.step(prefix[lo:lo + len(seeds), s])
            totals = _randomized_suffix_return(batch.repeat(width), self.target, seeds,
                                               rollouts, self.seed)
            returns = totals[:, 1:].reshape(-1, n, rollouts)
            out[lo:lo + len(seeds)] = np.abs(returns.mean(axis=2) - totals[:, :1])
        return out


def make_explainer(kind: str, target: TargetPolicy | None = None,
                   masking_policy: MaskingPolicy | None = None, seed: int = 0,
                   rollouts: int = 64) -> Explainer:
    """Factory used by the CLI; raises CapabilityError for bad pairings."""
    if kind == "emai":
        if masking_policy is None:
            raise ValueError("emai explainer needs a trained masking checkpoint")
        return EmaiExplainer(masking_policy)
    if kind == "random":
        return RandomExplainer(seed)
    if kind == "value":
        return ValueBasedExplainer(target)
    if kind == "gradient":
        return GradientBasedExplainer(target)
    if kind == "mc_oracle":
        return McOracleExplainer(target, rollouts=rollouts, seed=seed)
    raise ValueError(f"unknown explainer kind {kind!r}")
