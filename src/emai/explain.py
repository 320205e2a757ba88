"""Importance explainers: the learned masking scores, three baselines, and
a brute-force Monte-Carlo counterfactual oracle.

The oracle measures directly how the remaining episode reward moves when a
single agent's actions are randomized from the queried step onward. It runs
all its suffix rollouts as one lockstep batch of the branched environment,
yet remains far too slow to be the product; at desk scale it doubles as both
a baseline and the independent ground truth for tests.

Access discipline: emai / random / mc_oracle touch the target only through
act() and the joint act_batch(), one call per lockstep step; value- and
gradient-based baselines need the privileged accessor and therefore a learned
target.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import nn
from .ctde import one_hot
from .envs import make_env
from .masking import MaskingPolicy
from .nn import Tensor
from .rng import integers_rows, stream
from .rollout import Step, Trace, batch_actions, greedy_actions, replay_prefix
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

    @property
    def n_agents(self) -> int:
        return len(self.observations)


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

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        raise NotImplementedError

    def most_critical(self, ctx: ExplainContext) -> int:
        return int(np.argmax(self.scores(ctx)))  # lowest index wins ties

    def scores_batch(self, env, observations: np.ndarray, states: np.ndarray, t: int,
                     episode_seeds, prefix: np.ndarray) -> np.ndarray:
        """scores() of B episodes of `env` at step t, as a (B, n_agents) array.

        Row b scores the context of episode_seeds[b] with observations[b]
        (n_agents, obs_dim), states[b] and the executed joint actions
        prefix[b] (t, n_agents); states is None when reads_states is False.
        The default builds each row's ExplainContext and calls scores(); an
        override must return the same rows bitwise.
        """
        return np.stack([
            self.scores(ExplainContext(observations[b], states[b], t, env.name, env.params,
                                       int(episode_seeds[b]), prefix[b].tolist()))
            for b in range(len(observations))])


class EmaiExplainer(Explainer):
    """Keep-minus-mask value gap from a trained masking policy."""

    kind = "emai"
    reads_states = False

    def __init__(self, policy: MaskingPolicy):
        self.policy = policy

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        return self.policy.importance_vector(ctx.observations)

    def scores_batch(self, env, observations, states, t, episode_seeds, prefix) -> np.ndarray:
        """One stacked forward over the B observation sets."""
        return self.policy.importance_vector(observations)


class RandomExplainer(Explainer):
    """Uniform random scores; the normalization reference for RRD.

    Each query draws from stream(seed, "random-explainer", episode_seed, t),
    so a score depends only on the queried context, never on how many
    queries came before it or in which process they ran.
    """

    kind = "random"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        return stream(self.seed, "random-explainer", ctx.episode_seed, ctx.t).random(ctx.n_agents)


class ValueBasedExplainer(Explainer):
    """Per-agent best utility-head value, read from the target's network."""

    kind = "value"
    reads_states = False

    def __init__(self, target: TargetPolicy):
        self._qnet = privileged_q_network(target)

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        q = self._qnet.q_all_agents(ctx.observations)
        return q.max(axis=1)

    def scores_batch(self, env, observations, states, t, episode_seeds, prefix) -> np.ndarray:
        """One stacked forward over the B observation sets."""
        return self._qnet.q_all_agents(observations).max(axis=2)


class GradientBasedExplainer(Explainer):
    """Saliency of the chosen action's log-probability w.r.t. the observation.

    p is the softmax of the target's Q values at temperature 1; the score is
    the L1 norm of d log p(chosen) / d obs per agent.
    """

    kind = "gradient"

    def __init__(self, target: TargetPolicy):
        self._qnet = privileged_q_network(target)
        # the target is fixed while it is explained: a frozen copy of its
        # MLP gives the input gradient without forming any weight gradient
        self._mlp = copy.deepcopy(self._qnet.mlp)
        for p in self._mlp.params():
            p.requires_grad = False

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        out = np.zeros(ctx.n_agents)
        for i in range(ctx.n_agents):
            obs = np.asarray(ctx.observations[i], dtype=np.float64)
            x = Tensor(np.concatenate([obs, one_hot(np.array([i]), self._qnet.n_agents)[0]]),
                       requires_grad=True)
            q = self._mlp.forward(x)
            chosen = int(np.argmax(q.numpy()))
            shift = float(q.numpy().max())
            log_z = (q - shift).exp().sum().log() + shift
            pick = np.zeros(self._qnet.n_actions)
            pick[chosen] = 1.0
            log_p = (q * Tensor(pick)).sum() - log_z
            log_p.backward()
            grad = x.grad[: self._qnet.obs_dim]
            out[i] = np.abs(grad).sum()
        return out


def _suffix_return(env, target) -> float:
    total = 0.0
    done = env.done
    obs = env.observations()
    while not done:
        result = env.step(greedy_actions(target, obs))
        total += result.reward
        obs, done = result.observations, result.done
    return total


def _randomized_suffix_return(env, target, agents: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Suffix returns of len(agents) lockstep branches of env: in row b, agent
    agents[b] plays draws[b, s] at suffix step s and every other agent acts
    greedily, from one joint act_batch query per step. Returns one total per
    row."""
    batch = env.branch(len(agents))
    played = np.arange(len(agents)) * env.spec.n_agents + agents  # flat (row, agent) entries
    totals = np.zeros(len(agents))
    obs = batch.observations()
    s = 0
    while not batch.done:
        actions = batch_actions(target, obs)
        actions.put(played, draws[:, s])
        result = batch.step(actions)
        totals += result.reward
        obs = result.observations
        s += 1
    return totals


def mc_counterfactual_oracle(target, env, episode_seed: int, prefix_actions,
                             rollouts: int, seed: int = 0
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent |change in remaining episode reward| when that agent alone
    acts randomly from here on; returns (scores, standard errors).

    Rollout k of agent i draws its actions from
    stream(seed, "mc-oracle", episode_seed, t, i, k), one per suffix step.
    """
    if rollouts < 1:
        raise ValueError("rollouts must be >= 1")
    replay_prefix(env, episode_seed, prefix_actions)
    n = env.spec.n_agents
    t = len(prefix_actions)
    unmasked = _suffix_return(copy.deepcopy(env), target)
    # row i * rollouts + k is rollout k of agent i; a size-m draw yields the
    # same values as m single draws from the stream
    draws = integers_rows(seed, ("mc-oracle", episode_seed, t),
                          [(i, k) for i in range(n) for k in range(rollouts)],
                          env.spec.n_actions, env.spec.horizon - t)
    agents = np.repeat(np.arange(n), rollouts)
    returns = _randomized_suffix_return(env, target, agents, draws).reshape(n, rollouts)
    scores = np.zeros(n)
    stderr = np.zeros(n)
    for i in range(n):
        scores[i] = abs(returns[i].mean() - unmasked)
        stderr[i] = returns[i].std(ddof=1) / np.sqrt(rollouts) if rollouts > 1 else 0.0
    return scores, stderr


class McOracleExplainer(Explainer):
    """Monte-Carlo counterfactual randomization oracle (black-box, slow)."""

    kind = "mc_oracle"

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


def explain(explainer: Explainer, observations, state, time_t: int,
            **context) -> np.ndarray:
    """Score every agent at one time-step; higher means more important."""
    ctx = ExplainContext(np.asarray(observations), np.asarray(state), int(time_t),
                         **context)
    out = np.asarray(explainer.scores(ctx), dtype=np.float64)
    if out.shape != (ctx.n_agents,):
        raise nn.ShapeError(f"explainer returned shape {out.shape} for {ctx.n_agents} agents")
    if not np.all(np.isfinite(out)):
        raise nn.NumericsError(f"explainer {explainer.kind!r} produced non-finite scores")
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
