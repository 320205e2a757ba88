"""Importance explainers: the learned masking scores, three baselines, and
a brute-force Monte-Carlo counterfactual oracle. Each scores the rows of the
live GridBatch an arm is stepping (scores_batch); scores(ctx) is its one-row
view, with no batch.

The oracle measures directly how the remaining episode reward moves when a
single agent's actions are randomized from the queried step onward. A query
runs all its suffix rollouts as one lockstep batch, and scores_batch copies
the caller's rows for those of many episodes, yet it remains far too slow to
be the product; at desk scale it doubles as both a baseline and the
independent ground truth for tests.

Access discipline: emai / random / mc_oracle touch the target only through
its query kernel act_batch(), one call per lockstep step (a one-row batch's
too); value- and gradient-based baselines need the privileged accessor and
therefore a learned target.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .envs import make_env
from .masking import MaskingPolicy
from .nn import ShapeError
from .rng import integers_rows, uniform_rows
from .rollout import replay_prefix, stderr
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


class Explainer:
    kind: str = ""

    def scores_batch(self, observations: np.ndarray, t: int, episode_seeds, batch) -> np.ndarray:
        """Importance scores of B episodes at step t, (B, n_agents).

        Row b scores episode episode_seeds[b] from its observations[b]
        (n_agents, obs_dim). batch is the live GridBatch at step t those
        observations came from, which the explainer must not change, or None
        in the one-row scores() view. This is the one method an explainer
        implements.
        """
        raise NotImplementedError

    def scores(self, ctx: ExplainContext) -> np.ndarray:
        """scores_batch's one-row view, with no batch."""
        return self.scores_batch(np.asarray(ctx.observations)[None], ctx.t,
                                 [ctx.episode_seed], None)[0]

    def most_critical(self, ctx: ExplainContext) -> int:
        return int(np.argmax(self.scores(ctx)))  # lowest index wins ties


# bound on the observation sets one EmaiExplainer keeps the scores of
EMAI_MEMO_SETS = 1 << 14


class EmaiExplainer(Explainer):
    """Keep-minus-mask value gap from a trained masking policy.

    The scores are memoized per explainer, which holds only if the policy
    never changes once the explainer is built: every caller builds it from a
    loaded checkpoint or a finished train_emai. An observation set's key is
    the bytes of its C-contiguous float64 form, so -0.0 and 0.0 are two
    sets, and its scores are one row of a growing (K, n_agents) store.
    """

    kind = "emai"

    def __init__(self, policy: MaskingPolicy):
        self.policy = policy
        n, obs_dim = policy.qnet.n_agents, policy.qnet.obs_dim
        self._set_shape = (n, obs_dim)
        self._key = np.dtype((np.void, 8 * n * obs_dim))  # one set's float64 bytes
        self._rows: dict[bytes, int] = {}  # key -> its row of _store
        self._store = np.empty((0, n))

    def scores_batch(self, observations, t, episode_seeds, batch) -> np.ndarray:
        """A new (B, n_agents) array, row b bitwise equal to
        policy.importance_vector(observations[b][None])[0]. The call's
        distinct unseen sets, in first-seen order, take one stacked forward,
        whose block per set rounds as that set's forward alone does, and are
        stored once it has passed its finite checks (NumericsError stores
        nothing). A call that would take the store past EMAI_MEMO_SETS sets
        is one stacked forward of all its sets, and stores none."""
        obs = np.ascontiguousarray(observations, dtype=np.float64)
        if obs.shape[1:] != self._set_shape:
            raise ShapeError(f"observations {obs.shape} vs sets of shape {self._set_shape}")
        n, obs_dim = self._set_shape
        keys = obs.reshape(-1, n * obs_dim).view(self._key).ravel().tolist()
        rows = self._rows
        index = list(map(rows.get, keys))
        if None in index:
            new = list(dict.fromkeys(key for key, row in zip(keys, index) if row is None))
            if len(rows) + len(new) > EMAI_MEMO_SETS:
                return self.policy.importance_vector(obs)
            # a key is its set's float64 bytes, so the new sets are their keys joined
            sets = np.frombuffer(b"".join(new)).reshape(-1, n, obs_dim)
            self._keep(new, self.policy.importance_vector(sets))
            index = list(map(rows.__getitem__, keys))
        return self._store.take(index, axis=0)

    def _keep(self, keys: list[bytes], scores: np.ndarray) -> None:
        """Store the score rows of new sets; a full store doubles, up to
        EMAI_MEMO_SETS rows."""
        k, end = len(self._rows), len(self._rows) + len(keys)
        if end > len(self._store):
            grown = np.empty((min(max(2 * k, end), EMAI_MEMO_SETS), self._store.shape[1]))
            grown[:k] = self._store[:k]
            self._store = grown
        self._store[k:end] = scores
        self._rows.update(zip(keys, range(k, end)))


class RandomExplainer(Explainer):
    """Uniform random scores; the normalization reference for RRD.

    Each query draws from stream(seed, "random-explainer", episode_seed, t),
    so a score depends only on the queried context, never on how many
    queries came before it or in which batch they ran.
    """

    kind = "random"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def scores_batch(self, observations, t, episode_seeds, batch) -> np.ndarray:
        """Every row's stream drawn at once: random(n) is uniform(0.0, 1.0, n)."""
        return uniform_rows(self.seed, ("random-explainer",), (np.asarray(episode_seeds), t),
                            len(episode_seeds), 0.0, 1.0, observations.shape[1])


class ValueBasedExplainer(Explainer):
    """Per-agent best utility-head value, read from the target's network."""

    kind = "value"

    def __init__(self, target: TargetPolicy):
        self._qnet = privileged_q_network(target)

    def scores_batch(self, observations, t, episode_seeds, batch) -> np.ndarray:
        """One stacked forward over the B observation sets."""
        return self._qnet.q_all_agents(observations).max(axis=2)


class GradientBasedExplainer(Explainer):
    """Saliency of the chosen action's log-probability w.r.t. the observation.

    p is the softmax of the target's Q values at temperature 1 and the chosen
    action their argmax (lowest index on ties); the score is the L1 norm of
    d log p(chosen) / d obs per agent, formed in closed form (dL/dQ, then
    Mlp.input_grad) in the float order of backpropagating log p through a
    reverse-mode graph of the net, with no weight gradient; the tests pin it
    against such a graph (tests/autodiff.py).
    """

    kind = "gradient"

    def __init__(self, target: TargetPolicy):
        self._qnet = privileged_q_network(target)

    def scores_batch(self, observations, t, episode_seeds, batch) -> np.ndarray:
        """One stacked query (AgentQNet.fused_forward) over the B observation
        sets, its cache taken down to the input."""
        net = self._qnet
        q, cache = net.fused_forward(observations)
        e = np.exp(q - q.max(axis=-1, keepdims=True))
        # the one-hot of each row's argmax (lowest index on ties), added as 0.0/1.0
        pick = np.equal(np.arange(net.n_actions), q.argmax(axis=-1)[..., None])
        d_q = (-1.0 / e.sum(axis=-1, keepdims=True)) * e + pick
        grad = net.mlp.input_grad(cache, d_q)
        return np.abs(grad[..., :net.obs_dim]).sum(axis=-1)


def _suffix_return(env, target) -> float:
    """The unmasked greedy return of env's remaining steps, added reward by
    reward: env's one-row batch steps in place, one act_batch query a step."""
    row = env.row
    total = 0.0
    obs = row.observations()
    while not row.done:
        result = row.step(target.act_batch(obs))
        total += float(result.reward[0])
        obs = result.observations
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
    rows = len(seeds) * n * rollouts
    # draw row (b * n + i) * rollouts + k is rollout k of agent i in episode b
    episode, entry = np.divmod(np.arange(rows), n * rollouts)
    agent, k = np.divmod(entry, rollouts)
    # a size-m draw yields the same values as m single draws from the stream
    draws = integers_rows(seed, ("mc-oracle",), (np.asarray(seeds)[episode], t, agent, k), rows,
                          [spec.n_actions] * (spec.horizon - t), spec.horizon - t)
    played = (episode * width + width - n * rollouts + entry) * n + agent
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
    return scores, stderr(returns, axis=1)


# bound on the rows of one batched oracle block, made of whole episodes
ORACLE_ROW_BLOCK = 1 << 12


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

    def scores_batch(self, observations, t, episode_seeds, batch) -> np.ndarray:
        """Blocks of whole episodes, at most ORACLE_ROW_BLOCK rows each: each
        episode runs its unmasked suffix and its n * rollouts randomized ones
        as 1 + n * rollouts copies of its row of `batch`, in one lockstep
        batch. The caller's batch stays as it was."""
        if batch is None:
            raise ValueError("the oracle scores the rows of a live GridBatch; got no batch")
        if batch.t != t:
            raise ValueError(f"the oracle scores step t={t}, but the batch is at t={batch.t}")
        if batch.size != len(episode_seeds):
            raise ValueError(f"{len(episode_seeds)} episode seeds for {batch.size} batch rows")
        n, rollouts = batch.env.spec.n_agents, self.rollouts
        width = 1 + n * rollouts  # an episode's unmasked row, then its rollouts
        per_block = max(1, ORACLE_ROW_BLOCK // width)
        out = np.empty((len(episode_seeds), n))
        for lo in range(0, len(episode_seeds), per_block):
            seeds = [int(s) for s in episode_seeds[lo:lo + per_block]]
            block = batch.repeat(width, slice(lo, lo + len(seeds)))
            totals = _randomized_suffix_return(block, self.target, seeds, rollouts, self.seed)
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
