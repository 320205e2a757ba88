"""Centralized-training / decentralized-execution Q-learning machinery.

One parameter-shared utility network scores every agent's actions from its
local observation plus a one-hot agent id; a monotonic hypernetwork mixer
combines the chosen per-agent values into a team value. The same trainer
serves both the target-policy learner and the masking-agent learner;
callers can add an extra loss term on the same Q_tot to the TD loss.

Training and Q inference are graph-free: the net (`Mlp.fused_forward`/
`fused_backward`) and the mixer (`mix`/`mix_backward`) compute the same
float ops that the `nn.Tensor` graph would, so results are bitwise those of
autodiff.

Buffers: a `QLearner` owns one `TdBuffers`, sized for batch_episodes x
horizon transitions. The TD step's functions (_flatten_batch, qtot_forward,
stale_max_qtot, build_td_loss) write every batch-sized intermediate into
leading-row views of the buffers they are given, so with no extra loss
(lambda = 0) a step allocates no batch-sized array after the first. The
live forward keeps its cache there until the backward; the stale forward
and the backward share one ping-pong scratch. Gradients, stats and every
inference call's results are new arrays that no later call writes.
"""
from __future__ import annotations

import copy
import functools
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import nn
from .nn import FRESH, Mlp, Scratch, Tensor
from .rng import episode_seed, stream


@functools.cache
def _identity(n: int) -> np.ndarray:
    """np.eye(n), built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def agent_inputs(observations: np.ndarray, agent_ids, n_agents: int) -> np.ndarray:
    """The agent-net input rows (B, k, obs_dim + n_agents) of (B, k, obs_dim)
    observations: row (b, j) is observations[b, j] followed by the one-hot of
    agent id agent_ids[j], or of agent_ids[b, j] for a (B, k) id array."""
    *rows, obs_dim = observations.shape
    one_hot = _identity(n_agents)[agent_ids]
    if len(rows) != 2 or one_hot.shape[-2] != rows[1]:
        raise nn.ShapeError(f"observations {observations.shape} vs agent ids {np.shape(agent_ids)}")
    x = np.empty((*rows, obs_dim + n_agents))
    x[..., :obs_dim] = observations
    x[..., obs_dim:] = one_hot
    return x


def epsilon_greedy(q_fn: Callable[[], np.ndarray], n_agents: int, n_actions: int,
                   epsilon: float, rng: np.random.Generator) -> list[int]:
    """The joint epsilon-greedy action. Agent by agent, rng draws a coin,
    random() < epsilon, and an exploring agent then draws
    integers(0, n_actions). Only if some agent exploits is q_fn() called,
    once, for the (n_agents, n_actions) Q values; an exploiting agent takes
    its argmax, the lowest index winning ties."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    actions = [int(rng.integers(0, n_actions)) if rng.random() < epsilon else None
               for _ in range(n_agents)]
    if None in actions:
        greedy = np.argmax(q_fn(), axis=1)
        actions = [int(greedy[i]) if a is None else a for i, a in enumerate(actions)]
    return actions


def linear_epsilon(step: int, start: float, end: float, anneal_steps: int) -> float:
    if step >= anneal_steps:
        return end
    return start + (end - start) * (step / anneal_steps)


class AgentQNet:
    """Shared per-agent utility network Q_i(o_i, a); id one-hot appended."""

    def __init__(self, obs_dim: int, n_agents: int, n_actions: int,
                 hidden: tuple[int, int], rng: np.random.Generator | None = None):
        self.obs_dim = int(obs_dim)
        self.n_agents = int(n_agents)
        self.n_actions = int(n_actions)
        self.mlp = Mlp([self.obs_dim + self.n_agents, *hidden, self.n_actions],
                       ["relu", "relu", "identity"], rng)

    def fused_forward(self, observations: np.ndarray, agent_ids) -> tuple[np.ndarray, tuple]:
        """The one query kernel: Q (B, k, n_actions) of agent_inputs' rows, and
        the Mlp.fused_forward cache. One stacked forward, so block b rounds
        exactly as the forward of block b alone, whatever B is."""
        return self.mlp.fused_forward(agent_inputs(observations, agent_ids, self.n_agents))

    def q_single(self, obs: np.ndarray, agent_id: int) -> np.ndarray:
        """Q (B, n_actions) of one agent for a stack (B, obs_dim) of its
        observations, from (B, 1, in) one-row blocks; one observation
        (obs_dim,) is its one-row view and gives (n_actions,)."""
        obs = np.asarray(obs)
        if obs.ndim == 1:
            return self.fused_forward(obs[None, None], [agent_id])[0][0, 0]
        return self.fused_forward(obs[:, None], [agent_id])[0][:, 0]

    def q_all_agents(self, observations: np.ndarray) -> np.ndarray:
        """Q (B, n_agents, n_actions) of a stack (B, n_agents, obs_dim) of
        observation sets; one set (n_agents, obs_dim) is its one-row view
        and gives (n_agents, n_actions)."""
        obs, ids = np.asarray(observations), np.arange(self.n_agents)
        if obs.ndim == 2:
            return self.fused_forward(obs[None], ids)[0][0]
        return self.fused_forward(obs, ids)[0]

    def params(self) -> list[Tensor]:
        return self.mlp.params()

    def to_doc(self) -> dict:
        return {"obs_dim": self.obs_dim, "n_agents": self.n_agents,
                "n_actions": self.n_actions, "mlp": self.mlp.to_doc()}

    @classmethod
    def from_doc(cls, doc: dict) -> "AgentQNet":
        """Parse to_doc's output; other keys or non-int sizes raise ValueError."""
        nn.check_keys(doc, _NET_KEYS, "agent_net")
        net = cls(*nn.int_fields(doc, ("obs_dim", "n_agents", "n_actions"), "agent_net"),
                  doc["mlp"]["layer_sizes"][1:-1])
        net.mlp.load_doc(doc["mlp"])
        return net


def _kept(key: str | None, name: str):
    """A mixer's Scratch name for an array its backward reads: under `key`,
    or a plain shared name when key is None (a mix whose cache is unused)."""
    return name if key is None else (key, name)


class MonotonicMixer:
    """State-conditioned mixer with non-negative mixing weights.

    Q_tot = W2(s)^T elu(W1(s)^T q + b1(s)) + v(s), with W1 = |H1(s)| and
    W2 = |H2(s)| so Q_tot is monotone non-decreasing in every q_i.
    """

    def __init__(self, n_agents: int, state_dim: int, embed_dim: int,
                 hyper_hidden: int = 32, rng: np.random.Generator | None = None):
        self.n_agents = int(n_agents)
        self.state_dim = int(state_dim)
        self.embed_dim = int(embed_dim)
        self.hyper_w1 = Mlp([state_dim, hyper_hidden, n_agents * embed_dim],
                            ["relu", "identity"], rng)
        self.hyper_b1 = Mlp([state_dim, embed_dim], ["identity"], rng)
        self.hyper_w2 = Mlp([state_dim, hyper_hidden, embed_dim], ["relu", "identity"], rng)
        self.hyper_v = Mlp([state_dim, embed_dim, 1], ["relu", "identity"], rng)

    def mix(self, chosen_q: np.ndarray, states: np.ndarray, ws: Scratch = FRESH,
            key: str | None = "mix") -> tuple[np.ndarray, tuple]:
        """chosen_q (B, n_agents), states (B, state_dim) -> Q_tot (B,), plus
        the cache for mix_backward. The ELU's pre-activation and Q_tot are
        checked finite.

        Every array goes into ws: what mix_backward reads under names that
        start with `key`, the rest under plain names. key=None is for a mix
        whose cache is never used (the stale target): it keeps nothing, and
        its hypernets share the ping-pong pair with the backward, so each
        hypernet's output is used up before the next hypernet runs. Plain
        names are shared where lifetimes never overlap: |W2| goes into the
        used-up pre-activation, and mix_backward writes into the plain
        "pre", "hidden" and "prod" arrays, which no cache holds.
        """
        B, n, E = chosen_q.shape[0], self.n_agents, self.embed_dim
        s = np.asarray(states, dtype=np.float64)
        q = chosen_q.reshape(B, n, 1)
        h1, c1 = self.hyper_w1.fused_forward(s, ws, key and (key, "w1"))
        w1q = np.abs(h1.reshape(B, n, E), out=ws.take("prod", B, n, E))
        np.multiply(q, w1q, out=w1q)
        pre = np.sum(w1q, axis=1, out=ws.take("pre", B, E))
        b1, cb1 = self.hyper_b1.fused_forward(s, ws, key and (key, "b1"))
        np.add(pre, b1, out=pre)
        nn._check_finite(pre, "mixer hidden pre-activation")
        hidden = nn._elu_f(pre, out=ws.take(_kept(key, "hidden"), B, E), ws=ws)
        h2, c2 = self.hyper_w2.fused_forward(s, ws, key and (key, "w2"))
        w2h = np.abs(h2, out=pre)
        np.multiply(hidden, w2h, out=w2h)
        v, cv = self.hyper_v.fused_forward(s, ws, key and (key, "v"))
        q_tot = np.sum(w2h, axis=1, out=ws.take(_kept(key, "q_tot"), B))
        np.add(q_tot, v.reshape(B), out=q_tot)
        nn._check_finite(q_tot, "mixer output")
        return q_tot, (q, h1, c1, cb1, hidden, h2, c2, cv, ws)

    def mix_backward(self, cache: tuple, d_qtot: np.ndarray) -> tuple[np.ndarray, list]:
        """(dL/dchosen_q, parameter gradients in params() order) for the
        upstream dL/dQ_tot; the same float ops as the graph's backward. The
        gradients are new arrays; dL/dchosen_q is a view into the forward's
        Scratch."""
        q, h1, c1, cb1, hidden, h2, c2, cv, ws = cache
        B, n, E = len(d_qtot), self.n_agents, self.embed_dim
        g = d_qtot[:, None]
        d_pre = np.abs(h2, out=ws.take("pre", B, E))
        nn._elu_b(np.multiply(g, d_pre, out=d_pre), hidden, out=d_pre, ws=ws)
        d_h2 = np.multiply(g, hidden, out=ws.take("hidden", B, E))
        np.multiply(d_h2, np.sign(h2, out=ws.take("sign", B, E)), out=d_h2)
        g3 = d_pre[:, None, :]
        prod = np.abs(h1.reshape(B, n, E), out=ws.take("prod", B, n, E))
        np.multiply(g3, prod, out=prod)
        d_chosen = np.sum(prod, axis=2, out=ws.take("d_chosen", B, n))
        d_h1 = np.multiply(g3, q, out=prod).reshape(B, n * E)
        np.multiply(d_h1, np.sign(h1, out=ws.take("sign", B, n * E)), out=d_h1)
        grads = (self.hyper_w1.fused_backward(c1, d_h1)
                 + self.hyper_b1.fused_backward(cb1, d_pre)
                 + self.hyper_w2.fused_backward(c2, d_h2)
                 + self.hyper_v.fused_backward(cv, d_qtot.reshape(B, 1)))
        return d_chosen, grads

    def params(self) -> list[Tensor]:
        return (self.hyper_w1.params() + self.hyper_b1.params()
                + self.hyper_w2.params() + self.hyper_v.params())

    def to_doc(self) -> dict:
        return {"embed_dim": self.embed_dim, "n_agents": self.n_agents,
                "state_dim": self.state_dim,
                "hyper_w1": self.hyper_w1.to_doc(), "hyper_b1": self.hyper_b1.to_doc(),
                "hyper_w2": self.hyper_w2.to_doc(), "hyper_v": self.hyper_v.to_doc()}

    @classmethod
    def from_doc(cls, doc: dict) -> "MonotonicMixer":
        """Parse to_doc's output; other keys or non-int sizes raise ValueError."""
        nn.check_keys(doc, _MIXER_KEYS, "mixer")
        mixer = cls(*nn.int_fields(doc, ("n_agents", "state_dim", "embed_dim"), "mixer"),
                    hyper_hidden=doc["hyper_w1"]["layer_sizes"][1])
        for name in _HYPERNETS:
            getattr(mixer, name).load_doc(doc[name])
        return mixer


# the key sets of schemas/checkpoint_schema.json
_NET_KEYS = frozenset(("obs_dim", "n_agents", "n_actions", "mlp"))
_HYPERNETS = ("hyper_w1", "hyper_b1", "hyper_w2", "hyper_v")
_MIXER_KEYS = frozenset(("embed_dim", "n_agents", "state_dim", *_HYPERNETS))
_CHECKPOINT_KEYS = frozenset(("format", "v", "env", "env_params", "n_agents", "n_actions",
                             "mixer_kind", "training_step", "agent_net", "mixer"))


def checkpoint_doc(net: AgentQNet, mixer, env, training_step: int) -> dict:
    """The ctde-checkpoint document (schemas/checkpoint_schema.json); a
    learned target passes mixer=None and is written as mixer_kind "none"."""
    return {
        "format": "ctde-checkpoint", "v": 1,
        "env": getattr(env, "name", ""), "env_params": getattr(env, "params", {}),
        "n_agents": net.n_agents, "n_actions": net.n_actions,
        "mixer_kind": "none" if mixer is None else "monotonic",
        "training_step": int(training_step),
        "agent_net": net.to_doc(),
        "mixer": None if mixer is None else mixer.to_doc(),
    }


def load_checkpoint_doc(doc) -> tuple[AgentQNet, MonotonicMixer | None]:
    """Parse checkpoint_doc's output; any malformed document raises ValueError."""
    try:
        if doc["format"] != "ctde-checkpoint" or type(doc["v"]) is not int or doc["v"] != 1:
            raise ValueError("not a v1 ctde checkpoint")
        nn.check_keys(doc, _CHECKPOINT_KEYS, "ctde checkpoint")
        n_agents, n_actions, _ = nn.int_fields(doc, ("n_agents", "n_actions", "training_step"),
                                               "ctde checkpoint")
        if type(doc["env"]) is not str or type(doc["env_params"]) is not dict:
            raise ValueError("ctde checkpoint env must be a string and env_params an object")
        net = AgentQNet.from_doc(doc["agent_net"])
        if (n_agents, n_actions) != (net.n_agents, net.n_actions):
            raise ValueError("n_agents/n_actions disagree with agent_net")
        kind, mixer_doc = doc["mixer_kind"], doc["mixer"]
        if kind == "monotonic":
            mixer = MonotonicMixer.from_doc(mixer_doc)
            if mixer.n_agents != n_agents:
                raise ValueError("mixer n_agents disagrees with agent_net")
        elif kind == "none" and mixer_doc is None:
            mixer = None
        else:
            raise ValueError(f"mixer_kind {kind!r} does not fit its mixer document")
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed ctde checkpoint: {type(exc).__name__}: {exc}") from exc
    return net, mixer


@dataclass
class Episode:
    """One whole episode; arrays indexed by decision time t = 0..T-1.

    `obs` and `states` carry T+1 entries so every transition sees its
    successor; the final transition is terminal and never bootstrapped.
    """

    obs: np.ndarray      # (T+1, n_agents, obs_dim)
    states: np.ndarray   # (T+1, state_dim)
    actions: np.ndarray  # (T, n_agents) int
    rewards: np.ndarray  # (T,) raw environment rewards

    @property
    def length(self) -> int:
        return len(self.actions)


class EpisodeBuffer:
    """FIFO buffer of whole episodes."""

    def __init__(self, capacity: int):
        self._dq: deque[Episode] = deque(maxlen=int(capacity))

    def add(self, episode: Episode) -> None:
        self._dq.append(episode)

    def __len__(self) -> int:
        return len(self._dq)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Episode]:
        idx = rng.choice(len(self._dq), size=min(batch_size, len(self._dq)), replace=False)
        return [self._dq[int(i)] for i in idx]


class StaleCopy:
    """Frozen snapshot of the utility net and mixer for TD targets.

    Both are deep-copied once; refresh() copies the live parameter values
    into the snapshot's arrays, in params() order.
    """

    def __init__(self, net: AgentQNet, mixer, refresh_interval: int):
        self.refresh_interval = int(refresh_interval)
        self.net = copy.deepcopy(net)
        self.mixer = copy.deepcopy(mixer)
        self._live = net.params() + mixer.params()
        self._frozen = self.net.params() + self.mixer.params()

    def refresh(self) -> None:
        for frozen, live in zip(self._frozen, self._live):
            np.copyto(frozen.data, live.data)

    def maybe_refresh(self, env_step: int) -> bool:
        if env_step % self.refresh_interval == 0:
            self.refresh()
            return True
        return False


class Transitions(NamedTuple):
    """The transitions of a batch of episodes, stacked in episode order."""

    obs: np.ndarray          # (N, n_agents, obs_dim)
    next_obs: np.ndarray     # (N, n_agents, obs_dim)
    states: np.ndarray       # (N, state_dim)
    next_states: np.ndarray  # (N, state_dim)
    actions: np.ndarray      # (N, n_agents) int
    rewards: np.ndarray      # (N,)
    terminal: np.ndarray     # (N,) bool, True on each episode's last transition
    ep_index: np.ndarray     # (N,) position of the episode in the batch
    t_index: np.ndarray      # (N,) decision time within the episode
    n_episodes: int


class TdBuffers:
    """The batch-sized arrays of a TD step, for up to max_rows transitions.

    `inputs`/`next_inputs` are the live and stale agent-net inputs (see
    agent_inputs; their one-hot columns are written once), and their
    observation columns are the `obs`/`next_obs` of the Transitions that
    _flatten_batch fills, next to the other Transitions arrays. `net`
    (agent rows) and `mix` (transition rows) hold the intermediates.
    """

    def __init__(self, n_agents: int, obs_dim: int, state_dim: int, max_rows: int):
        self.max_rows = int(max_rows)
        self.obs_dim = int(obs_dim)
        ids, blank = np.arange(n_agents), np.zeros((max_rows, n_agents, obs_dim))
        self.inputs = agent_inputs(blank, ids, n_agents)
        self.next_inputs = agent_inputs(blank, ids, n_agents)
        self.states = np.empty((max_rows, state_dim))
        self.next_states = np.empty((max_rows, state_dim))
        self.actions = np.empty((max_rows, n_agents), dtype=np.int64)
        self.rewards = np.empty(max_rows)
        self.terminal = np.empty(max_rows, dtype=bool)
        self.ep_index = np.empty(max_rows, dtype=np.int64)
        self.t_index = np.empty(max_rows, dtype=np.int64)
        self.row_ids = np.arange(max_rows * n_agents)
        self.net = Scratch(max_rows * n_agents)
        self.mix = Scratch(max_rows)

    # views, not attributes: a deep copy must not detach them from their base
    @property
    def obs(self) -> np.ndarray:
        return self.inputs[:, :, :self.obs_dim]

    @property
    def next_obs(self) -> np.ndarray:
        return self.next_inputs[:, :, :self.obs_dim]


def _flatten_batch(batch: list[Episode], buffers: TdBuffers) -> Transitions:
    """Stack transitions of a batch of episodes into leading-row views of
    `buffers`."""
    n_rows = sum(ep.length for ep in batch)
    if n_rows > buffers.max_rows:
        raise ValueError(f"batch of {n_rows} transitions exceeds the TD buffers' "
                         f"{buffers.max_rows} rows")
    b = buffers
    obs, next_obs = b.obs, b.next_obs
    start = 0
    for k, ep in enumerate(batch):
        T = ep.length
        rows = slice(start, start + T)
        obs[rows] = ep.obs[:T]
        next_obs[rows] = ep.obs[1:T + 1]
        b.states[rows] = ep.states[:T]
        b.next_states[rows] = ep.states[1:T + 1]
        b.actions[rows] = ep.actions
        b.rewards[rows] = ep.rewards
        b.terminal[rows] = False
        b.terminal[start + T - 1] = True
        b.ep_index[rows] = k
        b.t_index[rows] = b.row_ids[:T]
        start += T
    return Transitions(obs[:start], next_obs[:start], b.states[:start],
                       b.next_states[:start], b.actions[:start], b.rewards[:start],
                       b.terminal[:start], b.ep_index[:start], b.t_index[:start], len(batch))


def _net_forward(net: AgentQNet, obs_steps: np.ndarray, buffers: TdBuffers,
                 stale: bool) -> tuple[np.ndarray, tuple]:
    """The net's Q rows and cache for (S, n, D) observations: the obs
    (stale=False; cached under "q") or next_obs (stale=True; no cache) that
    _flatten_batch wrote into `buffers`."""
    inputs = buffers.next_inputs if stale else buffers.inputs
    x = inputs[:len(obs_steps)].reshape(-1, inputs.shape[-1])
    return net.mlp.fused_forward(x, buffers.net, None if stale else "q")


def qtot_forward(net: AgentQNet, mixer, flat: Transitions,
                 buffers: TdBuffers) -> tuple[np.ndarray, tuple]:
    """Q_tot (N,) of the taken joint actions of `flat`, plus the cache for
    qtot_backward. `flat` must be _flatten_batch's output for `buffers`;
    Q_tot and the cache are views into them."""
    N, n, _ = flat.obs.shape
    ws_net, ws_mix = buffers.net, buffers.mix
    q_all, net_cache = _net_forward(net, flat.obs, buffers, stale=False)
    pick = ws_net.take("pick", N * n, net.n_actions)
    pick.fill(0.0)
    pick[buffers.row_ids[:N * n], flat.actions.reshape(-1)] = 1.0
    q_pick = np.multiply(q_all, pick, out=ws_net.take("q_pick", *pick.shape))
    chosen = ws_mix.take("chosen", N, n)
    np.sum(q_pick, axis=1, out=chosen.reshape(N * n))
    q_tot, mix_cache = mixer.mix(chosen, flat.states, ws_mix)
    return q_tot, (net_cache, pick, mix_cache)


def qtot_backward(net: AgentQNet, mixer, cache: tuple, d_qtot: np.ndarray) -> list[np.ndarray]:
    """Gradients of net.params() + mixer.params(), in that order, for the
    upstream dL/dQ_tot of qtot_forward's output; new arrays."""
    net_cache, pick, mix_cache = cache
    d_chosen, mixer_grads = mixer.mix_backward(mix_cache, d_qtot)
    N, n = d_chosen.shape
    d_q = net_cache[1].take("d_q", *pick.shape)
    np.multiply(d_chosen[:, :, None], pick.reshape(N, n, -1), out=d_q.reshape(N, n, -1))
    return net.mlp.fused_backward(net_cache, d_q) + mixer_grads


def stale_max_qtot(stale: StaleCopy, next_obs: np.ndarray, next_states: np.ndarray,
                   buffers: TdBuffers) -> np.ndarray:
    """max over joint actions of the stale Q_tot, via per-agent stale argmax.
    It runs in the buffers' ping-pong scratch and keeps no cache."""
    S, n, _ = next_obs.shape
    q, _ = _net_forward(stale.net, next_obs, buffers, stale=True)
    max_q = np.max(q, axis=1, out=buffers.net.take("max_q", S * n)).reshape(S, n)
    return stale.mixer.mix(max_q, next_states, buffers.mix, None)[0]


def build_td_loss(stale: StaleCopy, flat: Transitions, q_tot: np.ndarray, gamma: float,
                  buffers: TdBuffers, reward_fn=None) -> tuple[float, np.ndarray, dict]:
    """One-step TD loss of the live Q_tot (N,) of `flat`: the mean of
    (q_tot - y)^2 with y = r + gamma * max stale Q_tot, and y = r on terminal
    transitions. Returns the loss, dL/dq_tot (the float ops of autodiff
    through that mean; a view into `buffers`) and stats.

    reward_fn maps (rewards, actions) arrays to the training rewards, e.g.
    to add a per-step masking bonus; identity when None.
    """
    ws = buffers.mix
    N = len(q_tot)
    rewards = flat.rewards if reward_fn is None else reward_fn(flat.rewards, flat.actions)
    target_next = stale_max_qtot(stale, flat.next_obs, flat.next_states, buffers)
    np.copyto(target_next, 0.0, where=flat.terminal)
    y = np.add(rewards, np.multiply(gamma, target_next, out=target_next), out=ws.take("y", N))
    err = np.subtract(q_tot, y, out=ws.take("err", N))
    inv_n = 1.0 / err.size
    half = np.multiply(err, inv_n, out=ws.take("d_qtot", N))
    stats = {"q_tot_mean": float(q_tot.mean()), "y_mean": float(y.mean())}
    loss = float(np.multiply(err, err, out=ws.take("err_sq", N)).sum() * inv_n)
    return loss, np.add(half, half, out=half), stats


class QLearner:
    """Bundles net, mixer, buffer, stale copies and the optimizer, plus the
    episode collection loop shared by the target and masking trainers."""

    def __init__(self, spec, n_actions: int, seed: int, config: dict):
        """A learner for env spec `spec` from a merged config: every key of
        config.DEFAULT_CONFIG["training"] must be present. An out-of-range
        size, count, discount or exploration rate raises ValueError."""
        for key in ("batch_episodes", "stale_interval", "mix_embed"):
            if config[key] < 1:
                raise ValueError(f"{key} must be >= 1, got {config[key]}")
        if len(config["hidden"]) != 2 or min(config["hidden"]) < 1:
            raise ValueError(f"hidden must be two layer sizes >= 1, got {config['hidden']}")
        if config["buffer_episodes"] < config["batch_episodes"]:
            raise ValueError(f"buffer_episodes ({config['buffer_episodes']}) must be >= "
                             f"batch_episodes ({config['batch_episodes']})")
        if config["steps"] < 0:
            raise ValueError(f"steps must be >= 0, got {config['steps']}")
        for key in ("gamma", "epsilon_start", "epsilon_end"):
            if not 0.0 <= config[key] <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1], got {config[key]}")
        self.seed = int(seed)
        self.config = config
        init_rng = stream(seed, "init")
        self.net = AgentQNet(spec.obs_dim, spec.n_agents, n_actions, config["hidden"], init_rng)
        self.mixer = MonotonicMixer(spec.n_agents, spec.state_dim, config["mix_embed"],
                                    rng=init_rng)
        self.stale = StaleCopy(self.net, self.mixer, config["stale_interval"])
        self.buffer = EpisodeBuffer(config["buffer_episodes"])
        self.batch_episodes = int(config["batch_episodes"])
        self.buffers = TdBuffers(spec.n_agents, spec.obs_dim, spec.state_dim,
                                 self.batch_episodes * spec.horizon)
        self.optimizer = nn.Adam(self.net.params() + self.mixer.params(), lr=config["lr"])
        self.sample_rng = stream(seed, "replay")

    def td_train_step(self, reward_fn=None, extra_loss_fn=None) -> dict:
        """Sample a batch, apply one optimizer step, return loss stats.

        The loss is build_td_loss's (reward_fn goes to it) plus, if given,
        extra_loss_fn's term: extra_loss_fn(q_tot, transitions) gets the live
        Q_tot of the batch and returns (value, d value / d q_tot, stats).
        Its dL/dQ_tot is added to the TD loss's, as autodiff accumulates the
        two at the Q_tot both losses share, and one backward pass follows.

        The batch and every batch-sized intermediate of the TD loss live in
        self.buffers; extra_loss_fn's arguments are views into them, valid
        during its call, and it allocates its own arrays on every step. Each
        parameter's .grad is set to a new array; the optimizer step copies
        them into its flat gradient and checks that finite."""
        batch = self.buffer.sample(self.batch_episodes, self.sample_rng)
        flat = _flatten_batch(batch, self.buffers)
        q_tot, cache = qtot_forward(self.net, self.mixer, flat, self.buffers)
        loss, d_qtot, stats = build_td_loss(self.stale, flat, q_tot, float(self.config["gamma"]),
                                            self.buffers, reward_fn)
        stats["loss_e"] = loss
        if extra_loss_fn is not None:
            extra, d_extra, extra_stats = extra_loss_fn(q_tot, flat)
            loss = loss + extra
            np.add(d_qtot, d_extra, out=d_qtot)
            stats.update(extra_stats)
        stats["loss_total"] = loss
        if not np.isfinite(loss):
            raise nn.NumericsError("training loss became non-finite; aborting")
        grads = qtot_backward(self.net, self.mixer, cache, d_qtot)
        for p, g in zip(self.optimizer.params, grads, strict=True):
            p.grad = g
        self.optimizer.step()
        return stats

    def learn(self, env, tag: str, columns: dict, compose=None, reward_fn=None,
              extra_loss_fn=None, progress=None) -> list[dict]:
        """Collect epsilon-greedy episodes for config["steps"] env steps,
        taking one TD step after each episode once the buffer holds a batch.

        Episode k resets with episode_seed(seed, f"{tag}-episode", k) and
        exploration draws from stream(seed, f"{tag}-explore"): each step
        draws every agent's coin first (epsilon_greedy), and the net is
        queried, once, only on a step where some agent exploits.
        compose(obs, learner_actions) maps the learner's joint action to the
        one the environment executes (identity when None); the buffer keeps
        the learner's actions. Every 50 episodes a curve row is appended:
        env_steps, episodes, epsilon, then one window mean per entry of
        `columns`, which maps a curve column to a train-step stat
        (td_train_step's keys) or an episode stat ("episode_reward", or
        "mask_rate": the share of learner actions equal to 1). The row is
        also passed to progress(row). Returns the curve rows.
        """
        spec = env.spec
        config = self.config
        eps_cfg = (config["epsilon_start"], config["epsilon_end"],
                   config["epsilon_anneal_steps"])
        explore_rng = stream(self.seed, f"{tag}-explore")
        curves: list[dict] = []
        window: dict[str, list[float]] = {col: [] for col in columns}
        env_step, episode_idx = 0, 0
        while env_step < config["steps"]:
            state, obs = env.reset(episode_seed(self.seed, f"{tag}-episode", episode_idx))
            obs_seq, state_seq, act_seq, rew_seq = [obs], [state], [], []
            done = False
            while not done and env_step < config["steps"]:
                eps = linear_epsilon(env_step, *eps_cfg)
                actions = epsilon_greedy(functools.partial(self.net.q_all_agents, obs),
                                         spec.n_agents, self.net.n_actions, eps, explore_rng)
                result = env.step(actions if compose is None else compose(obs, actions))
                obs, state, done = result.observations, result.next_state, result.done
                obs_seq.append(obs)
                state_seq.append(state)
                act_seq.append(actions)
                rew_seq.append(result.reward)
                env_step += 1
                self.stale.maybe_refresh(env_step)
            episode = Episode(np.stack(obs_seq), np.stack(state_seq),
                              np.array(act_seq, dtype=np.int64), np.array(rew_seq))
            self.buffer.add(episode)
            stats = {"episode_reward": float(np.sum(rew_seq)),
                     "mask_rate": int((episode.actions == 1).sum()) / episode.actions.size}
            episode_idx += 1
            if len(self.buffer) >= self.batch_episodes:
                stats.update(self.td_train_step(reward_fn, extra_loss_fn))
            for col, key in columns.items():
                if key in stats:
                    window[col].append(stats[key])
            if episode_idx % 50 == 0:
                curves.append({"env_steps": env_step, "episodes": episode_idx,
                               "epsilon": linear_epsilon(env_step, *eps_cfg),
                               **{col: float(np.mean(v)) if v else float("nan")
                                  for col, v in window.items()}})
                for v in window.values():
                    v.clear()
                if progress is not None:
                    progress(curves[-1])
        return curves
