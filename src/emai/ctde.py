"""Centralized-training / decentralized-execution Q-learning machinery.

One parameter-shared utility network scores every agent's actions from its
local observation plus a one-hot agent id; a monotonic hypernetwork mixer
combines the chosen per-agent values into a team value. The same trainer
serves both the target-policy learner and the masking-agent learner;
callers can add an extra loss term on the same Q_tot to the TD loss.

Training and Q inference are graph-free: the net (`Mlp.forward`/`backward`)
and the mixer (`mix`/`mix_backward`) compute the same float ops that a
reverse-mode graph of the same layers would (the tests' reference,
`tests/autodiff.py`), so results are bitwise those of autodiff.

Buffers: a `QLearner` owns one `TdBuffers`, sized for batch_episodes x
horizon transitions. The TD step's functions (_flatten_batch, td_targets,
qtot_forward, build_td_loss) write every batch-sized intermediate into
leading-row views of the buffers they are given, so a step allocates no
batch-sized array after the first. One set of layer arrays serves both
forwards: the stale target is reduced to y first, then the live forward
fills the same arrays with the cache that the backward consumes in place.
Gradients, stats and every inference call's results are new arrays that no
later call writes.

Two threads share the backward (qtot_backward). The caller forms
dL/dchosen_q (MonotonicMixer.chosen_backward), then hands the rest of the
mixer's backward (hypernet_backward: the hypernets' upstream gradients and
their four Mlp.backward calls) to one worker thread while it runs the agent
net's backward; the join gives the bits of the serial order. The worker
writes only the mixer's cache and Scratch, the caller only the agent net's.
Only code that bench/tracing.py does not wrap may run on the worker, as the
tracer keeps one span stack for the process: hypernet_backward is plain
numpy and Mlp.backward, which call no forward, finiteness check, mix or
optimizer step.
"""
from __future__ import annotations

import contextvars
import copy
import functools
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import nn
from .config import check_keys, check_tag, int_fields
from .nn import FRESH, Mlp, Scratch, Tensor
from .rng import episode_seed, stream


@functools.cache
def _identity(n: int) -> np.ndarray:
    """np.eye(n), built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def agent_inputs(observations: np.ndarray, n_agents: int) -> np.ndarray:
    """The agent-net input rows (B, n_agents, obs_dim + n_agents) of a stack
    (B, n_agents, obs_dim) of observation sets: row (b, i) is
    observations[b, i] followed by the one-hot of agent i, so the one-hot
    block is the cached identity itself."""
    *rows, obs_dim = observations.shape
    if len(rows) != 2 or rows[1] != n_agents:
        raise nn.ShapeError(f"observations {observations.shape} vs {n_agents} agents")
    x = np.empty((*rows, obs_dim + n_agents))
    x[..., :obs_dim] = observations
    x[..., obs_dim:] = _identity(n_agents)
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

    def fused_forward(self, observations: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The one query kernel: Q (B, n_agents, n_actions) of a stack
        (B, n_agents, obs_dim) of observation sets, and the Mlp.forward
        cache. One stacked forward, so block b rounds exactly as the forward
        of set b alone, whatever B is, and agent i's row reads obs[b, i]
        alone."""
        return self.mlp.forward(agent_inputs(observations, self.n_agents))

    def q_all_agents(self, observations: np.ndarray) -> np.ndarray:
        """Q (B, n_agents, n_actions) of a stack (B, n_agents, obs_dim) of
        observation sets; one set (n_agents, obs_dim) is its one-row view
        and gives (n_agents, n_actions)."""
        obs = np.asarray(observations)
        if obs.ndim == 2:
            return self.fused_forward(obs[None])[0][0]
        return self.fused_forward(obs)[0]

    def params(self) -> list[Tensor]:
        return self.mlp.params()

    def to_doc(self) -> dict:
        return {"obs_dim": self.obs_dim, "n_agents": self.n_agents,
                "n_actions": self.n_actions, "mlp": self.mlp.to_doc()}

    @classmethod
    def from_doc(cls, doc: dict) -> "AgentQNet":
        """Parse to_doc's output; other keys or non-int sizes raise ValueError."""
        check_keys(doc, _NET_KEYS, "agent_net")
        obs_dim, n_agents, n_actions = int_fields(doc, ("obs_dim", "n_agents", "n_actions"),
                                                  "agent_net")
        # checked before the net's zeros are built, so they are no larger than the document
        sizes = nn.doc_layer_sizes(doc["mlp"])
        if sizes[:1] + sizes[-1:] != [obs_dim + n_agents, n_actions]:
            raise nn.ShapeError(f"agent_net layer sizes {sizes} vs obs_dim {obs_dim}, "
                                f"n_agents {n_agents} and n_actions {n_actions}")
        net = cls(obs_dim, n_agents, n_actions, sizes[1:-1])
        net.mlp.load_doc(doc["mlp"])
        return net


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
        w1, b1, w2, v = _hypernet_sizes(n_agents, state_dim, embed_dim, hyper_hidden).values()
        self.hyper_w1 = Mlp(w1, ["relu", "identity"], rng)
        self.hyper_b1 = Mlp(b1, ["identity"], rng)
        self.hyper_w2 = Mlp(w2, ["relu", "identity"], rng)
        self.hyper_v = Mlp(v, ["relu", "identity"], rng)

    def mix(self, chosen_q: np.ndarray, states: np.ndarray,
            ws: Scratch = FRESH) -> tuple[np.ndarray, tuple]:
        """chosen_q (B, n_agents), states (B, state_dim) -> Q_tot (B,), plus
        the cache for mix_backward. The ELU's pre-activation and Q_tot are
        checked finite.

        Every array goes into ws under a fixed name, so a mix overwrites the
        last mix's cache and Q_tot: a mix whose cache is never used (the
        stale target) runs before the mix whose backward follows. |W2| goes
        into the used-up pre-activation.
        """
        B, n, E = chosen_q.shape[0], self.n_agents, self.embed_dim
        s = np.asarray(states, dtype=np.float64)
        q = chosen_q.reshape(B, n, 1)
        h1, c1 = self.hyper_w1.forward(s, ws, "w1")
        w1q = np.abs(h1.reshape(B, n, E), out=ws.take("prod", B, n, E))
        np.multiply(q, w1q, out=w1q)
        pre = nn._sum_axis1(w1q, ws.take("pre", B, E))
        b1, cb1 = self.hyper_b1.forward(s, ws, "b1")
        np.add(pre, b1, out=pre)
        nn._check_finite(pre, "mixer hidden pre-activation")
        hidden = nn._elu_f(pre, out=ws.take("hidden", B, E), ws=ws)
        h2, c2 = self.hyper_w2.forward(s, ws, "w2")
        w2h = np.abs(h2, out=pre)
        np.multiply(hidden, w2h, out=w2h)
        v, cv = self.hyper_v.forward(s, ws, "v")
        q_tot = np.sum(w2h, axis=1, out=ws.take("q_tot", B))
        np.add(q_tot, v.reshape(B), out=q_tot)
        nn._check_finite(q_tot, "mixer output")
        return q_tot, (q, h1, c1, cb1, hidden, h2, c2, cv, ws)

    def mix_backward(self, cache: tuple, d_qtot: np.ndarray) -> tuple[np.ndarray, list]:
        """(dL/dchosen_q, parameter gradients in params() order) for the
        upstream dL/dQ_tot: chosen_backward, then hypernet_backward, on the
        calling thread. The gradients are new arrays; dL/dchosen_q is a view
        into the forward's Scratch. Like Mlp.backward it consumes its cache."""
        d_chosen, d_pre = self.chosen_backward(cache, d_qtot)
        return d_chosen, self.hypernet_backward(cache, d_qtot, d_pre)

    def chosen_backward(self, cache: tuple, d_qtot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dL/dchosen_q and dL/d(the ELU's pre-activation), views into the
        forward's Scratch; the same float ops as the graph's backward. It
        reads the cache and writes none of it."""
        q, h1, c1, cb1, hidden, h2, c2, cv, ws = cache
        B, n, E = len(d_qtot), self.n_agents, self.embed_dim
        d_pre = np.abs(h2, out=ws.take("pre", B, E))
        nn._elu_b(np.multiply(d_qtot[:, None], d_pre, out=d_pre), hidden, out=d_pre, ws=ws)
        prod = np.abs(h1.reshape(B, n, E), out=ws.take("prod", B, n, E))
        np.multiply(d_pre[:, None, :], prod, out=prod)
        return np.sum(prod, axis=2, out=ws.take("d_chosen", B, n)), d_pre

    def hypernet_backward(self, cache: tuple, d_qtot: np.ndarray,
                          d_pre: np.ndarray) -> list[np.ndarray]:
        """The parameter gradients, in params() order, for chosen_backward's
        d_pre; new arrays. It consumes the cache: dL/dh2 goes into the ELU
        output, dL/dh1 into chosen_backward's product, and sign(h1) and
        sign(h2) into h1 and h2, each once read. Plain numpy and
        Mlp.backward, which the benchmark's tracer does not wrap."""
        q, h1, c1, cb1, hidden, h2, c2, cv, ws = cache
        B, n, E = len(d_qtot), self.n_agents, self.embed_dim
        d_h2 = np.multiply(d_qtot[:, None], hidden, out=hidden)
        np.multiply(d_h2, np.sign(h2, out=h2), out=d_h2)
        d_h1 = np.multiply(d_pre[:, None, :], q, out=ws.take("prod", B, n, E)).reshape(B, n * E)
        np.multiply(d_h1, np.sign(h1, out=h1), out=d_h1)
        return (self.hyper_w1.backward(c1, d_h1)
                + self.hyper_b1.backward(cb1, d_pre)
                + self.hyper_w2.backward(c2, d_h2)
                + self.hyper_v.backward(cv, d_qtot.reshape(B, 1)))

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
        check_keys(doc, _MIXER_KEYS, "mixer")
        fields = int_fields(doc, ("n_agents", "state_dim", "embed_dim"), "mixer")
        # checked before the hypernets' zeros are built, as in AgentQNet.from_doc
        sizes = {name: nn.doc_layer_sizes(doc[name]) for name in _HYPERNETS}
        hyper_hidden = sizes["hyper_w1"][1]
        if sizes != _hypernet_sizes(*fields, hyper_hidden):
            raise nn.ShapeError(f"mixer hypernet layer sizes {sizes} vs n_agents, state_dim "
                                f"and embed_dim {fields}")
        mixer = cls(*fields, hyper_hidden=hyper_hidden)
        for name in _HYPERNETS:
            getattr(mixer, name).load_doc(doc[name])
        return mixer


def _hypernet_sizes(n_agents: int, state_dim: int, embed_dim: int, hyper_hidden: int) -> dict:
    """The layer sizes of MonotonicMixer's hypernets, in _HYPERNETS order."""
    return {"hyper_w1": [state_dim, hyper_hidden, n_agents * embed_dim],
            "hyper_b1": [state_dim, embed_dim],
            "hyper_w2": [state_dim, hyper_hidden, embed_dim],
            "hyper_v": [state_dim, embed_dim, 1]}


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
        check_tag(doc, "format", "ctde-checkpoint", "ctde checkpoint")
        check_keys(doc, _CHECKPOINT_KEYS, "ctde checkpoint")
        n_agents, n_actions, _ = int_fields(doc, ("n_agents", "n_actions", "training_step"),
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
    except (KeyError, IndexError, TypeError, OverflowError) as exc:
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
    member: np.ndarray       # (N, n_episodes) 1.0 at (row, ep_index), else 0.0; or None
    n_episodes: int


class TdBuffers:
    """The batch-sized arrays of a TD step, for up to max_rows transitions.

    `inputs`/`next_inputs` are the live and stale agent-net inputs (see
    agent_inputs; their one-hot columns are written once), and their
    observation columns are the `obs`/`next_obs` of the Transitions that
    _flatten_batch fills, next to the other Transitions arrays. `net`
    (agent rows) and `mix` (transition rows) hold the intermediates, and
    `mix` the episode membership matrix that _with_membership fills.
    """

    def __init__(self, n_agents: int, obs_dim: int, state_dim: int, max_rows: int):
        self.max_rows = int(max_rows)
        self.obs_dim = int(obs_dim)
        blank = np.zeros((max_rows, n_agents, obs_dim))
        self.inputs = agent_inputs(blank, n_agents)
        self.next_inputs = agent_inputs(blank, n_agents)
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
    `buffers`: one concatenate per field, and the episode and time indices,
    and terminal flags from the episode lengths. Its `member` is None."""
    lengths = [ep.length for ep in batch]
    ends = np.cumsum(lengths)
    N = int(ends[-1])
    if N > buffers.max_rows:
        raise ValueError(f"batch of {N} transitions exceeds the TD buffers' "
                         f"{buffers.max_rows} rows")
    b = buffers
    flat = Transitions(b.obs[:N], b.next_obs[:N], b.states[:N], b.next_states[:N],
                       b.actions[:N], b.rewards[:N], b.terminal[:N], b.ep_index[:N],
                       b.t_index[:N], None, len(batch))
    np.concatenate([ep.obs[:T] for ep, T in zip(batch, lengths)], out=flat.obs)
    np.concatenate([ep.obs[1:T + 1] for ep, T in zip(batch, lengths)], out=flat.next_obs)
    np.concatenate([ep.states[:T] for ep, T in zip(batch, lengths)], out=flat.states)
    np.concatenate([ep.states[1:T + 1] for ep, T in zip(batch, lengths)], out=flat.next_states)
    np.concatenate([ep.actions for ep in batch], out=flat.actions)
    np.concatenate([ep.rewards for ep in batch], out=flat.rewards)
    flat.ep_index[:] = np.repeat(b.row_ids[:len(batch)], lengths)
    np.subtract(b.row_ids[:N], (ends - lengths)[flat.ep_index], out=flat.t_index)
    flat.terminal.fill(False)
    flat.terminal[ends - 1] = True
    return flat


def _with_membership(flat: Transitions, buffers: TdBuffers) -> Transitions:
    """`flat` with its membership matrix filled in `buffers`, for an extra loss."""
    member = buffers.mix.take("member", len(flat.ep_index), flat.n_episodes)
    member.fill(0.0)
    member[buffers.row_ids[:len(member)], flat.ep_index] = 1.0
    return flat._replace(member=member)


def qtot_forward(net: AgentQNet, mixer, flat: Transitions,
                 buffers: TdBuffers) -> tuple[np.ndarray, tuple]:
    """Q_tot (N,) of the taken joint actions of `flat`, plus the cache for
    qtot_backward. `flat` must be _flatten_batch's output for `buffers`;
    Q_tot and the cache are views into them, valid until the next forward."""
    N, n, _ = flat.obs.shape
    ws_net, ws_mix = buffers.net, buffers.mix
    x = buffers.inputs[:N].reshape(N * n, -1)
    q_all, net_cache = net.mlp.forward(x, ws_net, "q")
    pick = ws_net.take("pick", N * n, net.n_actions)
    pick.fill(0.0)
    pick[buffers.row_ids[:N * n], flat.actions.reshape(-1)] = 1.0
    q_pick = np.multiply(q_all, pick, out=ws_net.take("q_pick", *pick.shape))
    chosen = ws_mix.take("chosen", N, n)
    nn._sum_axis1(q_pick, chosen.reshape(N * n))
    q_tot, mix_cache = mixer.mix(chosen, flat.states, ws_mix)
    return q_tot, (net_cache, pick, mix_cache)


_worker = None  # the TD backward's one worker thread, started by the first backward


def _drop_worker() -> None:
    """A forked child inherits the executor but not its thread."""
    global _worker
    _worker = None


def _submit(fn, *args):
    """The Future of fn(*args) on the worker thread, run in a copy of the
    caller's context, which holds numpy's errstate. The first call starts
    the worker and has a forked child drop it."""
    global _worker
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="emai-td")
        os.register_at_fork(after_in_child=_drop_worker)
    return _worker.submit(contextvars.copy_context().run, fn, *args)


def qtot_backward(net: AgentQNet, mixer, cache: tuple, d_qtot: np.ndarray) -> list[np.ndarray]:
    """Gradients of net.params() + mixer.params(), in that order, for the
    upstream dL/dQ_tot of qtot_forward's output; new arrays. It consumes
    the cache, so one backward follows each qtot_forward.

    Once dL/dchosen_q is formed, the mixer's hypernet_backward runs on the
    worker thread while the agent net's backward runs here; the bits are
    those of the serial order (mix_backward, then Mlp.backward). The worker
    is joined before this returns or raises, and its error comes first, as
    the serial order meets the mixer's backward first."""
    net_cache, pick, mix_cache = cache
    d_chosen, d_pre = mixer.chosen_backward(mix_cache, d_qtot)
    hypernets = _submit(mixer.hypernet_backward, mix_cache, d_qtot, d_pre)
    try:
        N, n = d_chosen.shape
        d_q = net_cache[1].take("d_q", *pick.shape)
        np.multiply(d_chosen[:, :, None], pick.reshape(N, n, -1), out=d_q.reshape(N, n, -1))
        net_grads = net.mlp.backward(net_cache, d_q)
    finally:
        mixer_grads = hypernets.result()
    return net_grads + mixer_grads


def stale_max_qtot(stale: StaleCopy, next_obs: np.ndarray, next_states: np.ndarray,
                   buffers: TdBuffers) -> np.ndarray:
    """max over joint actions of the stale Q_tot, via per-agent stale argmax.
    It runs in the arrays of qtot_forward, so it comes before that."""
    S, n, _ = next_obs.shape
    q, _ = stale.net.mlp.forward(buffers.next_inputs[:S].reshape(S * n, -1), buffers.net, "q")
    max_q = nn._max_axis1(q, buffers.net.take("max_q", S * n)).reshape(S, n)
    return stale.mixer.mix(max_q, next_states, buffers.mix)[0]


def td_targets(stale: StaleCopy, flat: Transitions, gamma: float, buffers: TdBuffers,
               reward_fn=None) -> np.ndarray:
    """The one-step TD targets (N,) of `flat`, a view into `buffers`: y = r +
    gamma * max stale Q_tot, and y = r on terminal transitions. reward_fn
    maps (rewards, actions) arrays to the training rewards, e.g. to add a
    per-step masking bonus; identity when None. Call it before qtot_forward
    (see stale_max_qtot)."""
    rewards = flat.rewards if reward_fn is None else reward_fn(flat.rewards, flat.actions)
    target_next = stale_max_qtot(stale, flat.next_obs, flat.next_states, buffers)
    np.copyto(target_next, 0.0, where=flat.terminal)
    return np.add(rewards, np.multiply(gamma, target_next, out=target_next),
                  out=buffers.mix.take("y", len(rewards)))


def build_td_loss(y: np.ndarray, q_tot: np.ndarray,
                  buffers: TdBuffers) -> tuple[float, np.ndarray, dict]:
    """One-step TD loss of the live Q_tot (N,) for td_targets' y: the mean
    of (q_tot - y)^2. Returns the loss, dL/dq_tot (the float ops of autodiff
    through that mean; a view into `buffers`) and stats."""
    ws = buffers.mix
    N = len(q_tot)
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

        Three stages share one set of layer arrays: the TD targets
        (td_targets, given reward_fn), the live forward, then one backward
        that consumes the forward's cache. The loss is build_td_loss's plus,
        if given, extra_loss_fn's term: extra_loss_fn(q_tot, transitions)
        gets the live Q_tot of the batch and its transitions, membership
        filled (only then), and returns (value, d value / d q_tot, stats).
        Its dL/dQ_tot is added to the TD loss's, as autodiff accumulates the
        two at the Q_tot both losses share, and one backward pass follows.

        The batch and every batch-sized intermediate of the TD loss live in
        self.buffers; extra_loss_fn's arguments are views into them, valid
        during its call, and it allocates its own arrays on every step. Each
        parameter's .grad is set to a new array; the optimizer step copies
        them into its flat gradient and checks that finite."""
        batch = self.buffer.sample(self.batch_episodes, self.sample_rng)
        flat = _flatten_batch(batch, self.buffers)
        y = td_targets(self.stale, flat, float(self.config["gamma"]), self.buffers, reward_fn)
        q_tot, cache = qtot_forward(self.net, self.mixer, flat, self.buffers)
        loss, d_qtot, stats = build_td_loss(y, q_tot, self.buffers)
        stats["loss_e"] = loss
        if extra_loss_fn is not None:
            flat = _with_membership(flat, self.buffers)
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
