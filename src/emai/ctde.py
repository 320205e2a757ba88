"""Centralized-training / decentralized-execution Q-learning machinery.

One parameter-shared utility network scores every agent's actions from its
local observation plus a one-hot agent id; a mixer (additive or monotonic
hypernetwork) combines the chosen per-agent values into a team value. The
same trainer serves both the target-policy learner and the masking-agent
learner; callers can append extra loss terms to the TD loss before the
optimizer step.
"""
from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import Mlp, Tensor
from .rng import episode_seed, stream


def one_hot(indices: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((len(indices), width))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def epsilon_greedy(q_vector: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(0, len(q_vector)))
    return int(np.argmax(q_vector))  # lowest index wins ties


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

    def q_values(self, obs: np.ndarray, agent_ids: np.ndarray) -> Tensor:
        """Batched Q vectors; obs (B, obs_dim), agent_ids (B,) -> (B, n_actions)."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise nn.ShapeError(f"obs batch shape {obs.shape} vs expected (*, {self.obs_dim})")
        x = np.concatenate([obs, one_hot(np.asarray(agent_ids), self.n_agents)], axis=1)
        return self.mlp.forward(Tensor(x))

    def q_single(self, obs: np.ndarray, agent_id: int) -> np.ndarray:
        """Q vector for one agent, graph-free (for acting/explaining)."""
        with nn.no_grad():
            return self.q_values(np.asarray(obs)[None, :], np.array([agent_id])).numpy()[0]

    def q_all_agents(self, observations: np.ndarray) -> np.ndarray:
        """Q matrix (n_agents, n_actions) for a full observation set, graph-free."""
        with nn.no_grad():
            ids = np.arange(self.n_agents)
            return self.q_values(np.asarray(observations), ids).numpy()

    def params(self) -> list[Tensor]:
        return self.mlp.params()

    def to_doc(self) -> dict:
        return {"obs_dim": self.obs_dim, "n_agents": self.n_agents,
                "n_actions": self.n_actions, "mlp": self.mlp.to_doc()}

    @classmethod
    def from_doc(cls, doc: dict) -> "AgentQNet":
        net = cls(doc["obs_dim"], doc["n_agents"], doc["n_actions"],
                  doc["mlp"]["layer_sizes"][1:-1])
        net.mlp.load_doc(doc["mlp"])
        return net


class VdnMixer:
    """Additive mixer: Q_tot = sum_i Q_i. No parameters."""

    kind = "vdn"

    def mix(self, chosen_q: Tensor, states: np.ndarray) -> Tensor:
        return chosen_q.sum(axis=1)

    def params(self) -> list[Tensor]:
        return []

    def to_doc(self):
        return None


class MonotonicMixer:
    """State-conditioned mixer with non-negative mixing weights.

    Q_tot = W2(s)^T elu(W1(s)^T q + b1(s)) + v(s), with W1 = |H1(s)| and
    W2 = |H2(s)| so Q_tot is monotone non-decreasing in every q_i.
    """

    kind = "monotonic"

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

    def mix(self, chosen_q: Tensor, states: np.ndarray) -> Tensor:
        """chosen_q (B, n_agents), states (B, state_dim) -> Q_tot (B,)."""
        B = chosen_q.shape[0]
        s = Tensor(np.asarray(states, dtype=np.float64))
        w1 = self.hyper_w1.forward(s).abs().reshape(B, self.n_agents, self.embed_dim)
        b1 = self.hyper_b1.forward(s)
        hidden = ((chosen_q.reshape(B, self.n_agents, 1) * w1).sum(axis=1) + b1).elu()
        w2 = self.hyper_w2.forward(s).abs()
        v = self.hyper_v.forward(s)
        return (hidden * w2).sum(axis=1) + v.reshape(B)

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
        mixer = cls(doc["n_agents"], doc["state_dim"], doc["embed_dim"],
                    hyper_hidden=doc["hyper_w1"]["layer_sizes"][1])
        for name in ("hyper_w1", "hyper_b1", "hyper_w2", "hyper_v"):
            getattr(mixer, name).load_doc(doc[name])
        return mixer


def make_mixer(kind: str, n_agents: int, state_dim: int, embed_dim: int,
               rng: np.random.Generator | None = None):
    if kind == "vdn":
        return VdnMixer()
    if kind == "monotonic":
        return MonotonicMixer(n_agents, state_dim, embed_dim, rng=rng)
    raise ValueError(f"unknown mixer kind {kind!r}")


_CHECKPOINT_KEYS = frozenset(("format", "v", "env", "env_params", "n_agents", "n_actions",
                             "mixer_kind", "training_step", "agent_net", "mixer"))


def checkpoint_doc(net: AgentQNet, mixer, env, training_step: int) -> dict:
    """The ctde-checkpoint document (schemas/checkpoint_schema.json); a
    learned target passes mixer=None and is written as mixer_kind "none"."""
    return {
        "format": "ctde-checkpoint", "v": 1,
        "env": getattr(env, "name", ""), "env_params": getattr(env, "params", {}),
        "n_agents": net.n_agents, "n_actions": net.n_actions,
        "mixer_kind": getattr(mixer, "kind", "none"),
        "training_step": int(training_step),
        "agent_net": net.to_doc(),
        "mixer": None if mixer is None else mixer.to_doc(),
    }


def load_checkpoint_doc(doc) -> tuple[AgentQNet, VdnMixer | MonotonicMixer | None]:
    """Parse checkpoint_doc's output; any malformed document raises ValueError."""
    try:
        if doc["format"] != "ctde-checkpoint" or doc["v"] != 1:
            raise ValueError("not a v1 ctde checkpoint")
        if set(doc) != _CHECKPOINT_KEYS:
            raise ValueError(f"ctde checkpoint keys {sorted(doc)} differ from the schema's")
        net = AgentQNet.from_doc(doc["agent_net"])
        if (doc["n_agents"], doc["n_actions"]) != (net.n_agents, net.n_actions):
            raise ValueError("n_agents/n_actions disagree with agent_net")
        kind, mixer_doc = doc["mixer_kind"], doc["mixer"]
        if kind == "monotonic":
            mixer = MonotonicMixer.from_doc(mixer_doc)
        elif kind in ("none", "vdn") and mixer_doc is None:
            mixer = VdnMixer() if kind == "vdn" else None
        else:
            raise ValueError(f"mixer_kind {kind!r} does not fit its mixer document")
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed ctde checkpoint: {type(exc).__name__}: {exc}") from exc
    return net, mixer


def q_total(mixer, state: np.ndarray, chosen_q: np.ndarray) -> float:
    """Scalar Q_tot for one (state, per-agent chosen Q) pair, graph-free."""
    with nn.no_grad():
        q = Tensor(np.asarray(chosen_q, dtype=np.float64)[None, :])
        return float(mixer.mix(q, np.asarray(state)[None, :]).numpy()[0])


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
    over the snapshot's, in params() order.
    """

    def __init__(self, net: AgentQNet, mixer, refresh_interval: int):
        self.refresh_interval = int(refresh_interval)
        self.net = copy.deepcopy(net)
        self.mixer = copy.deepcopy(mixer)
        self._live = net.params() + mixer.params()
        self._frozen = self.net.params() + self.mixer.params()
        for p in self._frozen:
            p.requires_grad = False

    def refresh(self) -> None:
        for frozen, live in zip(self._frozen, self._live):
            frozen.data = live.data.copy()

    def maybe_refresh(self, env_step: int) -> bool:
        if env_step % self.refresh_interval == 0:
            self.refresh()
            return True
        return False


def _flatten_batch(batch: list[Episode]):
    """Stack transitions of a batch of episodes into flat arrays."""
    obs, next_obs, states, next_states, actions, rewards, terminal, ep_index, t_index = \
        [], [], [], [], [], [], [], [], []
    for k, ep in enumerate(batch):
        T = ep.length
        obs.append(ep.obs[:T])
        next_obs.append(ep.obs[1:T + 1])
        states.append(ep.states[:T])
        next_states.append(ep.states[1:T + 1])
        actions.append(ep.actions)
        rewards.append(ep.rewards)
        term = np.zeros(T, dtype=bool)
        term[-1] = True
        terminal.append(term)
        ep_index.append(np.full(T, k))
        t_index.append(np.arange(T))
    return (np.concatenate(obs), np.concatenate(next_obs),
            np.concatenate(states), np.concatenate(next_states),
            np.concatenate(actions), np.concatenate(rewards),
            np.concatenate(terminal), np.concatenate(ep_index),
            np.concatenate(t_index))


def _agent_batch(obs_steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, n, D) observations -> (S*n, D) rows plus matching agent ids."""
    S, n, D = obs_steps.shape
    return obs_steps.reshape(S * n, D), np.tile(np.arange(n), S)


def chosen_q_tensor(net: AgentQNet, obs_steps: np.ndarray, actions: np.ndarray) -> Tensor:
    """Differentiable (S, n) matrix of Q values of the taken actions."""
    S, n, _ = obs_steps.shape
    rows, ids = _agent_batch(obs_steps)
    q_all = net.q_values(rows, ids)
    picked = (q_all * one_hot(actions.reshape(-1), net.n_actions)).sum(axis=1)
    return picked.reshape(S, n)


def stale_max_qtot(stale: StaleCopy, next_obs: np.ndarray, next_states: np.ndarray) -> np.ndarray:
    """max over joint actions of the stale Q_tot, via per-agent stale argmax."""
    with nn.no_grad():
        S, n, _ = next_obs.shape
        rows, ids = _agent_batch(next_obs)
        q_all = stale.net.q_values(rows, ids).numpy()
        max_q = q_all.max(axis=1).reshape(S, n)
        return stale.mixer.mix(Tensor(max_q), next_states).numpy()


def build_td_loss(net: AgentQNet, mixer, stale: StaleCopy, batch: list[Episode],
                  gamma: float, reward_fn=None) -> tuple[Tensor, dict]:
    """One-step TD loss over a batch; y = r + gamma * max stale Q_tot.

    reward_fn maps (rewards, actions) arrays to the training rewards, e.g.
    to add a per-step masking bonus; identity when None. Terminal
    transitions use y = r.
    """
    if not batch:
        raise ValueError("empty episode batch")
    obs, next_obs, states, next_states, actions, rewards, terminal, ep_idx, t_idx = \
        _flatten_batch(batch)
    if reward_fn is not None:
        rewards = reward_fn(rewards, actions)
    q_tot = mixer.mix(chosen_q_tensor(net, obs, actions), states)
    target_next = stale_max_qtot(stale, next_obs, next_states)
    y = rewards + gamma * np.where(terminal, 0.0, target_next)
    err = q_tot - Tensor(y)
    loss = (err * err).mean()
    stats = {"q_tot_mean": float(q_tot.numpy().mean()), "y_mean": float(y.mean())}
    return loss, stats


class QLearner:
    """Bundles net, mixer, buffer, stale copies and the optimizer, plus the
    episode collection loop shared by the target and masking trainers."""

    def __init__(self, spec, n_actions: int, seed: int, config: dict):
        """A learner for env spec `spec` from a merged config: every key of
        config.DEFAULT_CONFIG["training"] must be present."""
        self.seed = int(seed)
        self.config = config
        init_rng = stream(seed, "init")
        self.net = AgentQNet(spec.obs_dim, spec.n_agents, n_actions, config["hidden"], init_rng)
        self.mixer = make_mixer(config["mixer"], spec.n_agents, spec.state_dim,
                                config["mix_embed"], init_rng)
        self.stale = StaleCopy(self.net, self.mixer, config["stale_interval"])
        self.buffer = EpisodeBuffer(config["buffer_episodes"])
        self.batch_episodes = int(config["batch_episodes"])
        self.optimizer = nn.Adam(self.net.params() + self.mixer.params(), lr=config["lr"])
        self.sample_rng = stream(seed, "replay")

    def td_train_step(self, reward_fn=None, extra_loss_fn=None) -> dict:
        """Sample a batch, apply one optimizer step, return loss stats."""
        batch = self.buffer.sample(self.batch_episodes, self.sample_rng)
        loss_e, stats = build_td_loss(self.net, self.mixer, self.stale, batch,
                                      float(self.config["gamma"]), reward_fn)
        loss = loss_e
        stats["loss_e"] = loss_e.item()
        if extra_loss_fn is not None:
            extra, extra_stats = extra_loss_fn(batch)
            loss = loss + extra
            stats.update(extra_stats)
        stats["loss_total"] = loss.item()
        if not np.isfinite(stats["loss_total"]):
            raise nn.NumericsError("training loss became non-finite; aborting")
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return stats

    def learn(self, env, tag: str, columns: dict, compose=None, reward_fn=None,
              extra_loss_fn=None, progress=None) -> list[dict]:
        """Collect epsilon-greedy episodes for config["steps"] env steps,
        taking one TD step after each episode once the buffer holds a batch.

        Episode k resets with episode_seed(seed, f"{tag}-episode", k) and
        exploration draws from stream(seed, f"{tag}-explore").
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
                q = self.net.q_all_agents(obs)
                actions = [epsilon_greedy(q[i], eps, explore_rng) for i in range(spec.n_agents)]
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
