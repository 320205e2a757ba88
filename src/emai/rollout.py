"""Episode execution primitives shared by training, explainers and evaluation.

Every rollout is a pure function of (environment, seed, policies, explicit
rng streams), so batches replay bitwise. A batch of episodes runs as one
lockstep GridBatch stepped from a copy of a start batch (run_lockstep), whose
act function sees every step's observations, states and executed actions; a
single episode whose steps a caller keeps builds a Trace (run_episode).
Greedy target play makes one target.act_batch query per lockstep step and
one target.act query, act_batch's one-row view, per scalar step.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# bench/tracing.py counts scalar greedy steps by this name
def greedy_actions(target, observations: np.ndarray) -> list[int]:
    """The joint actions of one observation set (n_agents, obs_dim), as a list."""
    return target.act(observations)


def run_lockstep(start, act_fn) -> tuple[np.ndarray, np.ndarray]:
    """Play one episode per row of `start`, a GridBatch at t = 0 (e.g.
    env.reset_batch(seeds)), in lockstep; act_fn picks every step's joint
    actions. The episodes step a copy, so `start` stays as it was and arms
    on the same seeds share one reset.

    act_fn(batch, obs, prefix) returns the (B, n_agents) joint actions of
    step batch.t, given the GridBatch (for batch.states()), its observations
    (B, n_agents, obs_dim) and prefix, the (B, t, n_agents) joint actions
    executed so far: a view that act_fn must neither keep nor change.
    Returns the step rewards (B, horizon) and the executed joint actions
    (B, horizon, n_agents). Row b equals run_episode(env, seeds[b], f) for
    an f that picks row b's actions.
    """
    if start.t != 0:
        raise ValueError(f"run_lockstep needs a batch at t = 0, got t = {start.t}")
    batch = start.repeat(1)  # step() changes t, done and door_open in place
    spec = batch.env.spec
    rewards = np.empty((batch.size, spec.horizon))
    actions = np.empty((batch.size, spec.horizon, spec.n_agents), dtype=np.int64)
    obs = batch.observations()
    while not batch.done:
        t = batch.t
        joint = act_fn(batch, obs, actions[:, :t])
        result = batch.step(joint)  # validates the shape and range of joint
        actions[:, t] = joint
        rewards[:, t] = result.reward
        obs = result.observations
    return rewards, actions


def target_rewards(start, target) -> np.ndarray:
    """Step rewards (B, horizon) of unmasked greedy episodes from the rows of
    `start` (left unchanged, as by run_lockstep). Row b equals, reward for
    reward, run_target_episode(env, seeds[b], target) for a start of
    env.reset_batch(seeds). Each step is one target.act_batch query."""
    return run_lockstep(start, lambda batch, obs, prefix: target.act_batch(obs))[0]


def reward_sums(rewards: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """sum_t gamma**t * rewards[:, t] per row, added one column at a time from
    t = 0: the order of Python's sum over a Trace, so each row equals
    Trace.discounted_return(gamma) (and episode_reward at gamma = 1) bitwise.
    np.sum along time would add pairwise and round differently."""
    total = np.zeros(len(rewards))
    for t in range(rewards.shape[1]):
        total += (gamma ** t) * rewards[:, t]
    return total


@dataclass
class Step:
    t: int
    state: np.ndarray
    observations: np.ndarray
    target_actions: list[int]
    mask_actions: list[int] | None
    final_actions: list[int]
    reward: float
    importance: np.ndarray | None = None


@dataclass
class Trace:
    seed: int
    steps: list[Step] = field(default_factory=list)

    @property
    def episode_reward(self) -> float:
        return float(sum(s.reward for s in self.steps))

    def discounted_return(self, gamma: float) -> float:
        return float(sum((gamma ** s.t) * s.reward for s in self.steps))


def run_episode(env, seed: int, act_fn) -> Trace:
    """Play one episode from env.reset(seed); act_fn picks every joint action.

    act_fn(obs, state, prefix) returns the joint action for the current
    step, where prefix lists the joint actions executed so far, so the step
    index is len(prefix). run_episode keeps its own copies of each action, so
    a caller mutating a returned list changes neither prefix nor the trace.
    The trace records executed actions only: target_actions equals
    final_actions and mask_actions is None.
    """
    state, obs = env.reset(seed)
    trace = Trace(seed)
    prefix: list[list[int]] = []
    done = False
    while not done:
        actions = list(act_fn(obs, state, prefix))
        result = env.step(actions)
        trace.steps.append(Step(len(prefix), state, obs, actions, None, list(actions),
                                result.reward))
        prefix.append(list(actions))
        state, obs, done = result.next_state, result.observations, result.done
    return trace


def run_target_episode(env, seed: int, target) -> Trace:
    """One unmasked greedy episode of the target policy, one target.act
    query (through greedy_actions) per step."""
    return run_episode(env, seed, lambda obs, state, prefix: greedy_actions(target, obs))


def replay_prefix(env, seed: int, prefix_actions) -> tuple[np.ndarray, np.ndarray, bool]:
    """Reset and re-apply a joint-action prefix; returns (state, obs, done)."""
    state, obs = env.reset(seed)
    done = False
    for joint in prefix_actions:
        if done:
            raise ValueError("prefix extends past episode termination")
        result = env.step(list(joint))
        state, obs, done = result.next_state, result.observations, result.done
    return state, obs, done

