"""Episode loops: the scalar run_episode (act_fn contract, prefix bookkeeping,
isolation) and the lockstep, reward-only target_rewards."""
from __future__ import annotations

import numpy as np
import pytest

from emai import explain, rollout
from emai.ctde import AgentQNet
from emai.envs import make_env
from emai.rng import episode_seed, stream
from emai.target import LearnedPolicy, scripted_by_name, scripted_policy


def test_run_episode_prefix_holds_executed_actions():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    rng = stream(0, "episode-prefix")
    seen: list[list[list[int]]] = []

    def act(obs, state, prefix):
        seen.append([list(a) for a in prefix])
        actions = rollout.greedy_actions(pol, obs)
        actions[int(rng.integers(0, 3))] = int(rng.integers(0, 5))
        return actions

    trace = rollout.run_episode(env, 21, act)
    executed = [s.final_actions for s in trace.steps]
    assert len(seen) == len(trace.steps) == env.spec.horizon
    for t, prefix in enumerate(seen):
        assert len(prefix) == t
        assert prefix == executed[:t]
    assert [s.t for s in trace.steps] == list(range(len(trace.steps)))
    # the trace replays: same seed, same actions, same rewards
    state, obs, _ = rollout.replay_prefix(env, 21, executed[:5])
    assert np.array_equal(obs, trace.steps[5].observations)
    assert np.array_equal(state, trace.steps[5].state)


def test_run_episode_copies_returned_actions():
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=6)
    pol = scripted_policy(env)
    returned: list[list[int]] = []
    prefixes: list[list] = []

    def act(obs, state, prefix):
        if returned:
            returned[-1][:] = [9, 9, 9]  # scribble over the previous step's list
        prefixes.append([list(a) for a in prefix])  # as seen at this call
        returned.append(rollout.greedy_actions(pol, obs))
        return returned[-1]

    trace = rollout.run_episode(env, 4, act)
    returned[-1][:] = [9, 9, 9]
    reference = rollout.run_target_episode(env, 4, pol)
    expected = [s.final_actions for s in reference.steps]
    assert [s.final_actions for s in trace.steps] == expected
    assert [s.target_actions for s in trace.steps] == expected
    assert prefixes == [expected[:t] for t in range(len(expected))]
    assert all(s.mask_actions is None for s in trace.steps)


# ---- target_rewards: lockstep reward-only episodes, bitwise the scalar ones ----

def _learned_target(env, seed=0):
    net = AgentQNet(env.spec.obs_dim, env.spec.n_agents, env.spec.n_actions,
                    hidden=(16, 16), rng=stream(seed, "rollout-learned"))
    return LearnedPolicy(net)


REWARD_CASES = [
    ("keycorridor", {}, "default", 500),
    ("keycorridor", {}, "weakened", 7),
    ("spread", {"n_agents": 3, "grid": 8}, "default", 7),
    ("spread", {"n_agents": 3, "grid": 5, "horizon": 8}, "learned", 7),
    ("diagnostic", {"n_agents": 3, "grid": 6, "inert": (1,)}, "default", 2),
    ("diagnostic", {"n_agents": 3, "grid": 5, "zero_reward": True}, "default", 2),
    ("keycorridor", {}, "learned", 1),
]


@pytest.mark.parametrize("name,params,variant,size", REWARD_CASES)
def test_target_rewards_equal_scalar_episodes(name, params, variant, size):
    env = make_env(name, **params)
    if variant == "learned":
        pol = _learned_target(env, seed=size)
        assert type(pol).act_batch is LearnedPolicy.act_batch  # one stacked forward
    else:
        pol = scripted_by_name(env, variant)
    seeds = [episode_seed(size, "target-rewards", i) for i in range(size)]
    rewards = rollout.target_rewards(env.reset_batch(seeds), pol)
    traces = [rollout.run_target_episode(env, s, pol) for s in seeds]
    assert rewards.shape == (size, env.spec.horizon) and rewards.dtype == np.float64
    for row, trace in zip(rewards, traces):
        assert row.tolist() == [s.reward for s in trace.steps]
    assert rollout.reward_sums(rewards).tolist() == [tr.episode_reward for tr in traces]
    assert rollout.reward_sums(rewards, 0.99).tolist() == [tr.discounted_return(0.99)
                                                           for tr in traces]


def test_reward_sums_add_left_to_right():
    # 1 + 1e-16 + 1e-16 + ... rounds back to 1 at every step when added in
    # order, unlike a pairwise sum
    rewards = np.array([[1.0] + [1e-16] * 15, [1e-16] * 15 + [1.0]])
    assert rollout.reward_sums(rewards).tolist() == [sum(row) for row in rewards.tolist()]
    assert rollout.reward_sums(rewards)[0] == 1.0


def test_batch_actions_queries_act_batch_once_per_step():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    calls = []
    joint = pol.act_batch

    def spy(obs):
        calls.append(obs.shape)
        return joint(obs)

    pol.act_batch = spy
    rollout.target_rewards(env.reset_batch([1, 2, 3]), pol)
    assert calls == [(3, 3, env.spec.obs_dim)] * env.spec.horizon
    t = 10
    prefix = [s.final_actions for s in rollout.run_target_episode(env, 4, pol).steps[:t]]
    calls.clear()
    # the oracle's unmasked suffix asks one row per step, then its branch one
    # joint query per suffix step for all n * rollouts rows
    explain.mc_counterfactual_oracle(pol, env, 4, prefix, rollouts=5)
    suffix = env.spec.horizon - t
    assert calls == ([(1, 3, env.spec.obs_dim)] * suffix
                     + [(15, 3, env.spec.obs_dim)] * suffix)


def test_run_lockstep_leaves_its_start_batch_unchanged():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    start = env.reset_batch([episode_seed(2, "start", i) for i in range(6)])
    before = (start.cells.copy(), start.landmark_cells.copy(), start.door_open.copy(),
              start.observations())
    first = rollout.target_rewards(start, pol)
    assert start.t == 0 and not start.done
    for kept, now in zip(before, (start.cells, start.landmark_cells, start.door_open,
                                  start.observations())):
        assert np.array_equal(kept, now)
    # the scripted team opens the door in place, which a shared start must not see
    opened = []

    def act(batch, obs, prefix):
        opened.append(bool(batch.door_open.any()))
        return pol.act_batch(obs)

    assert np.array_equal(rollout.run_lockstep(start, act)[0], first)
    assert any(opened) and not start.door_open.any()
    batch = env.reset_batch([1, 2])
    batch.step(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="t = 0"):
        rollout.run_lockstep(batch, lambda b, obs, prefix: np.zeros((2, 3), dtype=np.int64))
