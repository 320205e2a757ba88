"""The scalar episode loop run_episode: act_fn contract, prefix bookkeeping, isolation."""
from __future__ import annotations

import numpy as np

from emai import rollout
from emai.envs import make_env
from emai.rng import stream
from emai.target import scripted_policy


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

