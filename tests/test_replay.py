"""Replay records: capture, serialization round-trips, strict parsing, rendering."""
from __future__ import annotations

import numpy as np
import pytest

from emai import replay
from emai.envs import make_env
from emai.replay import EpisodeRecord, ReplayError, parse, record, render, serialize
from emai.rollout import Step, run_target_episode
from emai.target import scripted_policy


def _keycorridor_trace(seed=0, with_importance=True):
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    trace = run_target_episode(env, seed, pol)
    if with_importance:
        for step in trace.steps:
            imp = np.zeros(3)
            imp[0] = 1.0 if step.state[6] < 0 else 0.2  # agent 0 pre-switch
            step.importance = imp
    return env, trace


def _make_record(seed=0, with_importance=True):
    env, trace = _keycorridor_trace(seed, with_importance)
    return record(trace.steps, env.name, env.params, seed,
                  target_id="scripted:keycorridor", explainer_id="test")


def test_empty_episode_record():
    rec = record([], "keycorridor", {"horizon": 30}, 0)
    assert rec.steps == [] and rec.reward_sum == 0.0
    assert parse(serialize(rec)) == rec


def test_roundtrip_equality():
    rec = _make_record()
    assert parse(serialize(rec)) == rec


def test_roundtrip_preserves_nine_significant_digits():
    step = Step(0, np.array([0.123456789123]), np.array([[0.987654321987]]),
                [1], None, [1], 0.111111111111)
    rec = record([step], "diagnostic", {"grid": 5}, 3)
    back = parse(serialize(rec))
    assert back.steps[0].state[0] == float("0.123456789")
    assert back.steps[0].reward == float("0.111111111")


def test_mid_episode_stream_rejected():
    steps = [Step(1, np.zeros(2), np.zeros((2, 2)), [0, 0], None, [0, 0], 0.0)]
    with pytest.raises(ReplayError):
        record(steps, "diagnostic", {}, 0)


def test_header_reward_mismatch_rejected():
    text = serialize(_make_record())
    lines = text.splitlines()
    header = lines[0].replace('"reward_sum": ', '"reward_sum": 99')
    assert header != lines[0]
    with pytest.raises(ReplayError, match="inconsistent"):
        parse("\n".join([header] + lines[1:]))


def test_truncated_file_names_last_good_line():
    text = serialize(_make_record())
    lines = text.splitlines()
    truncated = "\n".join(lines[:10])
    with pytest.raises(ReplayError, match="last good line 10"):
        parse(truncated)


def test_malformed_line_names_line_number():
    text = serialize(_make_record())
    lines = text.splitlines()
    lines[3] = lines[3][:-5]  # chop mid-object
    with pytest.raises(ReplayError, match="line 4"):
        parse("\n".join(lines))


def test_unknown_version_rejected():
    text = serialize(_make_record())
    bumped = text.replace('"v": 1', '"v": 2', 1)
    with pytest.raises(ReplayError, match="version"):
        parse(bumped)


def test_render_csv_shape():
    rec = _make_record()
    lines = render(rec, mode="csv").strip().splitlines()
    assert lines[0] == "t,agent,importance,masked"
    assert len(lines) - 1 == len(rec.steps) * rec.n_agents


def test_render_ascii_marks_agent0_pre_switch():
    rec = _make_record()
    text = render(rec, mode="ascii")
    # during pre-switch steps agent 0 carries the star
    assert "0*" in text
    first_block = text.split("t=1 ")[0]
    assert "0*" in first_block and "1*" not in first_block and "2*" not in first_block


def test_render_tie_marks_lowest_index():
    env, trace = _keycorridor_trace(with_importance=False)
    for step in trace.steps:
        step.importance = np.ones(3)  # all equal
    rec = record(trace.steps, env.name, env.params, 0)
    text = render(rec, mode="ascii")
    assert "0*" in text and "1*" not in text and "2*" not in text


def test_render_is_pure():
    rec = _make_record()
    assert render(rec, "ascii") == render(rec, "ascii")
    assert render(rec, "csv") == render(rec, "csv")


def test_render_spread_grid_contains_landmarks():
    env = make_env("spread", n_agents=3, grid=6)
    pol = scripted_policy(env)
    trace = run_target_episode(env, 4, pol)
    rec = record(trace.steps, env.name, env.params, 4)
    text = render(rec, "ascii")
    assert "L" in text


def test_serialized_header_carries_consistency_fields():
    import json
    rec = _make_record()
    header = json.loads(serialize(rec).splitlines()[0])
    assert header["v"] == 1
    assert header["n_steps"] == len(rec.steps)
    assert header["reward_sum"] == pytest.approx(sum(s.reward for s in rec.steps))


@pytest.mark.parametrize("key", ["env_name", "env_params", "seed", "target_id",
                                 "explainer_id", "n_agents", "n_steps", "reward_sum"])
def test_header_missing_field_rejected(key):
    import json
    lines = serialize(_make_record()).splitlines()
    header = json.loads(lines[0])
    del header[key]
    with pytest.raises(ReplayError, match=key):
        parse("\n".join([json.dumps(header)] + lines[1:]))


@pytest.mark.parametrize("header", ['[1]', '{"v": 1, "env_name": "keycorridor", '
                                    '"env_params": {}, "seed": 0, "target_id": "", '
                                    '"explainer_id": "", "n_agents": 3, "n_steps": "x", '
                                    '"reward_sum": 0.0}'])
def test_header_malformed_rejected(header):
    with pytest.raises(ReplayError, match="line 1"):
        parse(header + "\n")


@pytest.mark.parametrize("field, value", [("reward", "x"), ("reward", True), ("t", 1.5),
                                          ("state", ["a"]), ("observations", [1.0]),
                                          ("target_actions", [0.5]), ("final_actions", None),
                                          ("mask_actions", [True]), ("importance", "high")])
def test_ill_typed_step_field_rejected(field, value):
    import json
    lines = serialize(_make_record()).splitlines()
    step = json.loads(lines[2])
    step[field] = value
    with pytest.raises(ReplayError, match=rf"line 3 .*{field}"):
        parse("\n".join(lines[:2] + [json.dumps(step)] + lines[3:]))
