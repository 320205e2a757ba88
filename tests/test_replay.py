"""Replay records: capture, serialization round-trips, strict parsing, rendering."""
from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emai import replay
from emai.cli import main
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


def _blank_steps(env, rewards) -> list[Step]:
    """Steps of env's shapes, every number and action 0, with these rewards."""
    n, spec = env.spec.n_agents, env.spec
    return [Step(t, np.zeros(spec.state_dim), np.zeros((n, spec.obs_dim)), [0] * n, None,
                 [0] * n, reward) for t, reward in enumerate(rewards)]


def test_reward_sum_adds_rewards_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum (Python 3.12's sum())
    # would give 1.0, and the header would then disagree across versions
    steps = _blank_steps(make_env("diagnostic"), [1e16, 1.0, -1e16])
    rec = record(steps, "diagnostic", {}, 0)
    assert rec.reward_sum == 0.0
    assert parse(serialize(rec)) == rec


def test_roundtrip_equality():
    rec = _make_record()
    assert parse(serialize(rec)) == rec


def test_roundtrip_preserves_nine_significant_digits():
    step = _blank_steps(make_env("diagnostic", grid=5), [0.111111111111])[0]
    step.state[0], step.observations[0, 0] = 0.123456789123, 0.987654321987
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


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(v=2), "version"), (lambda h: h.update(v=True), "version"),
    (lambda h: h.update(v=1.0), "version"), (lambda h: h.update(kind="episode"), "version"),
    (lambda h: h.pop("kind"), "version"), (lambda h: h.update(note=""), "keys")],
    ids=["v-2", "v-true", "v-float", "other-kind", "no-kind", "extra-key"])
def test_unknown_version_rejected(tmp_path, edit, message):
    # v is the JSON int 1 (true == 1.0 == 1 in Python), kind is serialize's,
    # and the header holds exactly the keys serialize writes
    lines = serialize(_make_record()).splitlines()
    header = json.loads(lines[0])
    edit(header)
    text = "\n".join([json.dumps(header)] + lines[1:]) + "\n"
    with pytest.raises(ReplayError, match=message):
        parse(text)
    path = tmp_path / "replay.ndjson"
    path.write_text(text, encoding="utf-8")
    assert main(["render", str(path)]) == 5


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


def test_render_pads_every_cell_to_the_widest_agent_index():
    # 12 agents: indices up to 11 plus a mark take 3 characters, so each of
    # the 8 cells of a grid row does, and no two-digit agent shifts its row
    env = make_env("spread", n_agents=12, grid=8)
    trace = run_target_episode(env, 5, scripted_policy(env))
    for step in trace.steps:
        step.importance = np.arange(12.0)  # agent 11 is starred
    text = render(record(trace.steps, env.name, env.params, 5), "ascii")
    lines = text.split("\n")[1:]  # per step: its head line, 8 grid rows, a blank line
    assert len(lines) == 10 * len(trace.steps)
    for t in range(len(trace.steps)):
        head, *grid, gap = lines[10 * t:10 * t + 10]
        assert head.startswith(f"t={t} ") and head.endswith(" critical=11")
        assert [len(line) for line in grid] == [24] * 8 and gap == ""
    assert "11*" in text


def _with_header_env(env_name: str, env_params: dict) -> str:
    env = make_env("spread", n_agents=3, grid=6)
    lines = serialize(record(run_target_episode(env, 4, scripted_policy(env)).steps,
                             env.name, env.params, 4)).splitlines()
    header = json.loads(lines[0])
    header["env_name"], header["env_params"] = env_name, env_params
    return "\n".join([json.dumps(header)] + lines[1:]) + "\n"


@pytest.mark.parametrize("env_name, env_params", [
    ("spread", {"grid": 1000}), ("spread", {"grid": 65}), ("spread", {"grid": 1}),
    ("spread", {"grid": 6.0}), ("spread", {"grid": True}), ("spread", {"colour": 3}),
    ("spread", {"n_agents": 40, "grid": 6}), ("keycorridor", {"grid": 6}), ("maze", {}),
    ("spread", {"horizon": 7.9}), ("spread", {"n_agents": "3"}),
    ("diagnostic", {"zero_reward": "no"}), ("diagnostic", {"inert": [1.0]}),
    ("diagnostic", {"inert": 1}), ("keycorridor", {"horizon": True})],
    ids=["grid-1000", "grid-65", "grid-1", "grid-float", "grid-bool", "unknown-param",
         "too-many-agents", "keycorridor-grid", "unknown-env", "horizon-float",
         "n-agents-string", "zero-reward-string", "inert-float", "inert-int", "horizon-bool"])
def test_header_env_that_does_not_build_or_is_too_wide_rejected(tmp_path, env_name, env_params):
    # render draws rows x cols per step, so the header's grid is bounded; and
    # make_env takes each param only with its JSON type, where the
    # constructors would coerce 7.9 to 7 steps, "3" to 3 agents and "no" to True
    text = _with_header_env(env_name, env_params)
    with pytest.raises(ReplayError, match="line 1: env"):
        parse(text)
    path = tmp_path / "replay.ndjson"
    path.write_text(text, encoding="utf-8")
    assert main(["render", str(path)]) == 5


@pytest.mark.parametrize("grid", [2, 64])
def test_header_grid_at_its_bounds_parses(grid):
    assert parse(_with_header_env("spread", {"grid": grid})).env_params == {"grid": grid}


def test_render_draws_a_header_without_grid_on_the_envs_default_grid():
    env = make_env("diagnostic")  # its default grid is 6
    steps = run_target_episode(env, 2, scripted_policy(env)).steps
    bare = {key: value for key, value in env.params.items() if key != "grid"}
    text = render(parse(serialize(record(steps, env.name, bare, 2))))
    assert text == render(record(steps, env.name, env.params, 2))
    assert [len(line) for line in text.splitlines()[2:9]] == [12] * 6 + [0]


def _zero_step_replay(env_name: str, env_params: dict, n_agents: int) -> str:
    header = {"v": 1, "kind": "episode-record", "env_name": env_name, "env_params": env_params,
              "seed": 0, "target_id": "", "explainer_id": "", "n_agents": n_agents,
              "n_steps": 0, "reward_sum": 0.0}
    return json.dumps(header) + "\n"


def _assert_rejected(tmp_path, text: str, message: str) -> None:
    """parse raises ReplayError matching message, and emai render exits 5."""
    with pytest.raises(ReplayError, match=message):
        parse(text)
    path = tmp_path / "replay.ndjson"
    path.write_text(text, encoding="utf-8")
    assert main(["render", str(path)]) == 5


@pytest.mark.parametrize("make_text", [
    lambda: _with_header_env("spread", {"n_agents": 1024, "grid": 64}),
    lambda: _zero_step_replay("spread", {"n_agents": 4096, "grid": 64}, 4096),
    lambda: _zero_step_replay("diagnostic", {"n_agents": 65}, 65)],
    ids=["3-agent-steps-1024-agent-env", "consistent-4096-agents", "one-past-the-bound"])
def test_header_env_with_other_or_too_many_agents_rejected_unbuilt(tmp_path, monkeypatch,
                                                                   make_text):
    # spread keeps a table of every agent pair (9.5 MB at 1024 agents, 16
    # times that at 4096), so the header's n_agents param is checked first
    text = make_text()

    def unbuilt(*args, **kwargs):
        raise AssertionError("the header env was built")

    monkeypatch.setattr(replay, "make_env", unbuilt)
    _assert_rejected(tmp_path, text, "line 1: env_params n_agents")


def test_header_env_at_the_agent_bound_parses():
    text = _zero_step_replay("spread", {"n_agents": replay.AGENTS_MAX, "grid": 64},
                             replay.AGENTS_MAX)
    assert parse(text).n_agents == replay.AGENTS_MAX


@pytest.mark.parametrize("make_text, message", [
    (lambda: _with_header_env("diagnostic", {"n_agents": 3}), "state_dim 8 or obs_dim 8"),
    (lambda: _zero_step_replay("keycorridor", {}, 4), "n_agents 4 differs"),
    (lambda: _zero_step_replay("spread", {"grid": 5}, 2), "n_agents 2 differs")],
    ids=["spread-steps-in-a-diagnostic-env", "keycorridor-with-4-agents",
         "spread-default-with-2-agents"])
def test_header_or_steps_that_do_not_fit_the_built_env_rejected(tmp_path, make_text, message):
    _assert_rejected(tmp_path, make_text(), message)


@pytest.mark.parametrize("edit", ["no-importance", "extra-key"])
def test_step_line_with_another_key_set_rejected(tmp_path, edit):
    # rollout.Step defaults importance to None, so parse checks each line's
    # keys before it builds a Step
    lines = serialize(_make_record()).splitlines()
    step = json.loads(lines[2])
    if edit == "no-importance":
        del step["importance"]
    else:
        step["note"] = 0
    text = "\n".join(lines[:2] + [json.dumps(step)] + lines[3:]) + "\n"
    _assert_rejected(tmp_path, text, r"line 3 .*step keys")


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


@pytest.mark.parametrize("field, value", [
    ("n_steps", True), ("n_steps", 30.5), ("n_steps", "30"), ("seed", "4"), ("seed", 4.0),
    ("n_agents", True), ("n_agents", 3.5), ("reward_sum", "0.1"), ("reward_sum", False),
    ("reward_sum", 10 ** 400), ("env_name", 1), ("target_id", None), ("explainer_id", ["test"]),
    ("env_params", [])])
def test_ill_typed_header_field_rejected(field, value):
    # int() would read true as 1 and "4" as 4, and truncate 30.5; the header
    # types its fields as strictly as each step does
    import json
    lines = serialize(_make_record()).splitlines()
    header = json.loads(lines[0])
    header[field] = value
    with pytest.raises(ReplayError, match=rf"line 1: ill-typed header fields \['{field}'\]"):
        parse("\n".join([json.dumps(header)] + lines[1:]))


def test_header_ints_and_int_reward_sum_parse_as_before():
    import json
    rec = _make_record()
    lines = serialize(rec).splitlines()
    assert parse("\n".join(lines)) == rec
    header = json.loads(lines[0])
    header["reward_sum"] = round(header["reward_sum"])  # a JSON int is a number too
    steps = [json.loads(line) for line in lines[1:]]
    for step in steps:
        step["reward"] = 0
    steps[0]["reward"] = header["reward_sum"]
    parsed = parse("\n".join(json.dumps(doc) for doc in [header, *steps]))
    assert parsed.reward_sum == float(header["reward_sum"])
    assert isinstance(parsed.reward_sum, float) and parsed.seed == rec.seed


@pytest.mark.parametrize("field, value", [("reward", "x"), ("reward", True), ("t", 1.5),
                                          ("state", ["a"]), ("observations", [1.0]),
                                          ("target_actions", [0.5]), ("final_actions", None),
                                          ("mask_actions", [True]), ("importance", "high"),
                                          ("reward", float("nan")), ("reward", float("-inf")),
                                          ("final_actions", [0, 99, 0]),
                                          ("target_actions", [0, -1, 0]),
                                          ("final_actions", [0, 5, 0]),
                                          ("target_actions", [True, 0, 0]),
                                          ("mask_actions", [0, 2, -1]),
                                          ("mask_actions", [0, 2, 0]),
                                          ("mask_actions", [0, -1, 1])])
def test_ill_typed_step_field_rejected(field, value):
    import json
    lines = serialize(_make_record()).splitlines()
    step = json.loads(lines[2])
    step[field] = value
    with pytest.raises(ReplayError, match=rf"line 3 .*{field}"):
        parse("\n".join(lines[:2] + [json.dumps(step)] + lines[3:]))


@pytest.mark.parametrize("item", [True, "0.5", [0.5], float("nan"), float("inf")],
                         ids=["bool", "string", "nested-list", "nan", "infinity"])
@pytest.mark.parametrize("field", ["state", "observations", "importance"])
def test_ill_typed_number_inside_a_step_list_rejected(field, item):
    import json
    lines = serialize(_make_record()).splitlines()
    step = json.loads(lines[2])
    numbers = step[field][1] if field == "observations" else step[field]
    numbers[1] = item
    with pytest.raises(ReplayError, match=rf"line 3 .*ill-typed step fields \['{field}'\]"):
        parse("\n".join(lines[:2] + [json.dumps(step)] + lines[3:]))
    # ints and floats both pass, as the serializer may print either
    numbers[1] = 1
    parse("\n".join(lines[:2] + [json.dumps(step)] + lines[3:]))


@pytest.mark.parametrize("line, field, literal", [
    (0, "reward_sum", "NaN"), (0, "reward_sum", "-Infinity"), (0, "seed", "1e400"),
    (2, "reward", "1" + "0" * 400), (2, "state", "[0.5, 1e400]"),
    (2, "observations", "[[0.5], [-1e400]]")],
    ids=["nan-reward-sum", "infinite-reward-sum", "overflowing-seed", "huge-int-reward",
         "overflowing-state", "overflowing-observation"])
def test_non_finite_number_rejected(line, field, literal):
    # json.loads reads NaN, Infinity and 1e400 as non-finite floats, and a
    # 401-digit int overflows a float
    import json
    lines = serialize(_make_record()).splitlines()
    doc = json.loads(lines[line])
    doc[field] = "?"
    lines[line] = json.dumps(doc).replace('"?"', literal)
    with pytest.raises(ReplayError):
        parse("\n".join(lines))


@pytest.mark.parametrize("edit", ["header-n-agents", "short-importance", "long-actions"])
def test_per_agent_field_disagreeing_with_header_rejected(edit):
    import json
    lines = serialize(_make_record()).splitlines()
    header, step = json.loads(lines[0]), json.loads(lines[3])
    if edit == "header-n-agents":
        header["n_agents"] = 5
    elif edit == "short-importance":
        step["importance"] = step["importance"][:2]
    else:
        step["final_actions"].append(0)
    lines[0], lines[3] = json.dumps(header), json.dumps(step)
    with pytest.raises(ReplayError, match="per-agent field"):
        parse("\n".join(lines))


@pytest.mark.parametrize("env_name", ["keycorridor", "spread"])
def test_render_rejects_a_state_too_short_for_the_agents(env_name):
    rec = _make_record()
    rec.env_name = env_name
    width = 2 * rec.n_agents + (env_name == "keycorridor")
    for step in rec.steps:
        step.state = step.state[:width - 1]
    with pytest.raises(ReplayError, match="state_dim"):  # parse holds it to the header env's
        parse(serialize(rec))
    with pytest.raises(ReplayError, match=f"at least {width} entries"):
        render(rec, "ascii")
    render(rec, "csv")  # reads no state


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


# finite floats, weighted towards signed zeros, subnormals, the ends of the
# float range and values that repeat within and across steps
_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.1, -0.75, 1e300]),
    st.floats(min_value=1e-320, max_value=1e-300) | st.floats(min_value=1e299, max_value=1e301))


@st.composite
def _steps(draw, env=None):
    """Steps of env's shapes, or of small random ones without an env."""
    if env is None:
        n, obs_dim, state_dim = (draw(st.integers(1, 3)), draw(st.integers(0, 4)),
                                 draw(st.integers(1, 5)))
    else:
        n, obs_dim, state_dim = env.spec.n_agents, env.spec.obs_dim, env.spec.state_dim
    pool = draw(st.lists(_finite_floats, min_size=1, max_size=8))
    value = st.sampled_from(pool) | _finite_floats
    steps = []
    for t in range(draw(st.integers(0, 5))):
        action = st.integers(0, 4)
        masked = draw(st.booleans())
        steps.append(Step(
            t, np.array(draw(st.lists(value, min_size=state_dim, max_size=state_dim))),
            np.array(draw(st.lists(value, min_size=n * obs_dim, max_size=n * obs_dim)))
            .reshape(n, obs_dim),
            draw(st.lists(action, min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) if masked else None,
            draw(st.lists(action, min_size=n, max_size=n)),
            draw(value),
            np.array(draw(st.lists(value, min_size=n, max_size=n)))
            if draw(st.booleans()) else None))
    return steps


@settings(max_examples=200, deadline=None)
@given(_steps())
def test_record_rounds_like_the_element_by_element_reference(steps):
    ref = replay._round9
    rec = record(steps, "diagnostic", {"grid": 5}, 3)
    assert len(rec.steps) == len(steps)
    for got, step in zip(rec.steps, steps):
        assert _bits(got.state) == _bits([ref(v) for v in step.state])
        assert len(got.observations) == len(step.observations)
        for got_row, row in zip(got.observations, step.observations):
            assert _bits(got_row) == _bits([ref(v) for v in row])
        assert _bits([got.reward]) == _bits([ref(step.reward)])
        if step.importance is None:
            assert got.importance is None
        else:
            assert _bits(got.importance) == _bits([ref(v) for v in step.importance])
        assert all(type(v) is float for v in [*got.state, got.reward, *sum(got.observations, [])])
        assert (got.target_actions, got.mask_actions, got.final_actions) == \
            (step.target_actions, step.mask_actions, step.final_actions)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 3))
def test_parse_inverts_serialize_on_random_records(data, n):
    # a reward_sum that overflows to infinity is no finite JSON number, so
    # such a record is rejected, never misread
    env = make_env("diagnostic", n_agents=n, grid=5)
    rec = record(data.draw(_steps(env)), env.name, env.params, 3)
    text = serialize(rec)
    if not np.isfinite(rec.reward_sum):
        with pytest.raises(ReplayError):
            parse(text)
        return
    back = parse(text)
    assert back == rec
    for got, want in zip(back.steps, rec.steps):
        assert _bits(got.state + sum(got.observations, []) + [got.reward]) == \
            _bits(want.state + sum(want.observations, []) + [want.reward])
        assert got.importance == want.importance is None or \
            _bits(got.importance) == _bits(want.importance)
