"""Round-trip and rejection properties of the checkpoint, replay and config
parsers.

Every checkpoint and config a writer produces parses back to the same
document (tests/test_replay.py holds the replay round trips), and every
document broken in one place is rejected with the documented error and CLI
exit code: 5 for a masking or ctde checkpoint or a replay, 2 for a run config.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emai import ctde, replay
from emai.cli import main
from emai.config import _NULLABLE, DEFAULT_CONFIG, ConfigError, load_config
from emai.ctde import AgentQNet, MonotonicMixer
from emai.envs import make_env
from emai.masking import MaskingPolicy
from emai.rollout import run_target_episode
from emai.target import scripted_policy

_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, -0.75]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


def _text(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# ---- checkpoints ----

@st.composite
def _nets(draw, n_actions: int | None = None, with_mixer: bool = True):
    """(net, mixer or None) of small random sizes and edge-case weights."""
    n_agents, obs_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 5)) if n_actions is None else n_actions
    net = AgentQNet(obs_dim, n_agents, n_actions, (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    mixer = None
    if with_mixer:
        mixer = MonotonicMixer(n_agents, draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                               hyper_hidden=draw(st.integers(1, 3)))
    pool = draw(st.lists(_finite_floats, min_size=1, max_size=4))
    for p in net.params() + ([] if mixer is None else mixer.params()):
        p.data[...] = draw(arrays(np.float64, p.data.shape,
                                  elements=st.sampled_from(pool) | _finite_floats))
    return net, mixer


@st.composite
def _ctde_docs(draw):
    net, mixer = draw(_nets(with_mixer=draw(st.booleans())))
    return ctde.checkpoint_doc(net, mixer, None, draw(st.integers(0, 10**9)))


@st.composite
def _masking_docs(draw):
    net, mixer = draw(_nets(n_actions=2))
    scalars = [draw(st.floats(0.0, 1e6)), draw(st.floats(0.0, 1e6)), draw(st.floats(0.0, 1.0)),
               draw(_finite_floats), draw(st.floats(0.0, 1e6))]
    policy = MaskingPolicy(net, mixer, *scalars, draw(st.text(max_size=8)))
    return policy.to_doc(None, draw(st.integers(0, 10**9)))


@settings(max_examples=60, deadline=None)
@given(_ctde_docs())
def test_ctde_checkpoint_round_trips(doc):
    text = _text(doc)
    net, mixer = ctde.load_checkpoint_doc(json.loads(text))
    assert _text(ctde.checkpoint_doc(net, mixer, None, doc["training_step"])) == text


@settings(max_examples=60, deadline=None)
@given(_masking_docs())
def test_masking_checkpoint_round_trips(doc):
    text = _text(doc)
    policy = MaskingPolicy.from_doc(json.loads(text))
    assert _text(policy.to_doc(None, doc["ctde"]["training_step"])) == text


def _nodes(node, path=()):
    """(path, value) of node and of every value below it; the inside of
    env_params, which the env validates, is left out."""
    yield path, node
    if isinstance(node, dict) and path[-1:] != ("env_params",):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _wrong_values(value) -> list:
    """JSON values of another kind than `value`'s; a float's include an int
    that no float can hold."""
    if type(value) in (int, float):
        wrong = ["1", True, None, [1], {}, float("nan"), float("inf")]
        return wrong + [10**400] if type(value) is float else wrong
    if isinstance(value, str):
        return [1, True, None, [value], {}]
    if isinstance(value, list):
        return ["x", 1, None, {}]
    return ["x", 1, [], {}] if value is None else ["x", 1, None, []]


@st.composite
def _broken(draw, docs, nullable: frozenset = frozenset()):
    """A valid document broken in one place: a key dropped or added, or a
    value replaced by one of another kind (non-finite numbers included); a
    key in `nullable` is never set to null."""
    doc = draw(docs)
    nodes = list(_nodes(doc))[1:]
    structure = [(path, value) for path, value in nodes if "values" not in path]
    path, value = draw(st.sampled_from(structure) | st.sampled_from(nodes))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    how = draw(st.sampled_from(["drop", "add", "retype"]))
    if how == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    elif how == "add" and isinstance(value, dict) and path[-1] != "env_params":
        value["extra"] = 0
    else:
        wrong = _wrong_values(value)
        if path[-1] in nullable:
            wrong = [v for v in wrong if v is not None]
        parent[path[-1]] = draw(st.sampled_from(wrong))
    return doc


def _cli_exit(workdir, section: dict) -> int:
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"env": {"name": "keycorridor", "params": {}},
                               "eval": {"episodes": 2}, **section}), encoding="utf-8")
    return main(["eval-fidelity", "--config", str(cfg), "--out", str(workdir / "out")])


@settings(max_examples=100, deadline=None)
@given(_broken(_ctde_docs()))
def test_broken_ctde_checkpoint_rejected_exit_5(workdir, doc):
    with pytest.raises(ValueError):
        ctde.load_checkpoint_doc(doc)
    path = workdir / "ctde.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _cli_exit(workdir, {"target": {"kind": "learned", "checkpoint": str(path)}}) == 5


@settings(max_examples=100, deadline=None)
@given(_broken(_masking_docs()))
def test_broken_masking_checkpoint_rejected_exit_5(workdir, doc):
    with pytest.raises(ValueError):
        MaskingPolicy.from_doc(doc)
    path = workdir / "masking.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _cli_exit(workdir, {"explainer": {"kind": "emai", "checkpoint": str(path)}}) == 5


@pytest.mark.parametrize("size", [float("inf"), float("nan"), -3, 0, 2.5, True])
def test_checkpoint_with_a_bad_hidden_size_rejected_exit_5(workdir, size):
    # the net is built from the layer sizes before its weights are read; an
    # infinite size once raised OverflowError, a traceback at the CLI
    doc = ctde.checkpoint_doc(AgentQNet(13, 3, 5, (4, 4)), None, None, 0)
    doc["agent_net"]["mlp"]["layer_sizes"][1] = size
    with pytest.raises(ValueError):
        ctde.load_checkpoint_doc(doc)
    path = workdir / "ctde.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _cli_exit(workdir, {"target": {"kind": "learned", "checkpoint": str(path)}}) == 5


_HUGE = 10**9


BENCH_CHECKPOINT = (Path(__file__).resolve().parents[1]
                    / "bench" / "checkpoints" / "keycorridor_default.json")


def _set_size(sizes: list, i: int) -> None:
    sizes[i] = _HUGE


@pytest.mark.parametrize("kind,breakage", [
    pytest.param("learned", lambda d: _set_size(d["agent_net"]["mlp"]["layer_sizes"], 1),
                 id="learned-hidden"),
    pytest.param("learned", lambda d: d["agent_net"].update(obs_dim=_HUGE), id="learned-obs-dim"),
    pytest.param("emai", lambda d: _set_size(d["ctde"]["agent_net"]["mlp"]["layer_sizes"], 2),
                 id="masking-hidden"),
    pytest.param("emai", lambda d: _set_size(d["ctde"]["mixer"]["hyper_w1"]["layer_sizes"], 1),
                 id="mixer-hyper-hidden"),
    pytest.param("emai", lambda d: d["ctde"]["mixer"].update(embed_dim=_HUGE),
                 id="mixer-embed-dim"),
    pytest.param("emai", lambda d: d["ctde"]["mixer"].update(state_dim=_HUGE),
                 id="mixer-state-dim"),
])
def test_checkpoint_declaring_a_huge_size_rejected_before_building_exit_5(workdir, kind,
                                                                           breakage):
    # each declared size is checked against the param entries before any net
    # is built, so a document that declares a huge net allocates less than
    # its own size before it is rejected
    doc = (ctde.checkpoint_doc(AgentQNet(13, 3, 5, (64, 64)), None, None, 0)
           if kind == "learned" else json.loads(BENCH_CHECKPOINT.read_text(encoding="utf-8")))
    breakage(doc)
    text = json.dumps(doc)
    parse = ctde.load_checkpoint_doc if kind == "learned" else MaskingPolicy.from_doc
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            parse(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text), (peak, len(text))
    path = workdir / f"{kind}-huge.json"
    path.write_text(text, encoding="utf-8")
    section = ({"target": {"kind": "learned", "checkpoint": str(path)}} if kind == "learned"
               else {"explainer": {"kind": "emai", "checkpoint": str(path)}})
    start = time.perf_counter()
    assert _cli_exit(workdir, section) == 5
    assert time.perf_counter() - start < 1.0


# ---- replays ----

@st.composite
def _replay_docs(draw):
    """The lines of a serialized replay of a short scripted episode, parsed
    back to JSON documents; each step has importance and mask bits or null."""
    env = make_env(draw(st.sampled_from(["keycorridor", "spread", "diagnostic"])),
                   horizon=draw(st.integers(1, 4)))
    seed, n = draw(st.integers(0, 2**32 - 1)), env.spec.n_agents
    steps = run_target_episode(env, seed, scripted_policy(env)).steps
    for step in steps:
        if draw(st.booleans()):
            step.importance = np.array(draw(st.lists(_finite_floats, min_size=n, max_size=n)))
        if draw(st.booleans()):
            step.mask_actions = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    rec = replay.record(steps, env.name, env.params, seed, draw(st.text(max_size=4)),
                        draw(st.text(max_size=4)))
    return [json.loads(line) for line in replay.serialize(rec).splitlines()]


@settings(max_examples=150, deadline=None)
@given(_broken(_replay_docs(), nullable=frozenset({"importance", "mask_actions"})))
def test_broken_replay_rejected_exit_5(workdir, docs):
    # _nodes leaves out the inside of env_params, whose types make_env checks
    # (tests/test_replay.py): a param dropped there is the env's default
    text = "\n".join(map(json.dumps, docs)) + "\n"
    with pytest.raises(replay.ReplayError):
        replay.parse(text)
    path = workdir / "replay.ndjson"
    path.write_text(text, encoding="utf-8")
    assert main(["render", str(path)]) == 5


# ---- run configs ----

def _leaves(defaults: dict = DEFAULT_CONFIG, path=()):
    """(path, default) of every config key that holds a value."""
    for key, default in defaults.items():
        if isinstance(default, dict) and path + (key,) != ("env", "params"):
            yield from _leaves(default, path + (key,))
        else:
            yield path + (key,), default


_LEAVES = dict(_leaves())
_PATHS = {("target", "checkpoint"), ("explainer", "checkpoint")}  # must name a file


def _valid_values(path: tuple, default):
    """Values of the key's type; the path keys name this file or nothing."""
    if path in _PATHS:
        return st.sampled_from([None, __file__])
    if path == ("env", "params"):
        return st.dictionaries(st.text(max_size=4), st.integers(), max_size=3)
    kind = _NULLABLE.get(path) or type(default)
    values = {bool: st.booleans(), int: st.integers(-10**9, 10**9), str: st.text(max_size=8),
              float: st.integers(-10**9, 10**9) | _finite_floats,
              list: st.lists(st.integers(-100, 100), max_size=3)}[kind]
    return values | st.none() if path in _NULLABLE else values


def _wrong_config_values(path: tuple, default) -> list:
    kind = _NULLABLE.get(path) or type(default)
    wrong = {bool: [0, 1, "true", [True]], int: ["1", 1.5, True, [1], {}],
             float: ["1", True, [1.0], {}, 10**400], str: [1, True, ["a"], {}],
             list: ["x", 5, [1.5], ["a"], [True], {}]}[kind]
    return wrong if path in _NULLABLE else wrong + [None]


@st.composite
def _configs(draw):
    """A config document setting a random subset of the keys."""
    doc: dict = {}
    for path in draw(st.lists(st.sampled_from(sorted(_LEAVES)), unique=True, max_size=8)):
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(_valid_values(path, _LEAVES[path]))
    return doc


def _at(cfg: dict, path: tuple):
    for key in path:
        cfg = cfg[key]
    return cfg


@settings(max_examples=150, deadline=None)
@given(_configs(), st.data())
def test_config_round_trips_through_file_and_set(workdir, doc, data):
    path = workdir / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(path)
    for leaf, default in _LEAVES.items():
        try:
            want = _at(doc, leaf)
        except KeyError:
            want = default
        assert _at(cfg, leaf) == want and type(_at(cfg, leaf)) is type(want), leaf
    leaf = data.draw(st.sampled_from(sorted(_LEAVES)))
    value = data.draw(_valid_values(leaf, _LEAVES[leaf]))
    cfg = load_config(None, [f"{'.'.join(leaf)}={json.dumps(value)}"])
    assert _at(cfg, leaf) == value and type(_at(cfg, leaf)) is type(value)


_FLOAT_KEYS = sorted(path for path, default in _LEAVES.items()
                     if (_NULLABLE.get(path) or type(default)) is float)


@pytest.mark.parametrize("path", _FLOAT_KEYS, ids=".".join)
def test_float_key_holding_an_int_that_no_float_can_hold_exit_2(workdir, path):
    # such an int passed the loader and raised OverflowError in the command
    override = f"{'.'.join(path)}={10**400}"
    with pytest.raises(ConfigError, match=".".join(path)):
        load_config(None, [override])
    assert main(["explain", "--set", override, "--out", str(workdir / "out")]) == 2


@st.composite
def _broken_configs(draw):
    """A valid config broken in one place: an unknown key, or a value of
    another type (a section replaced by a non-object)."""
    doc = draw(_configs())
    if draw(st.booleans()):
        sections = [()] + [(k,) for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict)]
        section = draw(st.sampled_from(sections))
        node = doc
        for key in section:
            node = node.setdefault(key, {})
        node["extra_" + draw(st.text(max_size=4))] = draw(st.integers() | st.text(max_size=4))
        return doc
    # env.params takes any object: the env, not the loader, checks its keys
    sections = [(k,) for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict)]
    path = draw(st.sampled_from(sorted(set(_LEAVES) - {("env", "params")}) + sections))
    wrong = (["x", 1, [], None] if path in sections
             else _wrong_config_values(path, _LEAVES[path]))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = draw(st.sampled_from(wrong))
    return doc


@settings(max_examples=150, deadline=None)
@given(_broken_configs())
def test_broken_config_rejected_exit_2(workdir, doc):
    path = workdir / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["explain", "--config", str(path), "--out", str(workdir / "out")]) == 2
