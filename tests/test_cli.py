"""CLI: strict configs, exit codes, manifests, command round-trips."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from emai import replay
from emai.cli import main
from emai.config import ConfigError, load_config
from emai.ctde import AgentQNet, MonotonicMixer
from emai.envs import make_env
from emai.explain import ExplainContext, make_explainer
from emai.masking import MaskingPolicy
from emai.rng import episode_seeds, stream
from emai.rollout import run_target_episode
from emai.target import LearnedPolicy, load_checkpoint, save_checkpoint, scripted_policy

FAST_EMAI = {
    "seed": 5,
    "env": {"name": "diagnostic", "params": {"n_agents": 3, "grid": 5, "horizon": 6}},
    "emai": {"steps": 250, "beta": 0.05, "lambda": 0.0, "baseline_episodes": 5},
    "training": {"batch_episodes": 4, "buffer_episodes": 40, "hidden": [16, 16],
                 "epsilon_anneal_steps": 200},
    "eval": {"episodes": 12, "harvest_episodes": 10, "explain_episodes": 2},
}


def _write_cfg(tmp_path: Path, cfg: dict, name="cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def test_unknown_key_rejected_exit_2(tmp_path):
    cfg = _write_cfg(tmp_path, {"sed": 1})
    assert main(["train-emai", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_nested_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="emai.betta"):
        load_config(_write_cfg(tmp_path, {"emai": {"betta": 1}}))


def test_missing_config_exit_3(tmp_path):
    assert main(["train-emai", "--config", str(tmp_path / "nope.json")]) == 3


def test_missing_checkpoint_exit_3(tmp_path):
    cfg = _write_cfg(tmp_path, {"target": {"kind": "learned",
                                           "checkpoint": str(tmp_path / "missing.json")}})
    assert main(["eval-fidelity", "--config", str(cfg)]) == 3


def test_whitebox_explainer_on_scripted_exit_5(tmp_path):
    cfg = dict(FAST_EMAI)
    cfg = json.loads(json.dumps(cfg))
    cfg["explainer"] = {"kind": "value"}
    path = _write_cfg(tmp_path, cfg)
    assert main(["eval-fidelity", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 5


def test_render_missing_file_exit_3(tmp_path):
    assert main(["render", str(tmp_path / "nothing.ndjson")]) == 3


def test_render_malformed_replay_exit_5(tmp_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"v": 9}\n', encoding="utf-8")
    assert main(["render", str(bad)]) == 5


def test_train_emai_then_eval_fidelity_roundtrip(tmp_path):
    cfg_path = _write_cfg(tmp_path, FAST_EMAI)
    train_out = tmp_path / "train"
    assert main(["train-emai", "--config", str(cfg_path), "--out", str(train_out)]) == 0
    ckpt = train_out / "masking_checkpoint.json"
    assert ckpt.exists()
    manifest = _manifest(train_out)
    assert "masking_checkpoint.json" in manifest["files"]
    assert set(manifest["files"]) == {"masking_checkpoint.json", "emai_curve.csv"}

    eval_cfg = json.loads(json.dumps(FAST_EMAI))
    eval_cfg["explainer"] = {"kind": "emai", "checkpoint": str(ckpt)}
    eval_path = _write_cfg(tmp_path, eval_cfg, "eval.json")
    eval_out = tmp_path / "eval"
    assert main(["eval-fidelity", "--config", str(eval_path),
                 "--out", str(eval_out)]) == 0
    report = json.loads((eval_out / "fidelity.json").read_text())
    assert report["episodes"] == 12
    assert (eval_out / "fidelity.csv").exists()


def test_explain_and_render_commands(tmp_path):
    cfg_path = _write_cfg(tmp_path, FAST_EMAI)
    out = tmp_path / "explain"
    assert main(["explain", "--config", str(cfg_path), "--out", str(out),
                 "--set", "eval.explain_episodes=2"]) == 0
    replays = sorted(out.glob("episode_*.ndjson"))
    assert len(replays) == 2
    rendered = tmp_path / "render.txt"
    assert main(["render", str(replays[0]), "--mode", "ascii",
                 "--out", str(rendered)]) == 0
    assert "t=0" in rendered.read_text()
    assert main(["render", str(replays[0]), "--mode", "csv",
                 "--out", str(rendered)]) == 0
    assert rendered.read_text().startswith("t,agent,importance,masked")


def trace_contexts(trace, env):
    """(step, context) for every step of a finished trace of `env`; each
    context's prefix lists the joint actions executed before its step. The
    per-step loop `explain` ran before it scored whole batches, kept as its
    reference."""
    prefix = []
    for step in trace.steps:
        yield step, ExplainContext(step.observations, step.state, step.t, env.name,
                                   env.params, trace.seed, list(prefix))
        prefix.append(list(step.final_actions))


@pytest.mark.parametrize("kind", ["random", "mc_oracle", "value", "gradient"])
def test_explain_importance_equals_per_step_scores(tmp_path, monkeypatch, kind):
    env = make_env("keycorridor")
    cfg = {"seed": 6, "env": {"name": "keycorridor", "params": {}},
           "eval": {"explain_episodes": 3}, "explainer": {"kind": kind, "rollouts": 4}}
    if kind in ("value", "gradient"):  # white-box: a small learned target
        net = AgentQNet(env.spec.obs_dim, 3, env.spec.n_actions, hidden=(16, 16),
                        rng=stream(4, "explain-target"))
        ckpt = tmp_path / "target.json"
        save_checkpoint(LearnedPolicy(net), env, ckpt, training_step=0)
        cfg["target"] = {"kind": "learned", "checkpoint": str(ckpt)}
        target = load_checkpoint(ckpt)
    else:
        target = scripted_policy(env)
    recorded, record = [], replay.record

    def spy(steps, *args, **kwargs):
        recorded.append(steps)
        return record(steps, *args, **kwargs)

    monkeypatch.setattr(replay, "record", spy)
    out = tmp_path / "out"
    assert main(["explain", "--config", str(_write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    explainer = make_explainer(kind, target=target, seed=6, rollouts=4)
    seeds = episode_seeds(6, "explain", 3)
    assert len(recorded) == len(seeds)
    for i, (seed, steps) in enumerate(zip(seeds, recorded)):
        trace = run_target_episode(env, seed, target)
        for step, (ref, ctx) in zip(steps, trace_contexts(trace, env), strict=True):
            ref.importance = explainer.scores(ctx)
            assert step.importance.tobytes() == ref.importance.tobytes(), (kind, i, step.t)
            assert step.state.tobytes() == ref.state.tobytes()
            assert step.observations.tobytes() == ref.observations.tobytes()
            assert ((step.t, step.target_actions, step.mask_actions, step.final_actions,
                     step.reward) == (ref.t, ref.target_actions, ref.mask_actions,
                                      ref.final_actions, ref.reward))
        text = replay.serialize(record(trace.steps, env.name, env.params, seed,
                                       target_id=target.descriptor(), explainer_id=kind))
        assert (out / f"episode_{i:03d}.ndjson").read_text(encoding="utf-8") == text


def test_attack_and_patch_commands(tmp_path):
    cfg = json.loads(json.dumps(FAST_EMAI))
    cfg["env"] = {"name": "keycorridor", "params": {}}
    cfg["eval"]["episodes"] = 10
    cfg["eval"]["harvest_episodes"] = 10
    cfg_path = _write_cfg(tmp_path, cfg)
    attack_out = tmp_path / "attack"
    assert main(["attack", "--config", str(cfg_path), "--out", str(attack_out),
                 "--set", "eval.noise_eps=0.0"]) == 0
    report = json.loads((attack_out / "attack.json").read_text())
    assert report["delta"] == 0.0  # zero-noise identity end to end
    patch_out = tmp_path / "patch"
    assert main(["patch", "--config", str(cfg_path), "--out", str(patch_out)]) == 0
    assert (patch_out / "patch_package.json").exists()
    assert (patch_out / "patch.json").exists()


def test_identical_config_reruns_produce_identical_checksums(tmp_path):
    cfg_path = _write_cfg(tmp_path, FAST_EMAI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train-emai", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["train-emai", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    m_a, m_b = _manifest(out_a), _manifest(out_b)
    assert m_a["files"] == m_b["files"]
    assert m_a["config_sha256"] == m_b["config_sha256"]


def test_removed_workers_key_and_flag_exit_2(tmp_path):
    # every command runs in one process: the worker count is no option any more
    cfg = json.loads(json.dumps(FAST_EMAI))
    cfg["workers"] = 1
    path = _write_cfg(tmp_path, cfg)
    assert main(["eval-fidelity", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert main(["attack", "--set", "workers=2", "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval-fidelity", "--out", str(tmp_path / "o"), "--workers", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_removed_explainer_norm_key_rejected_exit_2(tmp_path):
    cfg = json.loads(json.dumps(FAST_EMAI))
    cfg["explainer"] = {"kind": "random", "norm": "l2"}
    path = _write_cfg(tmp_path, cfg)
    assert main(["eval-fidelity", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_set_override_changes_config(tmp_path):
    cfg_path = _write_cfg(tmp_path, FAST_EMAI)
    cfg = load_config(cfg_path, ["emai.steps=77", "env.name=keycorridor",
                                 "env.params={}"])
    assert cfg["emai"]["steps"] == 77
    assert cfg["env"]["name"] == "keycorridor"


def test_defaults_match_module_ledgers():
    cfg = load_config(None)
    assert cfg["training"]["lr"] == 5e-4
    assert cfg["training"]["stale_interval"] == 200
    assert cfg["training"]["buffer_episodes"] == 2000
    assert cfg["training"]["batch_episodes"] == 32
    assert cfg["emai"]["lambda"] == 1.0
    assert cfg["emai"]["beta_scale"] == 0.02
    assert cfg["emai"]["baseline_episodes"] == 500
    assert cfg["eval"]["episodes"] == 500
    assert cfg["eval"]["noise_eps"] == 0.5
    assert cfg["eval"]["quantile"] == 0.1


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("EMAI_OUT_ROOT", str(tmp_path / "root"))
    cfg_path = _write_cfg(tmp_path, FAST_EMAI)
    assert main(["explain", "--config", str(cfg_path), "--set", "eval.explain_episodes=1"]) == 0
    produced = list((tmp_path / "root").glob("explain-*/episode_000.ndjson"))
    assert len(produced) == 1


def test_removed_diff_loss_mode_key_rejected_exit_2(tmp_path):
    cfg = json.loads(json.dumps(FAST_EMAI))
    cfg["emai"]["diff_loss_mode"] = "qtot"
    path = _write_cfg(tmp_path, cfg)
    assert main(["train-emai", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_removed_mixer_key_rejected_exit_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, FAST_EMAI)
    assert main(["train-emai", "--config", str(path), "--set", "training.mixer=monotonic",
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key 'training.mixer'" in capsys.readouterr().err


def _eval_with(tmp_path, section: dict, ckpt_doc: dict) -> int:
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(ckpt_doc), encoding="utf-8")
    cfg = json.loads(json.dumps(FAST_EMAI))
    cfg.update({k: dict(v, checkpoint=str(ckpt)) for k, v in section.items()})
    return main(["eval-fidelity", "--config", str(_write_cfg(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")])


def _masking_doc() -> dict:
    env = make_env(FAST_EMAI["env"]["name"], **FAST_EMAI["env"]["params"])
    net = AgentQNet(env.spec.obs_dim, env.spec.n_agents, 2, hidden=(4, 4), rng=None)
    mixer = MonotonicMixer(env.spec.n_agents, env.spec.state_dim, 4)
    return MaskingPolicy(net, mixer, beta=0.1, lam=0.0, gamma=0.99, j_pi=0.0,
                         j_pi_stderr=0.0).to_doc(env)


def test_masking_checkpoint_without_beta_exit_5(tmp_path):
    doc = _masking_doc()
    del doc["beta"]
    assert _eval_with(tmp_path, {"explainer": {"kind": "emai"}}, doc) == 5


def test_masking_checkpoint_with_vdn_mixer_exit_5(tmp_path, capsys):
    doc = _masking_doc()
    doc["ctde"].update(mixer_kind="vdn", mixer=None)
    assert _eval_with(tmp_path, {"explainer": {"kind": "emai"}}, doc) == 5
    assert "mixer_kind 'vdn'" in capsys.readouterr().err


def test_learned_target_checkpoint_without_agent_net_exit_5(tmp_path):
    env = make_env(FAST_EMAI["env"]["name"], **FAST_EMAI["env"]["params"])
    net = AgentQNet(env.spec.obs_dim, env.spec.n_agents, env.spec.n_actions,
                    hidden=(4, 4), rng=None)
    save_checkpoint(LearnedPolicy(net), env, tmp_path / "whole.json")
    doc = json.loads((tmp_path / "whole.json").read_text(encoding="utf-8"))
    del doc["agent_net"]
    assert _eval_with(tmp_path, {"target": {"kind": "learned"}}, doc) == 5


# the committed masking checkpoint of the scripted keycorridor target
BENCH_CHECKPOINT = (Path(__file__).resolve().parents[1]
                    / "bench" / "checkpoints" / "keycorridor_default.json")


def _eval_bench_checkpoint(tmp_path, doc: dict, variant: str = "default") -> int:
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    cfg = {"seed": 3, "env": {"name": "keycorridor", "params": {}},
           "target": {"kind": "scripted", "variant": variant},
           "explainer": {"kind": "emai", "checkpoint": str(ckpt)}, "eval": {"episodes": 4}}
    return main(["eval-fidelity", "--config", str(_write_cfg(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")])


def _bench_doc() -> dict:
    return json.loads(BENCH_CHECKPOINT.read_text(encoding="utf-8"))


def test_committed_masking_checkpoint_loads_and_checks_its_target(tmp_path):
    assert _eval_bench_checkpoint(tmp_path, _bench_doc()) == 0
    assert _eval_bench_checkpoint(tmp_path, _bench_doc(), "weakened") == 5


def test_masking_checkpoint_with_empty_target_checksum_exit_5(tmp_path, capsys):
    # an empty checksum matches no target: the target check is never skipped
    doc = _bench_doc()
    doc["target_checksum"] = ""
    assert _eval_bench_checkpoint(tmp_path, doc) == 5
    assert "different target" in capsys.readouterr().err


def _first_value(net_doc: dict, value) -> None:
    net_doc["mlp"]["params"][0]["values"][0] = value


@pytest.mark.parametrize("breakage", [
    pytest.param(lambda d: d.update(note="x"), id="extra-key"),
    pytest.param(lambda d: d.update(v=True), id="v-true"),
    pytest.param(lambda d: d.update(v=1.0), id="v-float"),
    pytest.param(lambda d: d.update(gamma=7.0), id="gamma-7"),
    pytest.param(lambda d: d.update(gamma=True), id="gamma-bool"),
    pytest.param(lambda d: d.update(target_checksum=None), id="checksum-null"),
    pytest.param(lambda d: d.update(target_checksum=7), id="checksum-int"),
    pytest.param(lambda d: d.update(beta="0.004"), id="beta-string"),
    pytest.param(lambda d: d.update({"lambda": False}), id="lambda-bool"),
    pytest.param(lambda d: d.update(j_pi=float("nan")), id="j-pi-nan"),
    pytest.param(lambda d: d.update(j_pi_stderr=-0.1), id="j-pi-stderr-negative"),
    pytest.param(lambda d: d["ctde"].update(v=True), id="ctde-v-true"),
    pytest.param(lambda d: d["ctde"]["agent_net"].update(note="x"), id="agent-net-extra-key"),
    pytest.param(lambda d: d["ctde"]["mixer"].update(note="x"), id="mixer-extra-key"),
    pytest.param(lambda d: d["ctde"]["agent_net"]["mlp"]["params"][0].update(note="x"),
                 id="param-extra-key"),
    pytest.param(lambda d: d["ctde"]["agent_net"]["mlp"]["params"][0].update(name="b7"),
                 id="param-name"),
    pytest.param(lambda d: _first_value(d["ctde"]["agent_net"], "0.5"), id="value-string"),
    pytest.param(lambda d: _first_value(d["ctde"]["agent_net"], True), id="value-bool"),
    pytest.param(lambda d: _first_value(d["ctde"]["agent_net"], float("nan")), id="value-nan"),
    pytest.param(lambda d: _first_value(d["ctde"]["agent_net"], float("inf")), id="value-inf"),
])
def test_malformed_masking_checkpoint_exit_5(tmp_path, breakage):
    doc = _bench_doc()
    breakage(doc)
    assert _eval_bench_checkpoint(tmp_path, doc) == 5


@pytest.mark.parametrize("breakage", [
    pytest.param(lambda d: d.update(v=True), id="v-true"),
    pytest.param(lambda d: d.update(training_step=1.5), id="training-step-float"),
    pytest.param(lambda d: d["agent_net"].update(note="x"), id="agent-net-extra-key"),
    pytest.param(lambda d: d["agent_net"].update(obs_dim=float(d["agent_net"]["obs_dim"])),
                 id="obs-dim-float"),
    pytest.param(lambda d: d["agent_net"]["mlp"].update(note="x"), id="mlp-extra-key"),
    pytest.param(lambda d: d["agent_net"]["mlp"]["params"][1].update(name="w0"), id="param-name"),
    pytest.param(lambda d: _first_value(d["agent_net"], "0.5"), id="value-string"),
    pytest.param(lambda d: _first_value(d["agent_net"], False), id="value-bool"),
    pytest.param(lambda d: _first_value(d["agent_net"], float("nan")), id="value-nan"),
    pytest.param(lambda d: _first_value(d["agent_net"], float("-inf")), id="value-inf"),
])
def test_malformed_learned_target_checkpoint_exit_5(tmp_path, breakage):
    env = make_env(FAST_EMAI["env"]["name"], **FAST_EMAI["env"]["params"])
    net = AgentQNet(env.spec.obs_dim, env.spec.n_agents, env.spec.n_actions,
                    hidden=(4, 4), rng=stream(0, "learned-ckpt"))
    save_checkpoint(LearnedPolicy(net), env, tmp_path / "whole.json")
    doc = json.loads((tmp_path / "whole.json").read_text(encoding="utf-8"))
    assert _eval_with(tmp_path, {"target": {"kind": "learned"}}, doc) == 0
    breakage(doc)
    assert _eval_with(tmp_path, {"target": {"kind": "learned"}}, doc) == 5


def test_render_replay_without_reward_sum_exit_5(tmp_path):
    out = tmp_path / "explain"
    assert main(["explain", "--config", str(_write_cfg(tmp_path, FAST_EMAI)),
                 "--out", str(out), "--set", "eval.explain_episodes=1"]) == 0
    lines = (out / "episode_000.ndjson").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    del header["reward_sum"]
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
    assert main(["render", str(bad)]) == 5


@pytest.mark.parametrize("override", ["training.hidden=16", 'training.hidden=[16,"a"]',
                                      "training.steps=1.5", 'emai.beta="x"',
                                      "eval.attack_all=1", "seed=true",
                                      "target.checkpoint=5"])
def test_ill_typed_config_value_exit_2(tmp_path, override):
    args = ["train-target", "--set", "training.steps=0", "--set", override,
            "--out", str(tmp_path / "o")]
    assert main(args) == 2


@pytest.mark.parametrize("command,overrides,message", [
    ("attack", ["env.name=keycorridor", "env.params={}", "eval.noise_eps=-0.1"],
     "noise_eps must be >= 0"),
    ("attack", ["env.name=keycorridor", "env.params={}", "eval.noise_eps=1e308"],
     "noise_eps must be >= 0 and 2 * noise_eps finite, got 1e+308"),
    ("attack", ["env.name=keycorridor", "env.params={}", "eval.noise_eps=NaN"],
     "noise_eps must be >= 0 and 2 * noise_eps finite, got nan"),
    ("eval-fidelity", ["eval.episodes=0"], "episodes must be >= 1"),
    ("patch", ["eval.quantile=1.5"], "quantile must lie in (0, 1]"),
    ("patch", ["eval.harvest_episodes=3"], "harvest_episodes must be >= 10"),
    ("train-target", ["training.lr=-1"], "learning_rate must be > 0"),
    ("train-emai", ["emai.beta=-1"], "beta and lambda must be >= 0"),
    ("train-target", ["training.steps=50", "training.batch_episodes=0"],
     "batch_episodes must be >= 1"),
    ("train-target", ["training.steps=50", "training.stale_interval=0"],
     "stale_interval must be >= 1"),
    ("train-target", ["training.steps=50", "training.mix_embed=0"], "mix_embed must be >= 1"),
    ("train-target", ["training.steps=50", "training.hidden=[0,16]"],
     "hidden must be two layer sizes >= 1"),
    ("train-target", ["training.steps=50", "training.buffer_episodes=0"],
     "buffer_episodes (0) must be >= batch_episodes (4)"),
    ("train-target", ["training.steps=-5"], "steps must be >= 0"),
    ("explain", ["eval.explain_episodes=-1"], "explain_episodes must be >= 1"),
    ("train-target", ["training.steps=50", "training.gamma=1.5"], "gamma must lie in [0, 1]"),
    ("train-emai", ["emai.gamma=-0.1"], "gamma must lie in [0, 1]"),
    ("train-target", ["training.steps=50", "training.epsilon_start=1.2"],
     "epsilon_start must lie in [0, 1]"),
    ("train-target", ["training.steps=50", "training.epsilon_end=-0.2"],
     "epsilon_end must lie in [0, 1]"),
    ("patch", ["eval.d_th=-1"], "d_th must be >= 0"),
], ids=["attack-noise_eps", "attack-noise_eps-overflow", "attack-noise_eps-nan",
        "eval-fidelity-episodes", "patch-quantile",
        "patch-harvest_episodes", "train-target-lr", "train-emai-beta",
        "train-target-batch_episodes", "train-target-stale_interval",
        "train-target-mix_embed", "train-target-hidden", "train-target-buffer_episodes",
        "train-target-steps", "explain-explain_episodes", "train-target-gamma",
        "train-emai-gamma", "train-target-epsilon_start", "train-target-epsilon_end",
        "patch-d_th"])
def test_rejected_config_value_exit_2(tmp_path, capsys, command, overrides, message):
    # values of the right type that the library rejects are config errors too
    args = [command, "--config", str(_write_cfg(tmp_path, FAST_EMAI)),
            "--out", str(tmp_path / "o")]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("env_name,variant,message", [
    ("spread", "weakened", "exists only for keycorridor"),
    ("keycorridor", "wekened", "unknown scripted variant 'wekened'"),
], ids=["weakened-off-keycorridor", "misspelt"])
def test_bad_target_variant_exit_2(tmp_path, capsys, env_name, variant, message):
    args = ["eval-fidelity", "--set", f"env.name={env_name}", "--set", f"target.variant={variant}",
            "--set", "eval.episodes=2", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("config,overrides,code,message", [
    pytest.param(FAST_EMAI, ["target.kind=bogus"], 2, "unknown target.kind 'bogus'",
                 id="target-kind-unknown"),
    pytest.param(FAST_EMAI, ["target.kind=learned"], 2, "requires target.checkpoint",
                 id="learned-without-checkpoint"),
    pytest.param(FAST_EMAI, ["explainer.kind=emai"], 2, "requires explainer.checkpoint",
                 id="emai-without-checkpoint"),
    pytest.param(FAST_EMAI, ["explainer.kind=bogus"], 2, "unknown explainer kind 'bogus'",
                 id="explainer-kind-unknown"),
    pytest.param("{not json", [], 2, "is not valid JSON", id="config-not-json"),
    pytest.param("[1, 2]", [], 2, "root must be a JSON object", id="config-root-not-object"),
    pytest.param(FAST_EMAI, ["seed"], 2, "must look like section.key=value",
                 id="set-without-equals"),
    pytest.param(FAST_EMAI, ["seed.x=1"], 2, "crosses a non-object", id="set-through-non-object"),
    pytest.param(FAST_EMAI, ["target.kind=learned", "target.checkpoint={tmp}/learned.json",
                             'env.params={"n_agents":2,"grid":5,"horizon":6}'],
                 5, "does not fit env", id="learned-checkpoint-misfit"),
    pytest.param({**FAST_EMAI, "out_dir": "{tmp}/from-config", "target": {"checkpoint": None}},
                 [], 0, "eval-fidelity: wrote", id="null-value-and-config-out-dir"),
])
def test_cli_exit_paths(tmp_path, capsys, config, overrides, code, message):
    # "{tmp}" in the config or an override stands for tmp_path, which holds a
    # learned checkpoint of FAST_EMAI's 3-agent env
    env = make_env(FAST_EMAI["env"]["name"], **FAST_EMAI["env"]["params"])
    net = AgentQNet(env.spec.obs_dim, env.spec.n_agents, env.spec.n_actions,
                    hidden=(4, 4), rng=None)
    save_checkpoint(LearnedPolicy(net), env, tmp_path / "learned.json")
    text = config if isinstance(config, str) else json.dumps(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace("{tmp}", str(tmp_path)), encoding="utf-8")
    args = ["eval-fidelity", "--config", str(cfg), "--set", "eval.episodes=2"]
    for override in overrides:
        args += ["--set", override.replace("{tmp}", str(tmp_path))]
    if "out_dir" not in text:
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == code
    assert message in capsys.readouterr().err
    if code == 0:
        assert (tmp_path / "from-config" / "manifest.json").exists()


def test_env_too_small_for_its_entities_exit_2(tmp_path, capsys):
    args = ["train-emai", "--config", str(_write_cfg(tmp_path, FAST_EMAI)),
            "--set", "env.name=spread", "--set", 'env.params={"n_agents":70,"grid":8}',
            "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "too small for 70 agents" in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())  # rejected before any work


def test_config_types_follow_defaults(tmp_path):
    cfg = load_config(None, ["training.lr=1", "emai.beta=null", "emai.beta=0.5",
                             "eval.d_th=2"])
    assert cfg["training"]["lr"] == 1 and cfg["emai"]["beta"] == 0.5
    for path in sorted(Path(__file__).resolve().parents[1].glob("configs/*.json")):
        load_config(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_emai_numeric_failure_exit_4(tmp_path):
    # the sparsity bonus overflows the TD targets: the loss guard trips
    path = _write_cfg(tmp_path, FAST_EMAI)
    assert main(["train-emai", "--config", str(path), "--set", "emai.beta=1e308",
                 "--out", str(tmp_path / "o")]) == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_emai_on_overflowing_learned_target_exit_4(tmp_path):
    # the target's Q inference overflows in a hidden layer: the pre-activation guard trips
    env = make_env(FAST_EMAI["env"]["name"], **FAST_EMAI["env"]["params"])
    net = AgentQNet(env.spec.obs_dim, env.spec.n_agents, env.spec.n_actions,
                    hidden=(8, 8), rng=stream(1, "overflow-target"))
    for w in net.mlp.weights:
        w.data = w.data * 1e200
    save_checkpoint(LearnedPolicy(net), env, tmp_path / "target.json")
    cfg = json.loads(json.dumps(FAST_EMAI))
    cfg["target"] = {"kind": "learned", "checkpoint": str(tmp_path / "target.json")}
    assert main(["train-emai", "--config", str(_write_cfg(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")]) == 4


def test_render_replay_with_ill_typed_step_exit_5(tmp_path):
    out = tmp_path / "explain"
    assert main(["explain", "--config", str(_write_cfg(tmp_path, FAST_EMAI)),
                 "--out", str(out), "--set", "eval.explain_episodes=1"]) == 0
    lines = (out / "episode_000.ndjson").read_text(encoding="utf-8").splitlines()
    step = json.loads(lines[1])
    step["reward"] = "x"
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join([lines[0], json.dumps(step)] + lines[2:]) + "\n",
                   encoding="utf-8")
    assert main(["render", str(bad)]) == 5
