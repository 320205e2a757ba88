"""CLI: strict configs, exit codes, manifests, command round-trips."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from emai.cli import main
from emai.config import ConfigError, load_config
from emai.ctde import AgentQNet, MonotonicMixer
from emai.envs import make_env
from emai.masking import MaskingPolicy
from emai.rng import stream
from emai.target import LearnedPolicy, save_checkpoint

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
], ids=["attack-noise_eps", "eval-fidelity-episodes", "patch-quantile",
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
