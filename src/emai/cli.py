"""Command-line entry point wiring the full workflow.

Every command takes one strict JSON config (plus --set overrides), writes
its artifacts under one output directory, and finishes with a manifest
listing the config hash and a checksum for every file written. Identical
config + seed reproduces identical checksums at any --workers count.

Exit codes: 0 ok, 2 config error, 3 missing artifact, 4 numeric failure,
5 incompatibility.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import evaluation, explain as explain_mod, masking, replay, target as target_mod
from .config import (ConfigError, MissingArtifactError, load_config,
                     resolve_out_dir, write_manifest)
from .envs import EnvError, make_env
from .masking import IncompatibilityError, MaskingPolicy
from .nn import NumericsError
from .replay import ReplayError
from .rng import episode_seed
from .rollout import run_target_episode
from .target import CapabilityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4
EXIT_INCOMPATIBLE = 5


def _build_env(cfg: dict):
    try:
        return make_env(cfg["env"]["name"], **cfg["env"]["params"])
    except (EnvError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad env section: {exc}") from exc


def _build_target(cfg: dict, env):
    tcfg = cfg["target"]
    if tcfg["kind"] == "scripted":
        return target_mod.scripted_by_name(env, tcfg.get("variant", "default"))
    if tcfg["kind"] == "learned":
        if not tcfg.get("checkpoint"):
            raise ConfigError("target.kind=learned requires target.checkpoint")
        try:
            policy = target_mod.load_checkpoint(tcfg["checkpoint"])
        except ValueError as exc:
            raise IncompatibilityError(f"{tcfg['checkpoint']}: {exc}") from exc
        if policy.obs_dim != env.spec.obs_dim or policy.n_agents != env.spec.n_agents:
            raise IncompatibilityError(
                f"checkpoint {tcfg['checkpoint']} does not fit env {env.name!r}")
        return policy
    raise ConfigError(f"unknown target.kind {tcfg['kind']!r}")


def _build_explainer(cfg: dict, target):
    ecfg = cfg["explainer"]
    kind = ecfg["kind"]
    policy = None
    if kind == "emai":
        if not ecfg.get("checkpoint"):
            raise ConfigError("explainer.kind=emai requires explainer.checkpoint")
        try:
            policy = MaskingPolicy.load(ecfg["checkpoint"])
        except ValueError as exc:
            raise IncompatibilityError(f"{ecfg['checkpoint']}: {exc}") from exc
        if policy.target_checksum and policy.target_checksum != target.checksum():
            raise IncompatibilityError(
                "masking checkpoint was trained against a different target")
    try:
        return explain_mod.make_explainer(kind, target=target, masking_policy=policy,
                                          seed=cfg["seed"], rollouts=ecfg.get("rollouts", 64))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_curve_csv(path: Path, rows: list[dict]) -> None:
    fields = list(rows[0].keys()) if rows else ["env_steps"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _write_report(out_dir: Path, stem: str, report, metrics: list[tuple]) -> list[Path]:
    """{stem}.json holds report.to_dict(); {stem}.csv one row per (metric, value, stderr)."""
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
    csv_path = out_dir / f"{stem}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["explainer", "env", "metric", "value", "stderr"])
        writer.writerows((report.explainer_id, report.env_name, *row) for row in metrics)
    return [json_path, csv_path]


def cmd_train_target(cfg: dict, out_dir: Path) -> list[Path]:
    env = _build_env(cfg)
    policy, curves = target_mod.train_target(env, cfg["training"], cfg["seed"])
    ckpt = out_dir / "target_checkpoint.json"
    target_mod.save_checkpoint(policy, env, ckpt,
                               training_step=cfg["training"]["steps"])
    curve = out_dir / "train_target_curve.csv"
    _write_curve_csv(curve, curves)
    return [ckpt, curve]


def cmd_train_emai(cfg: dict, out_dir: Path) -> list[Path]:
    env = _build_env(cfg)
    target = _build_target(cfg, env)
    policy, curves = masking.train_emai(target, env, {**cfg["training"], **cfg["emai"]},
                                        seed=cfg["seed"])
    ckpt = out_dir / "masking_checkpoint.json"
    policy.save(ckpt, env=env, training_step=cfg["emai"]["steps"])
    curve = out_dir / "emai_curve.csv"
    _write_curve_csv(curve, curves)
    return [ckpt, curve]


def cmd_explain(cfg: dict, out_dir: Path) -> list[Path]:
    env = _build_env(cfg)
    target = _build_target(cfg, env)
    explainer = _build_explainer(cfg, target)
    files = []
    for i in range(int(cfg["eval"]["explain_episodes"])):
        seed = episode_seed(cfg["seed"], "explain", i)
        trace = run_target_episode(env, seed, target)
        for step, ctx in explain_mod.trace_contexts(trace, env):
            step.importance = explainer.scores(ctx)
        rec = replay.record(trace.steps, env.name, env.params, seed,
                            target_id=target.descriptor(), explainer_id=explainer.kind)
        path = out_dir / f"episode_{i:03d}.ndjson"
        path.write_text(replay.serialize(rec), encoding="utf-8")
        files.append(path)
    return files


def cmd_eval_fidelity(cfg: dict, out_dir: Path) -> list[Path]:
    env = _build_env(cfg)
    target = _build_target(cfg, env)
    explainer = _build_explainer(cfg, target)
    report = evaluation.eval_fidelity(explainer, target, env,
                                      episodes=cfg["eval"]["episodes"],
                                      seed=cfg["seed"], workers=cfg["workers"])
    return _write_report(out_dir, "fidelity", report, [
        ("rrd", "" if report.rrd is None else report.rrd,
         "" if report.rrd_stderr is None else report.rrd_stderr),
        ("r_original", report.r_o, report.se_o),
        ("r_explained", report.r_e, report.se_e),
        ("r_random", report.r_r, report.se_r),
        ("delta_explained", report.delta_e, report.se_delta_e),
        ("delta_random", report.delta_r, report.se_delta_r)])


def cmd_attack(cfg: dict, out_dir: Path) -> list[Path]:
    env = _build_env(cfg)
    target = _build_target(cfg, env)
    explainer = _build_explainer(cfg, target)
    report = evaluation.launch_attack(explainer, target, env,
                                      noise_eps=cfg["eval"]["noise_eps"],
                                      episodes=cfg["eval"]["episodes"],
                                      seed=cfg["seed"], workers=cfg["workers"],
                                      attack_all=cfg["eval"]["attack_all"])
    return _write_report(out_dir, "attack", report, [
        ("reward_delta", report.delta, report.stderr),
        ("r_original", report.r_original, ""),
        ("r_attacked", report.r_attacked, "")])


def cmd_patch(cfg: dict, out_dir: Path) -> list[Path]:
    env = _build_env(cfg)
    target = _build_target(cfg, env)
    explainer = _build_explainer(cfg, target)
    package = evaluation.build_patch_package(
        explainer, target, env, harvest_episodes=cfg["eval"]["harvest_episodes"],
        quantile=cfg["eval"]["quantile"], seed=cfg["seed"])
    pkg_path = out_dir / "patch_package.json"
    package.save(pkg_path)
    report = evaluation.apply_patch(package, explainer, target, env,
                                    d_th=cfg["eval"]["d_th"],
                                    episodes=cfg["eval"]["episodes"],
                                    seed=cfg["seed"], workers=cfg["workers"])
    return [pkg_path] + _write_report(out_dir, "patch", report, [
        ("reward_delta", report.delta, report.stderr),
        ("r_original", report.r_original, ""),
        ("r_patched", report.r_patched, ""),
        ("mean_overrides", report.mean_overrides, "")])


def cmd_render(path: str, mode: str, out: str | None) -> int:
    p = Path(path)
    if not p.exists():
        raise MissingArtifactError(f"replay file not found: {p}")
    rec = replay.parse(p.read_text(encoding="utf-8"))
    text = replay.render(rec, mode=mode)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "train-target": cmd_train_target,
    "train-emai": cmd_train_emai,
    "explain": cmd_explain,
    "eval-fidelity": cmd_eval_fidelity,
    "attack": cmd_attack,
    "patch": cmd_patch,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emai",
        description="Agent-importance explanations for multi-agent RL: train, "
                    "explain, and evaluate (fidelity / attacks / patching).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run config")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE", help="override a config key (dotted path)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None)
    r = sub.add_parser("render")
    r.add_argument("replay", help="path to an .ndjson replay")
    r.add_argument("--mode", choices=["ascii", "csv"], default="ascii")
    r.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "render":
            return cmd_render(args.replay, args.mode, args.out)
        cfg = load_config(args.config, args.overrides)
        if args.workers is not None:
            cfg["workers"] = args.workers
        out_dir = resolve_out_dir(cfg, args.command, args.out)
        files = _COMMANDS[args.command](cfg, out_dir)
        manifest = write_manifest(out_dir, cfg, args.command, files)
        sys.stderr.write(f"{args.command}: wrote {len(files)} files + {manifest}\n")
        return EXIT_OK
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        sys.stderr.write(f"missing artifact: {exc}\n")
        return EXIT_MISSING
    except NumericsError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (IncompatibilityError, CapabilityError, ReplayError) as exc:
        sys.stderr.write(f"incompatible inputs: {exc}\n")
        return EXIT_INCOMPATIBLE
    except ValueError as exc:
        # every argument a command passes comes from the config, so a plain
        # ValueError is a config value the library rejects; subclasses such as
        # EnvError and ShapeError are faults of the program and pass through
        if type(exc) is not ValueError:
            raise
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
