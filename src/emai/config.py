"""Run configuration: one strict JSON document per run.

Unknown keys and values of another type than the key's default abort before
any work starts; every omitted key takes the documented default. Path-valued
fields are checked for existence at load so commands fail fast with the
missing-artifact exit code.
"""
from __future__ import annotations

import copy
import hashlib
import json
import os
from pathlib import Path


class ConfigError(ValueError):
    """The run configuration cannot be parsed or validated."""


class MissingArtifactError(FileNotFoundError):
    """A referenced checkpoint/package/replay file does not exist."""


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "workers": 1,
    "out_dir": None,
    "env": {"name": "spread", "params": {}},
    "target": {"kind": "scripted", "variant": "default", "checkpoint": None},
    "explainer": {"kind": "random", "checkpoint": None, "rollouts": 64},
    "training": {
        "steps": 100_000, "lr": 5e-4, "stale_interval": 200,
        "buffer_episodes": 2000, "batch_episodes": 32,
        "epsilon_start": 1.0, "epsilon_end": 0.05, "epsilon_anneal_steps": 50_000,
        "hidden": [64, 64], "mixer": "monotonic", "mix_embed": 32, "gamma": 0.99,
    },
    "emai": {
        "steps": 150_000, "beta": None, "beta_scale": 0.02, "lambda": 1.0,
        "gamma": 0.99, "baseline_episodes": 500,
    },
    "eval": {
        "episodes": 500, "noise_eps": 0.5, "d_th": None, "quantile": 0.1,
        "harvest_episodes": 100, "attack_all": False, "explain_episodes": 5,
    },
}

# env.params is validated by the environment constructor, not the schema
_FREEFORM = {("env", "params")}

# the value type of each key whose default is None; null stays allowed there
_NULLABLE = {("out_dir",): str, ("target", "checkpoint"): str,
             ("explainer", "checkpoint"): str, ("emai", "beta"): float,
             ("eval", "d_th"): float}


def _is_a(value, kind: type) -> bool:
    """isinstance, where a bool is no number and an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_type(value, default, path: tuple[str, ...]) -> None:
    """A value must have its default's type; lists check their items too."""
    if default is None:
        if value is None:
            return
        kind = _NULLABLE[path]
        expected = f"{kind.__name__} or null"
    else:
        kind = type(default)
        expected = kind.__name__
    ok = _is_a(value, kind)
    if isinstance(default, list):
        expected = f"a list of {type(default[0]).__name__}"
        ok = ok and all(_is_a(item, type(default[0])) for item in value)
    if not ok:
        raise ConfigError(f"config key {'.'.join(path)!r} must be {expected}, got {value!r}")


def _validate(section: dict, defaults: dict, path: tuple[str, ...]) -> None:
    for key, value in section.items():
        if key not in defaults:
            dotted = ".".join(path + (key,))
            raise ConfigError(f"unknown config key {dotted!r}")
        if (path + (key,)) in _FREEFORM:
            continue
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {'.'.join(path + (key,))!r} must be an object")
            _validate(value, defaults[key], path + (key,))
        else:
            _check_type(value, defaults[key], path + (key,))


def merged_sections(overrides: dict | None, *sections: str) -> dict:
    """DEFAULT_CONFIG's named sections merged in order, then `overrides` on
    top; a key of `overrides` that no section has raises ValueError."""
    merged: dict = {}
    for name in sections:
        merged.update(DEFAULT_CONFIG[name])
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(merged))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; "
                         f"the {'/'.join(sections)} sections have {sorted(merged)}")
    return {**merged, **overrides}


def _merge(defaults: dict, overrides: dict) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def parse_override(expr: str) -> tuple[list[str], object]:
    """--set dotted.key=value; the value parses as JSON, else a bare string."""
    if "=" not in expr:
        raise ConfigError(f"override {expr!r} must look like section.key=value")
    dotted, raw = expr.split("=", 1)
    keys = dotted.strip().split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return keys, value


def apply_override(cfg: dict, keys: list[str], value) -> None:
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {'.'.join(keys)!r} crosses a non-object")
    node[keys[-1]] = value


def load_config(path: str | Path | None, overrides: list[str] = ()) -> dict:
    raw: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise MissingArtifactError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for expr in overrides:
        keys, value = parse_override(expr)
        apply_override(raw, keys, value)
    _validate(raw, DEFAULT_CONFIG, ())
    cfg = _merge(DEFAULT_CONFIG, raw)
    _check_paths(cfg)
    return cfg


def _check_paths(cfg: dict) -> None:
    for section, key in (("target", "checkpoint"), ("explainer", "checkpoint")):
        value = cfg[section][key]
        if value is not None and not Path(value).exists():
            raise MissingArtifactError(f"{section}.{key} points to a missing file: {value}")


def canonical_hash(cfg: dict) -> str:
    """Config hash for manifests; run-location fields do not participate."""
    trimmed = copy.deepcopy(cfg)
    trimmed.pop("out_dir", None)
    trimmed.pop("workers", None)
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_out_dir(cfg: dict, command: str, cli_out: str | None) -> Path:
    if cli_out:
        out = Path(cli_out)
    elif cfg.get("out_dir"):
        out = Path(cfg["out_dir"])
    else:
        root = Path(os.environ.get("EMAI_OUT_ROOT", "runs"))
        out = root / f"{command}-{canonical_hash(cfg)[:12]}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, cfg: dict, command: str, files: list[Path]) -> Path:
    manifest = {
        "command": command,
        "config_sha256": canonical_hash(cfg),
        "files": {str(p.relative_to(out_dir)): sha256_file(p) for p in sorted(files)},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path
