"""Pinned artifacts of a tiny CLI run set, so a change to training or
evaluation output cannot pass unnoticed.

The runs, all on keycorridor: train-target; train-emai at
lambda = 0 and lambda = 1 (hidden [16, 16], batch 8, 20 baseline episodes);
then explain and eval-fidelity with the emai explainer on the lambda = 1
checkpoint. Each artifact's sha256 must equal its pinned value.

The values depend on numpy's and the BLAS library's float results. A numpy
or BLAS change, or a deliberate re-baseline of the outputs, re-pins them,
with a note in CHANGES.md naming the old and new values.
"""
from __future__ import annotations

import hashlib

from emai.cli import main

TRAINING = ["seed=3", "env.name=keycorridor", "training.steps=1500", "emai.steps=1500",
            "training.hidden=[16,16]", "training.batch_episodes=8",
            "emai.baseline_episodes=20"]
EVAL = ["seed=4", "env.name=keycorridor", "eval.episodes=12", "eval.explain_episodes=2",
        "explainer.kind=emai"]

PINNED = {
    "train-target/target_checkpoint.json":
        "5097393768a2b345febd40a120a01a79f5bc4d65b432c3965a6db5a95b1fc4dc",
    "train-target/train_target_curve.csv":
        "f25eea166cf4e3ab6fca52883c5e861b13df1ff309d55186a0048c53d4324559",
    "train-emai-lam0/masking_checkpoint.json":
        "1dfd8fe33da46f9f63fb16cb44f6fcaeb4b1a6808d7478e7dfeadda3688d4c02",
    "train-emai-lam0/emai_curve.csv":
        "4aca7fab3a8098ed628743ad0d999041b3a22c40eb861310df61af1ea1fde670",
    "train-emai-lam1/masking_checkpoint.json":
        "ac53ebb6aa82b480a99bd047ae0896f2f5e1687bc625a4c3671b3473451f0068",
    "train-emai-lam1/emai_curve.csv":
        "efbf52294b0eb86f9fb32efe73f77f7474a75880146313e378738a84d99a05cf",
    "explain-lam1/episode_000.ndjson":
        "d7ff28d7c92fe4afdcd1efce1173a2d3039830e5352a74aad3bb8e38546f4a07",
    "explain-lam1/episode_001.ndjson":
        "107c908a442bc4da398e8daf65d01d3a48074df2b06682e5a908e80a0a5e1d06",
    "eval-fidelity-lam1/fidelity.json":
        "aea1ac9d407107a98cd95ec78a620120c42f4e66d841ec07d7aed397be08ffb9",
    "eval-fidelity-lam1/fidelity.csv":
        "5098252285ef25eb370217513977069ed5974823ec0051203d05e19adc001aa9",
}


def _run(command: str, out, overrides: list[str]) -> None:
    args = [command, "--out", str(out)]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 0, f"{command} failed"


def test_tiny_run_set_artifacts_match_pinned_digests(tmp_path):
    _run("train-target", tmp_path / "train-target", TRAINING)
    for lam in (0, 1):
        _run("train-emai", tmp_path / f"train-emai-lam{lam}", TRAINING + [f"emai.lambda={lam}"])
    checkpoint = tmp_path / "train-emai-lam1" / "masking_checkpoint.json"
    for command in ("explain", "eval-fidelity"):
        _run(command, tmp_path / f"{command}-lam1", EVAL + [f"explainer.checkpoint={checkpoint}"])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED}
    mismatched = [f"{name}: {digests[name]} != pinned {PINNED[name]}"
                  for name in PINNED if digests[name] != PINNED[name]]
    assert not mismatched, "artifacts differ from their pinned digests:\n" + "\n".join(mismatched)
