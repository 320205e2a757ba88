"""Regenerate the two masking checkpoints the `evaluate` workload loads.

    python3 bench/make_checkpoints.py

Each checkpoint is trained through the CLI's `train-emai` command from a
shipped scenario config, so it is exactly what a user of that config gets:

- `checkpoints/keycorridor_default.json` from `configs/keycorridor_emai.json`
  (scripted target, 60k steps);
- `checkpoints/keycorridor_weakened.json` from
  `configs/keycorridor_patch_scenario.json` (weakened scripted target, 40k
  steps).

Training is seeded, so a rerun on the commit that produced them rewrites the
same bytes. The reference digests in `reference.json` depend on these files:
after regenerating them, regenerate the digests with `make_reference.py`.
Takes about two minutes on one core.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import benchenv

CHECKPOINTS = {
    "keycorridor_default.json": "configs/keycorridor_emai.json",
    "keycorridor_weakened.json": "configs/keycorridor_patch_scenario.json",
}


def main() -> int:
    benchenv.import_emai()
    from emai import cli

    out_dir = benchenv.BENCH_DIR / "checkpoints"
    out_dir.mkdir(exist_ok=True)
    for name, config in CHECKPOINTS.items():
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            code = cli.main(["train-emai", "--config", str(benchenv.ROOT / config),
                             "--out", tmp])
            if code != 0:
                return code
            shutil.copyfile(Path(tmp) / "masking_checkpoint.json", out_dir / name)
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
