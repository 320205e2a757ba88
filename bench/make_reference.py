"""Record the reference output digests the `evaluate` and `oracle` workloads
are checked against.

    python3 bench/make_reference.py

Runs every entry of each workload's input pool once, at the workload's
sizes, and writes the digest of each operation's output to
`reference.json`, together with the sizes and checkpoint hashes they belong
to. Run it on a commit whose outputs are known to be right (the digests were
first recorded on the commit that added the benchmark); a change that is
meant to alter these outputs re-records them and says so. Takes about two
minutes on one core.
"""
from __future__ import annotations

import json
import sys

import benchenv


def record(workload, timer, pool_size: int) -> dict:
    workload.setup()
    digests = {}
    for item in range(pool_size):
        for op in workload.unit(0, item, timer):
            if op.error:
                raise RuntimeError(f"{workload.name} {op.key}: {op.error}")
            digests[op.key] = op.digest
    return digests


def main() -> int:
    emai = benchenv.import_emai()
    import workloads

    timer = workloads.Timer()
    evaluate = workloads.Evaluate(emai)
    oracle = workloads.Oracle(emai)
    doc = {
        "evaluate": {"sizes": evaluate.sizes, "checkpoints": evaluate.checkpoint_digests(),
                     "digests": record(evaluate, timer, workloads.POOL_SIZE)},
        "oracle": {"sizes": oracle.sizes, "checkpoints": {},
                   "digests": record(oracle, timer, workloads.POOL_SIZE)},
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
