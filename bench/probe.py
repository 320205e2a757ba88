"""A fixed speed probe for the machine the benchmark runs on.

Shared machines lend their cores to other tenants: on a 2-vCPU VM a
fixed loop of target episodes ran at 354 to 656 episodes/s within 90
seconds, in plateaus lasting seconds. The probe is a fixed piece of work of
the two kinds the workloads do, uses no emai code, and so moves with the
machine but with no change to the program:

- interpreted grid moves and dict lookups with a tiny matrix product, like an
  env step plus one graph-free Q forward;
- matrix products and elementwise ops on a (2880, 64) batch, the size of one
  TD batch (32 episodes x 30 steps x 3 agents).

The benchmark times the probe around each operation and reports figures
normalized to the probe's reference speed:
`normalized time = measured time * PROBE_REFERENCE_S / probe time`.
"""
from __future__ import annotations

import time

import numpy as np

# Typical probe time on an unloaded Intel Xeon vCPU (2-vCPU VM, Python 3.11,
# numpy 2.4, one BLAS thread). Only ratios matter: it sets the scale of the
# normalized figures.
PROBE_REFERENCE_S = 0.0055
ITERATIONS = 325

_SMALL_W = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
_SMALL_X = np.ones((3, 16))
_BATCH_X = np.linspace(-1.0, 1.0, 2880 * 16).reshape(2880, 16)
_BATCH_W = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def probe_seconds() -> float:
    """Run the probe once and return its duration."""
    start = time.perf_counter()
    acc = 0.0
    cells = [(0, 0), (1, 2), (3, 4)]
    for i in range(ITERATIONS):
        cells = [((r + i) % 5, (c + 1) % 7) for r, c in cells]
        index = {cell: j for j, cell in enumerate(cells)}
        acc += len(index) + sum(r * 7 + c for r, c in cells)
        acc += float(np.maximum(_SMALL_X @ _SMALL_W, 0.0)[0, 0])
    hidden = np.maximum(_BATCH_X @ _SMALL_W, 0.0)
    out = np.tanh((hidden @ _BATCH_W).sum(axis=1))
    acc += float((hidden.T @ out).sum())
    if acc != acc:  # keeps the result live
        raise ArithmeticError("probe produced NaN")
    return time.perf_counter() - start
