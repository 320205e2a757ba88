"""Test-session setup: pin BLAS to one thread before numpy loads, and make
the property tests replay.

The suite multiplies many tiny matrices; thread fan-out costs more than it
saves and single-threaded BLAS keeps timings stable across machines.

The "tier1" hypothesis profile, loaded by default, derandomizes: each
property test draws the same examples on every run of one tree, so two runs
agree. The "explore" profile draws fresh ones; a seed makes its run replay:
pytest --hypothesis-profile=explore --hypothesis-seed=N -m hypothesis
"""
import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from hypothesis import settings  # noqa: E402  (after the BLAS pins)

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
