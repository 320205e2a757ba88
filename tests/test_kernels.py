"""Evaluation kernels against the expressions they replace, bitwise: the
column-order sums of patch distances and the stepped long stream rows.

CI runs this file again on OpenBLAS's Haswell kernels and with numpy's
AVX-512 dispatch disabled: numpy's summation order must not depend on its
SIMD target.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emai import evaluation, rng
from emai.evaluation import _nearest_entries, _package_columns
from emai.nn import _sum_rows
from emai.rng import integers_rows, stream, uniform_rows


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _values(seed: int, shape: tuple, wide: bool) -> np.ndarray:
    """Floats of every kind a sum meets: ±0.0, subnormals, ±1e300 and
    normal values, of one magnitude or (wide) of magnitudes 1e-300 to 1e300.
    No sum of up to 300 of them overflows."""
    g = np.random.default_rng(seed)
    exponents = g.integers(-300, 300, size=shape) if wide else 0
    values = g.uniform(-1.0, 1.0, size=shape) * 10.0 ** exponents
    kind = g.integers(0, 12, size=shape)
    values[kind == 0] = 0.0
    values[kind == 1] = -0.0
    values[kind == 2] = g.integers(-2**52, 2**52, size=int((kind == 2).sum())) * 5e-324
    values[kind == 3] = g.choice([1e300, -1e300], size=int((kind == 3).sum()))
    return values


def reference_sum(values: np.ndarray) -> np.ndarray:
    """np.sum over a contiguous last axis holding values' first axis (over
    a strided axis numpy adds in another order)."""
    return np.ascontiguousarray(np.moveaxis(values, 0, -1)).sum(axis=-1)


def reference_nearest(pkg_obs: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The expression the kernel replaces: one reduction per (query, entry)
    pair, the nearest entry (lowest index on ties) and its distance."""
    dists = np.abs(pkg_obs - queries[:, None]).sum(axis=2)
    best = np.argmin(dists, axis=1)
    return best, dists[np.arange(len(dists)), best]


# ---- column-order sums ----

def test_row_sums_equal_numpy_sums_at_every_length():
    # below 8 terms, 8 to 128 (8 accumulators) and above 128 (split halves)
    for n in range(1, 301):
        for wide in (False, True):
            values = _values(n, (n, 3, 5), wide)
            assert _bits(_sum_rows(values.copy())) == _bits(reference_sum(values)), (n, wide)


def test_row_sums_of_negative_zeros_are_positive_zeros():
    for n in (1, 7, 8, 16, 129, 300):
        got = _sum_rows(np.full((n, 4), -0.0))
        assert _bits(got) == _bits(np.sum(np.full((4, n), -0.0), axis=1)) == _bits(np.zeros(4))


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)),
       shape=st.lists(st.integers(1, 9), min_size=0, max_size=2),
       seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_row_sums_equal_numpy_sums(n, shape, seed, wide):
    values = _values(seed, (n, *shape), wide)
    assert _bits(_sum_rows(values.copy())) == _bits(reference_sum(values))


# ---- nearest package entries ----

@settings(max_examples=150, deadline=None)
@given(obs_dim=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)),
       entries=st.integers(1, 40), queries=st.integers(1, 60),
       block=st.sampled_from([1, 64, 1000, evaluation.PATCH_DISTANCE_BLOCK]),
       seed=st.integers(0, 2**32 - 1), wide=st.booleans(), copies=st.integers(0, 3))
def test_nearest_entries_equal_the_reduction(obs_dim, entries, queries, block, seed, wide,
                                             copies):
    g = np.random.default_rng(seed)
    pkg = _values(seed, (entries, obs_dim), wide)
    # repeated entries tie; a query on an entry has distance 0
    pkg = np.concatenate([pkg, pkg[g.integers(0, entries, size=copies)]])
    q = np.concatenate([_values(seed + 1, (queries, obs_dim), wide),
                        pkg[g.integers(0, len(pkg), size=copies)]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "PATCH_DISTANCE_BLOCK", block)  # blocks of query rows
        columns = _package_columns(pkg, len(q))
    best, dist = _nearest_entries(columns, q)
    want_best, want_dist = reference_nearest(pkg, q)
    assert best.tolist() == want_best.tolist() and _bits(dist) == _bits(want_dist)


def test_nearest_entries_ties_and_the_threshold_boundary():
    # grid observations, as the envs emit them: many exact ties, which go to
    # the lowest index, and distances that sit exactly on d_th
    g = np.random.default_rng(5)
    pkg = g.integers(-3, 4, size=(37, 13)) / 6.0
    pkg[20:] = pkg[:17]  # every later copy ties with its first
    q = np.concatenate([g.integers(-3, 4, size=(40, 13)) / 6.0, pkg[25:30]])
    best, dist = _nearest_entries(_package_columns(pkg, len(q)), q)
    want_best, want_dist = reference_nearest(pkg, q)
    assert best.tolist() == want_best.tolist() and _bits(dist) == _bits(want_dist)
    assert (best < 20).all()
    for d_th in (*np.unique(want_dist), 1.6):
        for bound in (d_th, np.nextafter(d_th, np.inf), np.nextafter(d_th, -np.inf)):
            assert ((dist < bound) == (want_dist < bound)).all()


# ---- long stream rows ----

COUNTS = [0, 1, 127, 128, 390]
ROOTS = {"shared": 2**40 + 7, "shared-short": 9,
         "per-row": [2**40 + 3 * i for i in range(5)],
         "per-row-short": [5, 2**50, 0, 2**33 + 1, 2**32 - 1]}


def _stream_of(root, r):
    return stream(root if isinstance(root, int) else root[r], "kernel", r, "tail")


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("root", ROOTS, ids=list(ROOTS))
def test_pcg_outputs_equal_row_by_row_streams(count, root):
    seed = ROOTS[root]
    got = rng._pcg_outputs(seed, ("kernel",), (np.arange(5), "tail"), 5, count)
    assert got.shape == (5, count)
    for r in range(5):
        assert got[r].tolist() == _stream_of(seed, r).bit_generator.random_raw(count).tolist()


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("root", ROOTS, ids=list(ROOTS))
def test_integers_rows_equal_row_by_row_streams(count, root):
    # 2 * count draws take count outputs; 2**31 + 1 rejects about half its
    # draws, so some rows are redrawn from their scalar stream
    seed = ROOTS[root]
    bounds = ([5, 2, 7, 2**31 + 1] * count)[:2 * count]
    got = integers_rows(seed, ("kernel",), (np.arange(5), "tail"), 5, bounds, len(bounds))
    for r in range(5):
        g = _stream_of(seed, r)
        assert got[r].tolist() == [g.integers(0, high) for high in bounds]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("root", ["shared", "shared-short"])
def test_uniform_rows_equal_row_by_row_streams(count, root):
    seed = ROOTS[root]
    got = uniform_rows(seed, ("kernel",), (np.arange(5), "tail"), 5, -0.5, 0.5, count)
    want = np.array([_stream_of(seed, r).uniform(-0.5, 0.5, count) for r in range(5)])
    assert _bits(got) == _bits(want)

