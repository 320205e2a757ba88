"""Named streams and the batched draw kernel that reproduces them."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emai import rng
from emai.rng import integers_rows, stream

SEEDS = st.one_of(st.integers(-2**63, -1), st.just(0), st.integers(1, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1))
TAGS = st.one_of(st.text(max_size=8), st.integers(-2**40, 2**40), st.integers(2**32, 2**70))


def _row_by_row(seed, head, tails, high, size) -> np.ndarray:
    out = np.empty((len(tails), size), dtype=np.int64)
    for r, tail in enumerate(tails):
        out[r] = stream(seed, *head, *tail).integers(0, high, size=size)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=SEEDS, head=st.lists(TAGS, max_size=5),
       width=st.integers(0, 3), rows=st.integers(1, 64),
       high=st.one_of(st.integers(1, 8), st.integers(1, 2**32 - 1)), size=st.integers(0, 40))
def test_integers_rows_equals_row_by_row_streams(data, seed, head, width, rows, high, size):
    tails = data.draw(st.lists(st.tuples(*[TAGS] * width), min_size=rows, max_size=rows))
    got = integers_rows(seed, tuple(head), tails, high, size)
    assert got.dtype == np.int64 and got.shape == (rows, size)
    assert np.array_equal(got, _row_by_row(seed, head, tails, high, size))


def test_integers_rows_falls_back_to_stream_on_rejected_rows(monkeypatch):
    # at high = 2**31 + 1 about half of all 32-bit draws are rejected, so some
    # rows need numpy's redraw and the rest come from the kernel alone
    tails = [(i, k) for i in range(2) for k in range(32)]
    high, seed, head = 2**31 + 1, 2**40 + 7, ("mc-oracle", 12345, 0)
    calls = []

    def counted(*key):
        calls.append(key)
        return stream(*key)

    monkeypatch.setattr(rng, "stream", counted)
    got = integers_rows(seed, head, tails, high, 1)
    assert 0 < len(calls) < len(tails)
    monkeypatch.undo()
    assert np.array_equal(got, _row_by_row(seed, head, tails, high, 1))
    assert np.array_equal(integers_rows(seed, head, tails, high, 9),
                          _row_by_row(seed, head, tails, high, 9))


def test_integers_rows_oracle_shape_and_edges():
    tails = [(i, k) for i in range(3) for k in range(64)]
    head = ("mc-oracle", 2**62 + 5, 24)
    assert np.array_equal(integers_rows(4, head, tails, 5, 6), _row_by_row(4, head, tails, 5, 6))
    assert integers_rows(4, head, tails, 5, 0).shape == (192, 0)
    assert integers_rows(4, head, [], 5, 3).shape == (0, 3)
    assert not integers_rows(4, head, tails[:3], 1, 7).any()
    # the batched oracle's tails (episode seed, t, agent, rollout): 63-bit
    # episode seeds, whose low 32 bits are the tag, in an integer column
    seeds = [rng.episode_seed(3, "fidelity", e) for e in range(4)] + [-1, 2**31 + 5]
    tails = [(s, 7, i, k) for s in seeds for i in range(2) for k in range(3)]
    assert np.array_equal(integers_rows(4, ("mc-oracle",), tails, 5, 6),
                          _row_by_row(4, ("mc-oracle",), tails, 5, 6))


@pytest.mark.parametrize("high", [0, -1, 2**32, 2**40])
def test_integers_rows_rejects_high_outside_32_bits(high):
    with pytest.raises(ValueError, match="high"):
        integers_rows(0, ("a",), [(1,)], high, 3)


def test_integers_rows_rejects_ragged_tails_and_negative_size():
    with pytest.raises(ValueError, match="same length"):
        integers_rows(0, (), [(1,), (1, 2)], 5, 3)
    with pytest.raises(ValueError, match="size"):
        integers_rows(0, (), [(1,)], 5, -1)
