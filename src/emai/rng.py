"""Deterministic, named random-number streams.

Every source of randomness in the package derives from a root seed plus a
tuple of string/int tags, so independent components never share or disturb
each other's streams and whole runs replay bitwise.

`integers_rows` draws from many streams at once: row r of its result equals
`stream(seed, *head_tags, *tail_tags[r]).integers(0, high, size=size)` bit
for bit. It recomputes numpy's SeedSequence mixing, the PCG64 seeding and
XSL-RR output, and the buffered 32-bit Lemire draw as array arithmetic over
all rows. A row that would hit a Lemire rejection (about one draw in 2**32
at a small `high`) is drawn from `stream()` itself, so the equality holds in
every case.
"""
from __future__ import annotations

import functools
import zlib

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
# numpy's SeedSequence hash constants (pool size 4)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _tag_to_int(tag: object) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf-8"))


def _seed_words(seed: int) -> list[int]:
    """The 32-bit entropy words SeedSequence takes from stream()'s seed."""
    value = int(seed) & _M64
    return [value & _M32] + ([value >> 32] if value >> 32 else [])


def stream(seed: int, *tags: object) -> np.random.Generator:
    """Return a Generator keyed by (seed, *tags); same key, same stream."""
    entropy = [int(seed) & _M64] + [_tag_to_int(t) for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def episode_seed(seed: int, *tags: object) -> int:
    """A stable 63-bit sub-seed for handing to env.reset()."""
    return int(stream(seed, *tags).integers(0, 2**63 - 1))


# ---- batched draws ----
# A word shared by every row is a Python int; a per-row word is a uint64
# array of 32-bit values. A product of two words fits in 64 bits.

def _hashmix(value, hash_const: int):
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _M32
    value = (value * hash_const) & _M32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ (result >> 16)


def _hash_consts(first: int, mult: int, n: int) -> np.ndarray:
    """first, first * mult, ... mod 2**32 (n + 1 values) as a column."""
    consts = [first]
    for _ in range(n):
        consts.append((consts[-1] * mult) & _M32)
    return np.array(consts, dtype=np.uint64)[:, None]


def _seed_sequence_state(words: list, rows: int) -> np.ndarray:
    """SeedSequence(words).generate_state(4, uint64) of every row, as a
    (4, rows) uint64 array."""
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL):
        value, hash_const = _hashmix(words[i] if i < len(words) else 0, hash_const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    mixer = np.empty((_POOL, rows), dtype=np.uint64)
    for dst in range(_POOL):
        mixer[dst] = pool[dst]
    # each remaining word is mixed into the four pool words in turn
    for word in words[_POOL:]:
        consts = _hash_consts(hash_const, _MULT_A, _POOL)
        hash_const = int(consts[-1, 0])
        value = ((word ^ consts[:-1]) * consts[1:]) & _M32
        mixer = _mix(mixer, value ^ (value >> 16))
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    state = ((np.concatenate([mixer, mixer]) ^ consts[:-1]) * consts[1:]) & _M32
    state ^= state >> 16
    return state[0::2] | state[1::2] << 32  # little-endian word pairs


@functools.lru_cache(maxsize=64)
def _step_constants(n: int) -> tuple[np.ndarray, ...]:
    """Output j = 1..n of a PCG64 seeded with (s, initseq) comes from the
    state A_j * s + C_j * inc mod 2**128 (inc = 2 * initseq + 1), where
    A_j = M**(j+1) and C_j = M**(j+1) + ... + M + 1. Returns the low and
    high 64-bit halves of A and C, stacked as (2, 1, n), and the low
    halves' 32-bit limbs."""
    a, c = [], []
    power, total = _PCG_MULT, 1 + _PCG_MULT  # M**1 and M**0 + M**1
    for _ in range(n):
        power = (power * _PCG_MULT) & _M128
        total = (total + power) & _M128
        a.append(power)
        c.append(total)
    lo = np.array([[v & _M64 for v in row] for row in (a, c)], dtype=np.uint64).reshape(2, 1, n)
    hi = np.array([[v >> 64 for v in row] for row in (a, c)], dtype=np.uint64).reshape(2, 1, n)
    out = (lo, hi, lo & _M32, lo >> 32)
    for consts in out:
        consts.flags.writeable = False  # shared by every caller through the cache
    return out


def integers_rows(seed: int, head_tags: tuple, tail_tags, high: int, size: int) -> np.ndarray:
    """Row r equals stream(seed, *head_tags, *tail_tags[r]).integers(0, high,
    size=size), bitwise, as an (R, size) int64 array; every row of tail_tags
    has the same length."""
    high, size = int(high), int(size)
    if not 1 <= high < 1 << 32:
        raise ValueError(f"high must lie in [1, 2**32), got {high}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    rows = len(tail_tags)
    tails = [[_tag_to_int(t) for t in row] for row in tail_tags]
    if len({len(row) for row in tails}) > 1:
        raise ValueError("every row of tail_tags must have the same length")
    words = (_seed_words(seed) + [_tag_to_int(t) for t in head_tags]
             + [np.array(column, dtype=np.uint64) for column in zip(*tails)])
    s_hi, s_lo, q_hi, q_lo = _seed_sequence_state(words, rows)
    # the seed s and the increment inc = 2 * initseq + 1 as (2, rows, 1) halves
    x_lo = np.stack([s_lo, q_lo << 1 | 1])[:, :, None]
    x_hi = np.stack([s_hi, q_hi << 1 | q_lo >> 63])[:, :, None]
    c_lo, c_hi, c0, c1 = _step_constants((size + 1) // 2)
    # A_j * s and C_j * inc mod 2**128 from 32-bit limb products
    x0, x1 = x_lo & _M32, x_lo >> 32
    p00, p01, p10, p11 = c0 * x0, c0 * x1, c1 * x0, c1 * x1
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    prod_hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + c_lo * x_hi + c_hi * x_lo
    prod_lo = c_lo * x_lo
    lo = prod_lo[0] + prod_lo[1]
    hi = prod_hi[0] + prod_hi[1] + (lo < prod_lo[0])
    # XSL-RR output; its low 32-bit half is drawn before its high half
    xored, rot = hi ^ lo, hi >> 58
    out = (xored >> rot | xored << ((64 - rot) & 63)).astype("<u8", copy=False)
    scaled = out.view("<u4")[:, :size] * np.uint64(high)
    result = (scaled >> 32).astype(np.int64)
    # numpy redraws when the low word falls below 2**32 mod high
    for r in np.flatnonzero(((scaled & _M32) < (1 << 32) % high).any(axis=1)):
        result[r] = stream(seed, *head_tags, *tail_tags[r]).integers(0, high, size=size)
    return result
