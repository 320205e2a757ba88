"""Deterministic, named random-number streams.

Every source of randomness in the package derives from a root seed plus a
tuple of string/int tags, so independent components never share or disturb
each other's streams and whole runs replay bitwise.

Three batched kernels draw `rows` streams at once, row r from
`stream(seed, *head_tags, *tail[r])`, bit for bit, where tail[r] takes row r
of each tail column. A tail column is one tag that every row shares (an int)
or one tag per row: an integer array, whose words are taken in one array
operation, or any other sequence, taken tag by tag.
- `integers_rows`, given one bound per output column, equals consecutive
  scalar `.integers(0, high[j])` calls, and so `.integers(0, h, size=size)`
  for `size` bounds h;
- `uniform_rows` equals its `.uniform(low, high, size)`;
- `episode_seeds(seed, tag, count)` equals `episode_seed(seed, tag, i)`
  for i < count.
They share `_pcg_outputs`, which recomputes numpy's SeedSequence mixing and
the PCG64 seeding as array arithmetic over all rows. Each output follows as
an affine function of the seeded state or, in rows of LONG_ROW outputs or
more, from one PCG64 stepped per row. The root seed is one int for every row
or, for `_pcg_outputs` and `integers_rows`, one per row (`stream(seeds[r],
*head_tags, *tail[r])`).
A row whose bounded draw numpy would reject and redraw (about one draw in
2**32 at a small bound), or whose own root seed is below 2**32 (one entropy
word where the other rows have two), is drawn from the scalar stream
itself, so the equality holds in every case.
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
# episode_seed draws from [0, EPISODE_SEED_HIGH); numpy redraws a 64-bit
# Lemire draw whose low word falls below 2**64 mod that bound
EPISODE_SEED_HIGH = 2**63 - 1
_SEED_THRESHOLD = (1 << 64) % EPISODE_SEED_HIGH
# bound on the (rows, outputs) block of one _pcg_outputs pass: a block's
# (2, rows, outputs) uint64 temporaries stay cache-sized
OUTPUT_BLOCK = 1 << 12
LONG_ROW = 128  # outputs a row from which _pcg_outputs steps one PCG64 per row


def _tag_to_int(tag: object) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf-8"))


def _tag_word(column):
    """_tag_to_int of one tail column: a Python int when every row has the
    same word (a shared tag, or a per-row column whose words agree), as a
    head tag is passed, else a uint64 array of the per-row words. A per-row
    column of integers that numpy holds in 64 bits takes its low 32 bits in
    one array operation; any other is hashed row by row."""
    if np.ndim(column) == 0:
        return _tag_to_int(column)
    array = np.asarray(column)
    if array.dtype.kind in "iu":
        words = array.astype(np.uint64)
        words &= _M32
    else:
        words = np.array([_tag_to_int(t) for t in column], dtype=np.uint64)
    first = words[0]
    return int(first) if (words == first).all() else words


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
    return int(stream(seed, *tags).integers(0, EPISODE_SEED_HIGH))


# ---- batched draws ----
# A word shared by every row is a Python int; a per-row word is a uint64
# array of 32-bit values. A product of two words fits in 64 bits.

# Both run all but their first operation in place: megabyte temporaries at
# oracle block size cost page faults.
def _hash(value, xor, mult):
    """SeedSequence's hashmix of value under the successive hash constants
    xor and mult (ints or broadcasting uint64 arrays)."""
    value = value ^ xor
    value *= mult
    value &= _M32
    value ^= value >> 16
    return value


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result &= _M32
    result ^= result >> 16
    return result


@functools.lru_cache(maxsize=64)
def _hash_consts(first: int, mult: int, n: int) -> tuple[tuple, np.ndarray]:
    """first, first * mult, ... mod 2**32 (n + 1 values), as a tuple of ints
    and as a read-only uint64 column."""
    consts = [first]
    for _ in range(n):
        consts.append((consts[-1] * mult) & _M32)
    column = np.array(consts, dtype=np.uint64)[:, None]
    column.flags.writeable = False  # shared by every caller through the cache
    return tuple(consts), column


# the destination pool words of each source word of the pool mixing
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]


def _seed_sequence_state(words: list, rows: int) -> np.ndarray:
    """SeedSequence(words).generate_state(4, uint64) of every row, as a
    (4, rows) uint64 array. Each hash takes the next constants of _INIT_A's
    sequence, in SeedSequence's order. When the four pool words are shared,
    they mix as Python ints; otherwise each pool word mixes into the other
    three as one (3, rows) array operation. Each later word mixes into the
    four as one array operation."""
    words = list(words) + [0] * (_POOL - len(words))
    hashes, column = _hash_consts(_INIT_A, _MULT_A, _POOL * len(words))
    pool = [_hash(words[i], hashes[i], hashes[i + 1]) for i in range(_POOL)]
    at = _POOL  # the next hash constant
    if all(isinstance(word, int) for word in pool):
        for src in range(_POOL):
            for dst in _OTHERS[src]:
                pool[dst] = _mix(pool[dst], _hash(pool[src], hashes[at], hashes[at + 1]))
                at += 1
        mixer = np.array(pool, dtype=np.uint64)[:, None]  # broadcast over the rows
    else:
        mixer = np.empty((_POOL, rows), dtype=np.uint64)
        for dst in range(_POOL):
            mixer[dst] = pool[dst]
        for src in range(_POOL):
            others = _OTHERS[src]
            value = _hash(mixer[src], column[at:at + 3], column[at + 1:at + 4])
            mixer[others] = _mix(mixer[others], value)
            at += _POOL - 1
    for word in words[_POOL:]:
        mixer = _mix(mixer, _hash(word, column[at:at + _POOL], column[at + 1:at + _POOL + 1]))
        at += _POOL
    _, consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hash(np.concatenate([mixer, mixer]), consts[:-1], consts[1:])
    state = state[0::2] | state[1::2] << 32  # little-endian word pairs
    return np.broadcast_to(state, (_POOL, rows))


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


def _shared_seed(seed) -> bool:
    """Whether `seed` is one root seed for every row, not one per row."""
    return isinstance(seed, (int, np.integer))


def _row_stream(seed, head_tags: tuple, tail_columns, r: int) -> np.random.Generator:
    """Row r's scalar stream, under a shared or a per-row root seed."""
    tail = [column if np.ndim(column) == 0 else column[r] for column in tail_columns]
    return stream(seed if _shared_seed(seed) else seed[r], *head_tags, *tail)


def _pcg_outputs(seed, head_tags: tuple, tail_columns, rows: int, count: int) -> np.ndarray:
    """Row r holds the first `count` raw 64-bit outputs of stream(seed,
    *head_tags, *tail[r]), as a (rows, count) little-endian uint64 array,
    where tail[r] takes row r of each tail column (see the module docstring);
    a per-row column has `rows` entries. `seed` may also hold one root seed
    per row; a row whose root seed is below 2**32 (after stream's mask to 64
    bits) has one entropy word fewer, so it takes the raw outputs of its
    scalar stream. Rows of LONG_ROW outputs or more step a PCG64 (~5 us a row),
    shorter ones take array arithmetic (~50 ns an output, OUTPUT_BLOCK // count
    rows a pass); they cross at 64-96 outputs. us a call (2 vCPUs), arithmetic/stepped:
        rows  32 outputs  96         128        390
        40    181/247     370/277    513/241    1069/259
        192   538/705     1021/726   1486/790   3008/860
        1000  1629/3186   4058/3453  5300/3536  16785/4392"""
    for column in tail_columns:
        if np.ndim(column) and len(column) != rows:
            raise ValueError(f"every per-row tail column must have the same length as the "
                             f"{rows} rows, got {len(column)}")
    if _shared_seed(seed):
        seed_words, short = _seed_words(seed), []
    else:
        if len(seed) != rows:
            raise ValueError(f"{len(seed)} root seeds for {rows} rows")
        roots = np.array([int(s) & _M64 for s in seed], dtype=np.uint64)
        high = roots >> 32
        seed_words, short = [roots & _M32, high], np.flatnonzero(high == 0)
    out = np.empty((rows, count), dtype="<u8")
    if rows == 0 or count == 0:
        return out
    words = (seed_words + [_tag_to_int(t) for t in head_tags]
             + [_tag_word(column) for column in tail_columns])
    s_hi, s_lo, q_hi, q_lo = state = _seed_sequence_state(words, rows)
    if count >= LONG_ROW:  # PCG64's seeding: ((inc + s) * M + inc) mod 2**128
        bitgen = np.random.PCG64(0)
        for r, (sh, sl, qh, ql) in enumerate(zip(*state.tolist())):
            inc = (qh << 65 | ql << 1 | 1) & _M128
            seeded = (((sh << 64 | sl) + inc) * _PCG_MULT + inc) & _M128
            bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                            "state": {"state": seeded, "inc": inc}}
            out[r] = bitgen.random_raw(count)
    else:
        # the seed s and the increment inc = 2 * initseq + 1 as (2, rows, 1) halves
        seed_lo = np.stack([s_lo, q_lo << 1 | 1])[:, :, None]
        seed_hi = np.stack([s_hi, q_hi << 1 | q_lo >> 63])[:, :, None]
        c_lo, c_hi, c0, c1 = _step_constants(count)
        block = max(1, OUTPUT_BLOCK // count)
        for start in range(0, rows, block):
            x_lo, x_hi = seed_lo[:, start:start + block], seed_hi[:, start:start + block]
            # A_j * s and C_j * inc mod 2**128 from 32-bit limb products
            x0, x1 = x_lo & _M32, x_lo >> 32
            p00, p01, p10, p11 = c0 * x0, c0 * x1, c1 * x0, c1 * x1
            mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
            prod_hi = (p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + c_lo * x_hi
                       + c_hi * x_lo)
            prod_lo = c_lo * x_lo
            lo = prod_lo[0] + prod_lo[1]
            hi = prod_hi[0] + prod_hi[1] + (lo < prod_lo[0])
            # XSL-RR output
            xored, rot = hi ^ lo, hi >> 58
            out[start:start + block] = xored >> rot | xored << ((64 - rot) & 63)
    for r in short:
        out[r] = _row_stream(seed, head_tags, tail_columns, r).bit_generator.random_raw(count)
    return out


def integers_rows(seed, head_tags: tuple, tail_columns, rows: int, high,
                  size: int) -> np.ndarray:
    """Column j of row r equals the j-th of the consecutive calls
    integers(0, high[0]), integers(0, high[1]), ... on stream(seed,
    *head_tags, *tail[r]), bitwise, as a (rows, size) int64 array, for
    `size` bounds `high`, each in [2, 2**32); with one bound repeated, row r
    is that stream's integers(0, high[0], size=size). The tail columns and
    `seed`, which may hold one root seed per row, are as _pcg_outputs takes
    them."""
    size = int(size)
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    bounds = [int(h) for h in high]
    for bound in bounds:
        if not 2 <= bound < 1 << 32:
            raise ValueError(f"high must lie in [2, 2**32), got {bound}")
    if len(bounds) != size:
        raise ValueError(f"high needs {size} per-column bounds, got {len(bounds)}")
    # column j reads the j-th 32-bit half, the low half of each output first
    out = _pcg_outputs(seed, head_tags, tail_columns, rows, (size + 1) // 2)
    high_col = np.array(bounds, dtype=np.uint64)
    scaled = out.view("<u4")[:, :size] * high_col
    result = (scaled >> 32).astype(np.int64)
    # numpy redraws when the low word falls below 2**32 mod high
    rejected = ((scaled & _M32) < (1 << 32) % high_col).any(axis=1)
    for r in np.flatnonzero(rejected):
        rng = _row_stream(seed, head_tags, tail_columns, r)
        result[r] = [rng.integers(0, bound) for bound in bounds]
    return result


def uniform_rows(seed: int, head_tags: tuple, tail_columns, rows: int, low: float,
                 high: float, size: int) -> np.ndarray:
    """Row r equals stream(seed, *head_tags, *tail[r]).uniform(low, high,
    size), bitwise, as a (rows, size) float64 array: numpy's
    low + (high - low) * u, with u the top 53 bits of one output over 2**53,
    which never rejects a draw."""
    low, high, size = float(low), float(high), int(size)
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    span = high - low  # numpy's checks and messages
    if not np.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if np.signbit(span):  # -0.0 too: uniform(0.0, -0.0) raises
        raise ValueError("high - low < 0")
    out = _pcg_outputs(seed, head_tags, tail_columns, rows, size)
    return low + span * ((out >> 11) * 2.0 ** -53)


def episode_seeds(seed: int, tag: object, count: int) -> list[int]:
    """[episode_seed(seed, tag, i) for i in range(count)]: numpy's 64-bit
    Lemire draw on each stream's first output. A row whose draw numpy would
    redraw (its low word below 2**64 mod EPISODE_SEED_HIGH, which is 2)
    comes from episode_seed itself."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    first = _pcg_outputs(seed, (tag,), (np.arange(count),), count, 1)[:, 0].tolist()
    seeds = []
    for i, word in enumerate(first):
        product = word * EPISODE_SEED_HIGH
        seeds.append(product >> 64 if product & _M64 >= _SEED_THRESHOLD
                     else episode_seed(seed, tag, i))
    return seeds
