"""Vectorized evaluation for nonadaptive games and tuple sampling.

The scalar oracles define the expected behavior; this module
reproduces their arithmetic with numpy so experiments scale to
thousands of trials and millions of key samples, and the test suite
pins the batched output to the scalar output pointwise for every
slot layout.

games.run_game and games.tuple_uniformity_sd walk their trials or
samples in blocks (blocks) of max(1, BLOCK_ELEMS // q) rows for q
queries. A transform.KeySampler is sampled by its numpy twin: its slot
layout runs on ColumnDraws, which reads every slot straight from the
word matrix of a block of key streams (bits.stream_words), so the
coefficients, seeds and tables go into arrays without a per-trial key
object, and batch_answers answers them as one matrix. block_keys
returns None for any other sampler, whose trials the caller then plays
one at a time. KeyDraws reads the same words, so the answers are the
same either way. A block is sampled, answered and decided before the
next one is sampled, so memory stays O(block * z) for adw keys with z
inner maps, however many trials or samples are asked for.

Every k-wise hash is evaluated as one rows x queries grid, coefficient
by coefficient: h(x_j) = a0 ^ a1 x_j ^ ... ^ a_{k-1} x_j^(k-1). Each
map a -> a * x_j^i is GF(2)-linear, so it has one 16-entry table per
nibble of a (Shoup's 4-bit tables, as in GHASH), and every term is one
gather of q contiguous table entries per nibble over the whole grid.
The queries of a game are fixed, so the tables of (field, points, k)
are built once, from doublings of the powers x_j^i without a field
product, and kept in a small LRU cache; FieldSpec.poly_eval is the
scalar reference.

The column forms cover every slot a layout draws: k-wise hashes (with
or without a window), lazy-random functions and padded views of them,
tables, and the levin, pp and adw combiners over them. A block of
affine adw keys (combine.is_affine) asked for more than d+1 points is
answered from per-row byte tables of its inner values, as an ADWOracle
answers once folded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import C1, KeyStreams, mix64_np, stream_words, truncate
from .gf import FieldSpec, default_spec, linear_tables
from .hashfam import width_for, window_bits
from .transform import KeySampler

# Rows x queries of one block: large enough that numpy's per-call cost
# is spread over many elements, small enough that a block of adw keys
# and its uint64 grids stay a few MB.
BLOCK_ELEMS = 1 << 15


def lazy_answers(seeds: np.ndarray, xs: np.ndarray, range_bits: int) -> np.ndarray:
    """prfcore.lazy_answer over a grid: seeds (N,) against xs (q,) or (N, q)."""
    inner = mix64_np(np.asarray(xs, dtype=np.uint64) ^ np.uint64(C1))
    if inner.ndim == 1:
        inner = inner[None, :]
    out = mix64_np(np.asarray(seeds, dtype=np.uint64)[:, None] ^ inner)
    return out & np.uint64(truncate(~0, range_bits))


def blocks(rows: int, q: int):
    """Consecutive ranges of at most max(1, BLOCK_ELEMS // q) rows."""
    step = max(1, BLOCK_ELEMS // max(1, q))
    return (range(start, min(start + step, rows)) for start in range(0, rows, step))


@lru_cache(maxsize=8)
def _power_tables(spec: FieldSpec, xs: tuple[int, ...], k: int) -> np.ndarray:
    """Nibble tables of multiplication by x_j^i for 1 <= i < k, in the
    field's narrowest unsigned dtype: entry [i - 1, p, m, j] is
    (m << 4p) * x_j^i, one (16, q) table per power and nibble position.

    Multiplying by a fixed element is GF(2)-linear, so the tables are
    gf.linear_tables of the w doublings x_j^i * 2^b, each the one
    before shifted left with the low w bits of the reduction polynomial
    XORed in on overflow; x_j^i is the XOR of the doublings of
    x_j^(i-1) at the set bits of x_j. No field product is made.
    """
    w, q = spec.width, len(xs)
    mask, low = np.uint64(truncate(~0, w)), np.uint64(truncate(spec.poly, w))
    bits = (np.array(xs, dtype=np.uint64) >> np.arange(w, dtype=np.uint64)[:, None]) & np.uint64(1)
    basis = np.empty((k, w, q), dtype=np.uint64)
    basis[0] = 1 << np.arange(w, dtype=np.uint64)[:, None]
    for i in range(1, k):
        v = np.bitwise_xor.reduce(basis[i - 1] * bits, axis=0)
        for b in range(w):
            basis[i, b] = v
            v = ((v << np.uint64(1)) & mask) ^ (v >> np.uint64(w - 1)) * low
    tables = np.empty((k - 1, w // 4, 16, q), dtype=f"u{max(1, w // 8)}")
    for pos, table in enumerate(linear_tables(basis[1:].transpose(0, 2, 1), 4)):
        tables[:, pos] = table.transpose(0, 2, 1)
    tables.flags.writeable = False  # one cached array is shared by every caller
    return tables


# Column forms of key slots, one array row per trial. A slot has
# at(values) for its answers on a (trials, q) grid of values, or
# grid(xs) for its answers at every query point; the slots that can
# be a whole oracle also carry its domain_bits and range_bits.

class _Hashes:
    """N k-wise hashes of one shape: coefficient rows, a0 first, and the
    output bits kept (hashfam.window_bits of the key's window)."""

    def __init__(self, coeffs: np.ndarray, spec: FieldSpec, domain_bits: int, out_bits: int):
        self.coeffs = coeffs
        self.spec = spec
        self.domain_bits = domain_bits
        self.out_bits = out_bits

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        """h(x_j) = a0 ^ XOR over i >= 1 of a_i * x_j^i, one coefficient
        column at a time: each nibble of a_i picks one row of q values
        from its table of x^i, a gather of contiguous rows over the grid."""
        coeffs = self.coeffs
        tables = _power_tables(self.spec, xs, coeffs.shape[1])
        acc = np.repeat(coeffs[:, :1].astype(tables.dtype), len(xs), axis=1)
        for a, per_nibble in zip(coeffs.T[1:], tables):
            for pos, table in enumerate(per_nibble):
                acc ^= table.take((a >> np.uint64(4 * pos)) & np.uint64(15), axis=0)
        return acc.astype(np.uint64) & np.uint64(truncate(~0, self.out_bits))


class _Lazy:
    """N lazy-random functions, or padded views of them, cut to range_bits."""

    def __init__(self, seeds: np.ndarray, domain_bits: int, range_bits: int):
        self.seeds = seeds
        self.domain_bits = domain_bits
        self.range_bits = range_bits

    def at(self, values: np.ndarray) -> np.ndarray:
        return lazy_answers(self.seeds, values, self.range_bits)

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        return self.at(np.array(xs, dtype=np.uint64))


class _Tables:
    """N random tables of one length: entries (N, length)."""

    def __init__(self, entries: np.ndarray):
        self.entries = entries

    def at(self, values: np.ndarray) -> np.ndarray:
        return np.take_along_axis(self.entries, values.astype(np.intp), axis=1)


@dataclass
class _Levin:
    h: _Hashes
    f: _Lazy

    def __post_init__(self):
        self.domain_bits, self.range_bits = self.h.domain_bits, self.f.range_bits

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        return self.f.at(self.h.grid(xs))


@dataclass
class _PP:
    h1: _Hashes
    h2: _Hashes
    g: _Hashes
    f1: _Lazy
    f2: _Lazy

    def __post_init__(self):
        self.domain_bits, self.range_bits = self.h1.domain_bits, self.f1.range_bits

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        return (self.f1.at(self.h1.grid(xs)) ^ self.f2.at(self.h2.grid(xs))
                ^ self.g.grid(xs))


@dataclass
class _ADW:
    h1: _Hashes
    h2: _Hashes
    ell: _Hashes
    gbar: tuple
    m1bar: tuple
    m2bar: tuple
    ybar: tuple
    f1: _Lazy
    f2: _Lazy

    def __post_init__(self):
        self.domain_bits, self.range_bits = self.h1.domain_bits, self.f1.range_bits

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        if len(xs) > self.domain_bits + 1 and self._affine():
            inner1, inner2, yterm = self._folded(xs)
        else:
            inner1, inner2, yterm = self._inner(xs)
        return self.f1.at(inner1) ^ self.f2.at(inner2) ^ yterm

    def _inner(self, xs: tuple[int, ...]):
        """The three inner values, (trials, q) each, one z column at a time."""
        inner1, inner2, yterm = (h.grid(xs) for h in (self.h1, self.h2, self.ell))
        # one g column at a time, so only one (trials, q) grid of g values lives
        for g, m1, m2, y in zip(self.gbar, self.m1bar, self.m2bar, self.ybar):
            gv = g.grid(xs)
            inner1 = inner1 ^ m1.at(gv)
            inner2 = inner2 ^ m2.at(gv)
            yterm = yterm ^ y.at(gv)
        return inner1, inner2, yterm

    def _affine(self) -> bool:
        """combine.is_affine for every row: hashes of degree <= 1, 2-entry tables."""
        return (all(h.coeffs.shape[1] <= 2 for h in (self.h1, self.h2, self.ell, *self.gbar))
                and all(isinstance(m, _Tables) and m.entries.shape[1] == 2
                        for bar in (self.m1bar, self.m2bar, self.ybar) for m in bar))

    def _folded(self, xs: tuple[int, ...]):
        """The three inner values, (trials, q) each, from per-row byte
        tables of their affine map, which the values at x = 0 and at the
        d unit vectors give (combine.fold_adw in columns). One value and
        one byte table at a time, so a block holds one (trials, 256) table."""
        at_basis = self._inner((0, *(1 << j for j in range(self.domain_bits))))
        points = np.array(xs, dtype=np.uint64)
        point_bytes = [(points >> np.uint64(pos)) & np.uint64(255)
                       for pos in range(0, self.domain_bits, 8)]
        folded = []
        for values in at_basis:
            const = values[:, :1]
            acc = np.repeat(const, len(points), axis=1)
            for table, idx in zip(linear_tables(values[:, 1:] ^ const), point_bytes):
                acc ^= table[:, idx]
            folded.append(acc)
        return folded


class ColumnDraws:
    """transform.KeyDraws on a block of key streams, one row per stream.

    A slot takes the next words of every stream, in the order the
    layout draws them, exactly as KeyDraws takes them from one stream's
    getrandbits; each slot's words are derived when it is drawn.
    """

    def __init__(self, heads: np.ndarray):
        self._heads = heads
        self._next = 0

    def _words(self, count: int, bits: int) -> np.ndarray:
        cols = range(self._next, self._next + count)
        self._next += count
        return stream_words(self._heads, cols) & np.uint64(truncate(~0, bits))

    def kwise(self, k: int, domain_bits: int, range_bits: int,
              window: int | None = None) -> _Hashes:
        w = width_for(domain_bits, range_bits)
        out_bits = window_bits(window, range_bits)
        return _Hashes(self._words(k, w), default_spec(w), domain_bits, out_bits)

    def prf(self, domain_bits: int, range_bits: int) -> _Lazy:
        return _Lazy(self._words(1, 64)[:, 0], domain_bits, range_bits)

    def table(self, count: int, entry_bits: int, window: int | None = None) -> _Tables:
        return _Tables(self._words(count, window_bits(window, entry_bits)))

    def padded(self, f: _Lazy, domain_bits: int, range_bits: int) -> _Lazy:
        return _Lazy(f.seeds, domain_bits, range_bits)

    levin = _Levin
    pp = _PP
    adw = _ADW


def batch_answers(columns, queries) -> np.ndarray:
    """Answer matrix (trials, queries) as raw uint64 values of the
    column form of a block of keys that block_keys drew."""
    return columns.grid(tuple(x.value for x in queries))


def block_keys(sampler, streams: KeyStreams, block: range, domain_bits: int):
    """The column form of a block of trials' keys, which a KeySampler's
    twin draws from the block's words. None for any other sampler, and
    for keys of another domain, so that the per-trial loop plays them.
    """
    if not isinstance(sampler, KeySampler):
        return None
    columns = sampler.layout(ColumnDraws(streams.heads(block)))
    return columns if columns.domain_bits == domain_bits else None
