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

Every k-wise hash is evaluated as one rows x queries grid. The
const_mul tables of the query points are stacked by query index once
per batch_answers call, in a dict local to that call and keyed by
FieldSpec, so each Horner step is one gather per byte of the
accumulator over the whole grid.

The column forms cover every slot a layout draws: k-wise hashes (with
or without a window), lazy-random functions and padded views of them,
tables, and the levin, pp and adw combiners over them. A block of
affine adw keys (combine.is_affine) asked for more than d+1 points is
answered from per-row byte tables of its inner values, as an ADWOracle
answers once folded.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class _ConstMul:
    """Tables for multiplying field elements by one fixed element c.

    The variable operand is split into bytes; each byte position has a
    256-entry table of c * (byte << position) products (one table of
    all 2^w products for w <= 8), and the XOR of the looked-up entries
    is the product. Exact by linearity of carryless multiplication over
    GF(2), which also builds the tables: they are gf.linear_tables of
    the w products c * 2^b, each the double of the one before (shift
    left, then XOR the reduction polynomial on overflow).
    """

    def __init__(self, spec: FieldSpec, c: int):
        w = spec.width
        powers = []
        for _ in range(w):
            powers.append(c)
            c <<= 1
            if c >> w:
                c ^= spec.poly
        self.tables = tuple(linear_tables(powers, min(8, w)))


_CONST_MUL_CACHE: dict[tuple[FieldSpec, int], _ConstMul] = {}


def const_mul(spec: FieldSpec, c: int) -> _ConstMul:
    key = (spec, c)
    cm = _CONST_MUL_CACHE.get(key)
    if cm is None:
        cm = _CONST_MUL_CACHE[key] = _ConstMul(spec, c)
    return cm


def blocks(rows: int, q: int):
    """Consecutive ranges of at most max(1, BLOCK_ELEMS // q) rows."""
    step = max(1, BLOCK_ELEMS // max(1, q))
    return (range(start, min(start + step, rows)) for start in range(0, rows, step))


class _Points:
    """The query points of one evaluation and, per field, their const_mul
    tables stacked by query index (built on first use, from the cache)."""

    def __init__(self, xs):
        self.xs = list(xs)
        self._stacked: dict[FieldSpec, tuple[np.ndarray, ...]] = {}

    def _tables(self, spec: FieldSpec) -> tuple[np.ndarray, ...]:
        stacked = self._stacked.get(spec)
        if stacked is None:
            per_point = [const_mul(spec, x).tables for x in self.xs]
            stacked = self._stacked[spec] = tuple(
                np.concatenate(byte_tables) for byte_tables in zip(*per_point))
        return stacked

    def horner(self, coeffs: np.ndarray, spec: FieldSpec, range_bits: int) -> np.ndarray:
        """Evaluate N polynomials (rows of coeffs, a0 first) at every point: (N, q)."""
        n, k = coeffs.shape
        q = len(self.xs)
        if q == 0:
            return np.zeros((n, 0), dtype=np.uint64)
        tables = self._tables(spec)
        # point j's entries start at j * (table size) in each stacked table
        offsets = np.arange(q, dtype=np.intp) * (len(tables[0]) // q)
        idx = np.empty((n, q), dtype=np.intp)
        acc = np.ascontiguousarray(np.broadcast_to(coeffs[:, k - 1:k], (n, q)))
        for i in range(k - 2, -1, -1):
            # little-endian bytes, so byte pos indexes the tables of byte position pos
            acc_bytes = acc.astype("<u8", copy=False).view(np.uint8).reshape(n, q, 8)
            nxt = coeffs[:, i:i + 1]
            for pos, table in enumerate(tables):
                np.add(acc_bytes[:, :, pos], offsets, out=idx)
                nxt = nxt ^ table.take(idx)
            acc = nxt
        return acc & np.uint64(truncate(~0, range_bits))


# Column forms of key slots, one array row per trial. A slot has
# at(values) for its answers on a (trials, q) grid of values, or
# grid(points) for its answers at every query point; the slots that can
# be a whole oracle also carry its domain_bits and range_bits.

class _Hashes:
    """N k-wise hashes of one shape: coefficient rows, a0 first, and the
    output bits kept (hashfam.window_bits of the key's window)."""

    def __init__(self, coeffs: np.ndarray, spec: FieldSpec, domain_bits: int, out_bits: int):
        self.coeffs = coeffs
        self.spec = spec
        self.domain_bits = domain_bits
        self.out_bits = out_bits

    def grid(self, points: _Points) -> np.ndarray:
        return points.horner(self.coeffs, self.spec, self.out_bits)


class _Lazy:
    """N lazy-random functions, or padded views of them, cut to range_bits."""

    def __init__(self, seeds: np.ndarray, domain_bits: int, range_bits: int):
        self.seeds = seeds
        self.domain_bits = domain_bits
        self.range_bits = range_bits

    def at(self, values: np.ndarray) -> np.ndarray:
        return lazy_answers(self.seeds, values, self.range_bits)

    def grid(self, points: _Points) -> np.ndarray:
        return self.at(np.array(points.xs, dtype=np.uint64))


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

    def grid(self, points: _Points) -> np.ndarray:
        return self.f.at(self.h.grid(points))


@dataclass
class _PP:
    h1: _Hashes
    h2: _Hashes
    g: _Hashes
    f1: _Lazy
    f2: _Lazy

    def __post_init__(self):
        self.domain_bits, self.range_bits = self.h1.domain_bits, self.f1.range_bits

    def grid(self, points: _Points) -> np.ndarray:
        return (self.f1.at(self.h1.grid(points)) ^ self.f2.at(self.h2.grid(points))
                ^ self.g.grid(points))


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

    def grid(self, points: _Points) -> np.ndarray:
        if len(points.xs) > self.domain_bits + 1 and self._affine():
            inner1, inner2, yterm = self._folded(points)
        else:
            inner1, inner2, yterm = self._inner(points)
        return self.f1.at(inner1) ^ self.f2.at(inner2) ^ yterm

    def _inner(self, points: _Points):
        """The three inner values, (trials, q) each, one z column at a time."""
        inner1, inner2, yterm = (h.grid(points) for h in (self.h1, self.h2, self.ell))
        # one g column at a time, so only one (trials, q) grid of g values lives
        for g, m1, m2, y in zip(self.gbar, self.m1bar, self.m2bar, self.ybar):
            gv = g.grid(points)
            inner1 = inner1 ^ m1.at(gv)
            inner2 = inner2 ^ m2.at(gv)
            yterm = yterm ^ y.at(gv)
        return inner1, inner2, yterm

    def _affine(self) -> bool:
        """combine.is_affine for every row: hashes of degree <= 1, 2-entry tables."""
        return (all(h.coeffs.shape[1] <= 2 for h in (self.h1, self.h2, self.ell, *self.gbar))
                and all(isinstance(m, _Tables) and m.entries.shape[1] == 2
                        for bar in (self.m1bar, self.m2bar, self.ybar) for m in bar))

    def _folded(self, points: _Points):
        """The three inner values, (trials, q) each, from per-row byte
        tables of their affine map, which the values at x = 0 and at the
        d unit vectors give (combine.fold_adw in columns). One value and
        one byte table at a time, so a block holds one (trials, 256) table."""
        at_basis = self._inner(_Points([0] + [1 << j for j in range(self.domain_bits)]))
        xs = np.array(points.xs, dtype=np.uint64)
        point_bytes = [(xs >> np.uint64(pos)) & np.uint64(255)
                       for pos in range(0, self.domain_bits, 8)]
        folded = []
        for values in at_basis:
            const = values[:, :1]
            acc = np.repeat(const, len(xs), axis=1)
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
    return columns.grid(_Points(x.value for x in queries))


def block_keys(sampler, streams: KeyStreams, block: range, domain_bits: int):
    """The column form of a block of trials' keys, which a KeySampler's
    twin draws from the block's words. None for any other sampler, and
    for keys of another domain, so that the per-trial loop plays them.
    """
    if not isinstance(sampler, KeySampler):
        return None
    columns = sampler.layout(ColumnDraws(streams.heads(block)))
    return columns if columns.domain_bits == domain_bits else None
