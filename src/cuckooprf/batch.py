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
same either way; ColumnDraws.bar derives the words of a bar of z like
slots in at most two calls. A block is sampled, answered and decided
before the next one is sampled, so memory stays O(block * z) for adw
keys with z inner maps, however many trials or samples are asked for.
The z inner maps are evaluated in chunks stacked row-wise, each of at
most BLOCK_ELEMS grid cells, so their grids stay as small as a block's.

Every k-wise hash is evaluated as one rows x queries grid, coefficient
by coefficient: h(x_j) = a0 ^ a1 x_j ^ ... ^ a_{k-1} x_j^(k-1). Each
map a -> a * x_j^i is GF(2)-linear, so it has one table per digit of
a, and every term is one gather of q contiguous table entries per
digit over the whole grid. When w <= 8 the digit is all of a, whose
2^w-entry table it indexes directly: one gather per coefficient. Wider
fields take 16-entry tables per nibble (Shoup's 4-bit tables, as in
GHASH), because byte tables at the birthday shape (w = 32, k = 16,
128 points) would hold 7.5 MB instead of 0.94 MiB. The queries of a
game are fixed, so the tables of (field, points, k) are built once,
from doublings of the powers x_j^i without a field product, and kept
in a small LRU cache; FieldSpec.poly_eval is the scalar reference.

The column forms cover every slot a layout draws: k-wise hashes (with
or without a window), lazy-random functions and padded views of them,
tables, and the levin and adw combiners over them; a pp key is an adw
key with no inner maps. A block of affine adw keys (combine.is_affine,
which a pp key at k = 2 is) asked for more than u+1 points, u the
number of low bits its queries use, is answered from per-row byte
tables of its inner values over those u bits, built from the values at
u+1 basis points, as an ADWOracle answers once folded at d+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .bits import C1, KeyStreams, mix64_inplace, stream_words, truncate
from .gf import FieldSpec, default_spec, linear_tables
from .hashfam import width_for, window_bits
from .transform import KeySampler

# Rows x queries of one block: large enough that numpy's per-call cost
# is spread over many elements, small enough that a block of adw keys
# and its uint64 grids stay a few MB.
BLOCK_ELEMS = 1 << 15


def lazy_answers(seeds: np.ndarray, xs: np.ndarray, range_bits: int) -> np.ndarray:
    """prfcore.lazy_answer over a grid: seeds (N,) against xs (q,) or (N, q)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    inner = mix64_inplace(np.bitwise_xor(xs, np.uint64(C1), dtype=np.uint64, order="C"))
    if inner.ndim == 1:
        out = seeds[:, None] ^ inner
    else:  # inner is this call's own: the outer mix reuses it
        out = np.bitwise_xor(seeds[:, None], inner, out=inner)
    mix64_inplace(out)
    out &= np.uint64(truncate(~0, range_bits))
    return out


def blocks(rows: int, q: int):
    """Consecutive ranges of at most max(1, BLOCK_ELEMS // q) rows."""
    step = max(1, BLOCK_ELEMS // max(1, q))
    return (range(start, min(start + step, rows)) for start in range(0, rows, step))


def _element_dtype(spec: FieldSpec) -> np.dtype:
    """The narrowest unsigned dtype that holds an element of the field."""
    return np.dtype(f"u{max(1, spec.width // 8)}")


@lru_cache(maxsize=8)
def _power_tables(spec: FieldSpec, xs: tuple[int, ...], k: int) -> np.ndarray:
    """Tables of multiplication by x_j^i for 1 <= i < k, in the field's
    narrowest unsigned dtype, one per power and digit position of a
    coefficient: entry [i - 1, p, m, j] is (m << digit * p) * x_j^i.
    A digit is the whole coefficient when w <= 8, so the shape is
    (k - 1, 1, 2^w, q), and a nibble otherwise, (k - 1, w / 4, 16, q):
    byte tables at the birthday shape (w = 32, k = 16, 128 points)
    would hold 7.5 MB, against 0.94 MiB of nibble tables.

    Multiplying by a fixed element is GF(2)-linear, so the tables are
    gf.linear_tables of the w doublings x_j^i * 2^b, each the one
    before shifted left with the low w bits of the reduction polynomial
    XORed in on overflow; x_j^i is the XOR of the doublings of
    x_j^(i-1) at the set bits of x_j. No field product is made.
    """
    w, q = spec.width, len(xs)
    digit = w if w <= 8 else 4
    mask, low = np.uint64(truncate(~0, w)), np.uint64(truncate(spec.poly, w))
    bits = (np.array(xs, dtype=np.uint64) >> np.arange(w, dtype=np.uint64)[:, None]) & np.uint64(1)
    basis = np.empty((k, w, q), dtype=np.uint64)
    basis[0] = 1 << np.arange(w, dtype=np.uint64)[:, None]
    for i in range(1, k):
        v = np.bitwise_xor.reduce(basis[i - 1] * bits, axis=0)
        for b in range(w):
            basis[i, b] = v
            v = ((v << np.uint64(1)) & mask) ^ (v >> np.uint64(w - 1)) * low
    tables = np.empty((k - 1, w // digit, 1 << digit, q), dtype=_element_dtype(spec))
    for pos, table in enumerate(linear_tables(basis[1:].transpose(0, 2, 1), digit)):
        tables[:, pos] = table.transpose(0, 2, 1)
    tables.flags.writeable = False  # one cached array is shared by every caller
    return tables


# Column forms of key slots, one array row per trial. A slot has
# at(values) for its answers on a (trials, q) grid of values, or
# grid(xs) for its answers at every query point; the slots that can
# be a whole oracle also carry its domain_bits and range_bits. The
# slots an adw key has z of also have a shape, which slots must share
# for stack(slots) to make one slot of all their rows, in turn.

class _Hashes:
    """N k-wise hashes of one shape: coefficient rows, a0 first, and the
    output bits kept (hashfam.window_bits of the key's window). ColumnDraws
    draws the rows in the field's narrowest unsigned dtype, as the power
    tables are, so a block's coefficients take w/64 of its words' bytes."""

    def __init__(self, coeffs: np.ndarray, spec: FieldSpec, domain_bits: int, out_bits: int):
        self.coeffs = coeffs
        self.spec = spec
        self.domain_bits = domain_bits
        self.out_bits = out_bits

    @property
    def shape(self):
        return _Hashes, self.coeffs.shape[1], self.spec, self.out_bits

    @classmethod
    def stack(cls, slots):
        one = slots[0]
        return cls(np.concatenate([h.coeffs for h in slots]), one.spec, one.domain_bits,
                   one.out_bits)

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        """h(x_j) = a0 ^ XOR over i >= 1 of a_i * x_j^i, one coefficient
        column at a time: each digit of a_i picks one row of q values
        from its table of x^i, a gather of contiguous rows over the grid.
        When w <= 8 the digit is a_i itself: one gather per coefficient,
        with no shift or mask. Wider fields take a_i's nibbles, whose
        tables stay small (_power_tables)."""
        coeffs = self.coeffs
        tables = _power_tables(self.spec, xs, coeffs.shape[1])
        acc = np.repeat(coeffs[:, :1].astype(tables.dtype), len(xs), axis=1)
        if tables.shape[1] == 1:
            for a, (table,) in zip(coeffs.T[1:], tables):
                acc ^= table.take(a, axis=0)
        else:
            for a, per_nibble in zip(coeffs.T[1:], tables):
                for pos, table in enumerate(per_nibble):
                    acc ^= table.take((a >> 4 * pos) & 15, axis=0)
        out = acc.astype(np.uint64)
        out &= np.uint64(truncate(~0, self.out_bits))
        return out


class _Lazy:
    """N lazy-random functions, or padded views of them, cut to range_bits."""

    def __init__(self, seeds: np.ndarray, domain_bits: int, range_bits: int):
        self.seeds = seeds
        self.domain_bits = domain_bits
        self.range_bits = range_bits

    @property
    def shape(self):
        return _Lazy, self.range_bits

    @classmethod
    def stack(cls, slots):
        one = slots[0]
        return cls(np.concatenate([f.seeds for f in slots]), one.domain_bits, one.range_bits)

    def at(self, values: np.ndarray) -> np.ndarray:
        return lazy_answers(self.seeds, values, self.range_bits)

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        return self.at(np.array(xs, dtype=np.uint64))


class _Tables:
    """N random tables of one length: entries (N, length)."""

    def __init__(self, entries: np.ndarray):
        self.entries = entries

    @property
    def shape(self):
        return _Tables, self.entries.shape[1]

    @classmethod
    def stack(cls, slots):
        return cls(np.concatenate([t.entries for t in slots]))

    def at(self, values: np.ndarray) -> np.ndarray:
        """Row t's entry at each of values[t], which the g indexing the
        tables keeps below their length; one take on the raveled entries,
        2-3x faster than take_along_axis at the adw shapes."""
        rows, length = self.entries.shape
        index = values.astype(np.intp)
        index += np.arange(0, rows * length, length)[:, None]
        return self.entries.ravel().take(index)


@dataclass
class _Levin:
    h: _Hashes
    f: _Lazy

    def __post_init__(self):
        self.domain_bits, self.range_bits = self.h.domain_bits, self.f.range_bits

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        return self.f.at(self.h.grid(xs))


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
        used = max(xs, default=0).bit_length()
        if len(xs) > used + 1 and self._affine():
            inner1, inner2, yterm = self._folded(xs, used)
        else:
            inner1, inner2, yterm = self._inner(xs)
        out = self.f1.at(inner1)
        out ^= self.f2.at(inner2)
        out ^= yterm
        return out

    def _inner(self, xs: tuple[int, ...]):
        """The three inner values, (trials, q) each.

        The z inner maps go in chunks of consecutive slots whose g, m1,
        m2 and y each have one shape: a chunk's slots are stacked into
        one column slot of chunk * trials rows, so it takes one g grid
        and one lookup per bar, whose values are XORed in slot by slot.
        A chunk holds as many slots as keep chunk * trials * q within
        BLOCK_ELEMS, so its grids stay as small as a block's.
        """
        inner = [h.grid(xs) for h in (self.h1, self.h2, self.ell)]
        rows = len(inner[0])
        chunk = max(1, BLOCK_ELEMS // max(1, rows * len(xs)))
        slots = zip(self.gbar, self.m1bar, self.m2bar, self.ybar)
        for _, run in groupby(slots, key=lambda maps: tuple(m.shape for m in maps)):
            run = list(run)
            for start in range(0, len(run), chunk):
                part = run[start:start + chunk]
                g, *maps = (type(bar[0]).stack(bar) for bar in zip(*part))
                gv = g.grid(xs)
                for acc, m in zip(inner, maps):
                    for values in m.at(gv).reshape(len(part), rows, len(xs)):
                        acc ^= values
        return inner

    def _affine(self) -> bool:
        """combine.is_affine for every row: hashes of degree <= 1, 2-entry tables."""
        return (all(h.coeffs.shape[1] <= 2 for h in (self.h1, self.h2, self.ell, *self.gbar))
                and all(isinstance(m, _Tables) and m.entries.shape[1] == 2
                        for bar in (self.m1bar, self.m2bar, self.ybar) for m in bar))

    def _folded(self, xs: tuple[int, ...], used: int):
        """The three inner values, (trials, q) each, from per-row byte
        tables of their affine map on the low `used` bits, which hold
        every x in xs (combine.fold_adw in columns): the values at x = 0
        and at 1, 2, ..., 2^(used-1) give the map. One value and one byte
        table at a time, so a block holds one (trials, 2^min(8, used)) table."""
        at_basis = self._inner((0, *(1 << j for j in range(used))))
        points = np.array(xs, dtype=np.uint64)
        point_bytes = [(points >> np.uint64(pos)) & np.uint64(255) for pos in range(0, used, 8)]
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
    getrandbits; each slot's words are derived when it is drawn, and
    a bar's in at most two calls (bar).
    """

    def __init__(self, heads: np.ndarray):
        self._heads = heads
        self._next = 0
        self._ahead = range(0), None  # columns bar derived ahead, and their words

    def _words(self, count: int, bits: int) -> np.ndarray:
        cols = range(self._next, self._next + count)
        self._next += count
        mask = np.uint64(truncate(~0, bits))
        ahead, words = self._ahead
        if cols and cols[0] in ahead and cols[-1] in ahead:
            return words[:, cols.start - ahead.start:cols.stop - ahead.start] & mask
        words = stream_words(self._heads, cols)
        words &= mask
        return words

    def bar(self, z: int, draw) -> tuple:
        """z slots of draw(). The first slot's words are derived as it is
        drawn; the other z - 1 slots' words, as many per slot as the first
        read, are derived in one call, so a bar reads the words the scalar
        draws read with at most two stream_words calls. A draw that reads
        past them derives the rest as it goes."""
        if z == 0:
            return ()
        start = self._next
        first = draw()
        cols = range(self._next, self._next + (z - 1) * (self._next - start))
        self._ahead = cols, stream_words(self._heads, cols)
        rest = tuple(draw() for _ in range(z - 1))
        self._ahead = range(0), None
        return (first, *rest)

    def kwise(self, k: int, domain_bits: int, range_bits: int,
              window: int | None = None) -> _Hashes:
        spec = default_spec(width_for(domain_bits, range_bits))
        coeffs = self._words(k, spec.width).astype(_element_dtype(spec))
        return _Hashes(coeffs, spec, domain_bits, window_bits(window, range_bits))

    def prf(self, domain_bits: int, range_bits: int) -> _Lazy:
        return _Lazy(self._words(1, 64)[:, 0], domain_bits, range_bits)

    def table(self, count: int, entry_bits: int, window: int | None = None) -> _Tables:
        return _Tables(self._words(count, window_bits(window, entry_bits)))

    def padded(self, f: _Lazy, domain_bits: int, range_bits: int) -> _Lazy:
        return _Lazy(f.seeds, domain_bits, range_bits)

    levin = _Levin
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
