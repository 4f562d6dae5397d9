"""Vectorized evaluation for nonadaptive games and tuple sampling.

The scalar oracles define the expected behavior; this module
reproduces their arithmetic with numpy so experiments scale to
thousands of trials and millions of key samples, and the test suite
pins the batched output to the scalar output pointwise for every
slot layout.

games._walk, the one block walker of games.run_game and
games.tuple_uniformity_sd, walks their trials or samples in blocks
(blocks) of max(1, BLOCK_ELEMS // q) rows for q queries. A
transform.KeySampler is sampled by its numpy twin: its slot layout runs
on ColumnDraws, which reads every slot straight from the word matrix of
a block of key streams (bits.stream_words), so the coefficients, seeds
and tables go into arrays without a per-trial key object, and
batch_answers answers them as one matrix. block_keys returns None for
any other sampler, whose trials the walker then plays one at a time. KeyDraws reads the same words, so the answers are the
same either way. ColumnDraws.bar draws a bar of z like slots as one
column slot of z * rows rows, slot i in rows i * rows to (i + 1) * rows,
from words derived in one stream_words call. A block is sampled,
answered and decided before the next one is sampled, so memory stays
O(block * z) for adw keys with z inner maps, however many trials or
samples are asked for. The z inner maps are evaluated in chunks of
consecutive slots, row slices of the stacked bars, each of at most
BLOCK_ELEMS grid cells, so their grids stay as small as a block's.

A block's arrays (its heads and words, coefficients, seeds and tables,
hash grids and their sums, lazy answers, and the scratch a mix writes
its shifts into, as long as the array it mixes) are taken from a
Workspace, which the block walker resets before each block: the first
block sizes it, and a block of the same shape after it allocates no
array of its own. Buffers whose lifetimes do not overlap share memory
(Workspace.frame), so the workspace holds what a block holds at once,
and nothing in it outlives the walker's call. The answer matrix
batch_answers returns is the workspace's too, so decide reads it within
the block; a decide that keeps values past the block copies them.

Every k-wise hash is evaluated as one rows x queries grid, coefficient
by coefficient: h(x_j) = a0 ^ a1 x_j ^ ... ^ a_{k-1} x_j^(k-1). Each
map a -> a * x_j^i is GF(2)-linear, so it has one table per digit of
a, and every term is one gather of q contiguous table entries per
digit over the whole grid. When w <= 8 the digit is all of a, whose
2^w-entry table it indexes directly: one gather per coefficient, a0's
from the table of x^0. Wider fields take 16-entry tables per nibble
(Shoup's 4-bit tables, as in GHASH), because byte tables at the
birthday shape (w = 32, k = 16, 128 points) would hold 7.5 MB, and
broadcast a0. A grid works at the width of the bits it keeps: its
tables hold only the low min(out_bits, w) bits of each entry, in the
narrowest unsigned dtype that holds them (uint16 for birthday's 12-bit
h1, h2 and levin h, 0.47 MiB; uint32 for its 24-bit g, 0.94 MiB), so
each gather and XOR moves that many bytes per entry and the sum needs
no final mask. The queries of a game are fixed, so the tables of
(field, points, k, kept bits) are built once, from doublings of the
powers x_j^i without a field product, and kept in a small LRU cache;
FieldSpec.poly_eval is the scalar reference.

A lazy-random function answers a grid of points of its domain with
prfcore.lazy_answer's two mixes, the inner one, mix64(x ^ C1), read
from a cached table of the whole domain when that holds no more
entries than a block's grid (BLOCK_ELEMS), as the s-bit f of the
uniformity and birthday workloads does.

The column forms cover every slot a layout draws: k-wise hashes (with
or without a window), lazy-random functions and padded views of them,
tables, and the levin and adw combiners over them; a pp key is an adw
key with no inner maps. A block of affine adw keys (combine.is_affine,
which a pp key at k = 2 is) asked for more than u+1 points, u the
number of low bits its queries use, is answered from per-row byte
tables of its inner values over those u bits, built from the values at
u+1 basis points; the probe fold (combine.fold_adw) folds all d bits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import C1, KeyStreams, mix64_inplace, stream_words, truncate
from .gf import FieldSpec, default_spec, linear_tables
from .hashfam import width_for, window_bits
from .transform import KeySampler

# Rows x queries of one block: large enough that numpy's per-call cost
# is spread over many elements, small enough that a block of adw keys
# and its uint64 grids stay a few MB.
BLOCK_ELEMS = 1 << 15


# Byte alignment of every buffer a Workspace hands out.
_ALIGN = 64


class Workspace:
    """The block-sized scratch buffers of a block loop.

    games._walk makes one per call, that is one per world of
    games.run_game and one per games.tuple_uniformity_sd, and resets it
    before every block; nothing in it outlives the call. empty(shape,
    dtype) hands out views of one flat buffer, stacked in the order they
    are taken. A view is its taker's until the workspace is reset, or
    until the frame() it was taken in exits; then the next empty() takes
    its bytes again. So buffers whose lifetimes do not overlap, such as
    the word matrices of a block's k-wise slots, share memory, and the
    buffer is as long as the most a block held at once. What a block
    takes past the buffer's end is a fresh array, and the next reset()
    grows the buffer to that high-water mark: the first block allocates
    as it would without a workspace, and the blocks after it, if no
    larger, allocate nothing. A new workspace has no buffer, so every
    array it hands out is fresh.
    """

    def __init__(self):
        self._buffer = np.empty(0, dtype=np.uint8)
        self._top = 0  # bytes taken, in the order taken
        self._high = 0  # the most bytes taken at once

    def empty(self, shape: tuple, dtype) -> np.ndarray:
        """An uninitialized array of the workspace (a fresh one past its end)."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        start, self._top = self._top, self._top + -(-nbytes // _ALIGN) * _ALIGN
        self._high = max(self._high, self._top)
        if self._top > len(self._buffer):
            return np.empty(shape, dtype)
        return self._buffer[start:start + nbytes].view(dtype).reshape(shape)

    @contextmanager
    def frame(self):
        """Give back, on exit, every buffer taken inside."""
        top = self._top
        yield
        self._top = top

    def reset(self):
        """Give back every buffer, growing the workspace to the most a
        block has held at once."""
        if self._high > len(self._buffer):
            self._buffer = np.empty(0, dtype=np.uint8)  # freed before its successor is made
            self._buffer = np.empty(self._high, dtype=np.uint8)
        self._top = 0

    def scratch(self, elements: int) -> np.ndarray:
        """A mix64_inplace scratch of `elements` uint64 words: the bytes
        past the last buffer taken, which the next empty() takes again."""
        with self.frame():
            return self.empty((elements,), np.uint64)


@lru_cache(maxsize=16)
def _inner_mixes(domain_bits: int) -> np.ndarray:
    """mix64(x ^ C1) for every x of a domain_bits-bit domain, the inner
    half of prfcore.lazy_answer, read-only. lazy_answers builds it only
    while it holds at most BLOCK_ELEMS entries (256 KiB), no more than
    one block's grid."""
    table = np.arange(1 << domain_bits, dtype=np.uint64)
    table ^= np.uint64(C1)
    mix64_inplace(table)
    table.flags.writeable = False  # one cached array is shared by every caller
    return table


def lazy_answers(seeds: np.ndarray, xs: np.ndarray, range_bits: int, domain_bits: int = 64,
                 out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """prfcore.lazy_answer over a grid: seeds (N,) against xs (q,) or
    (N, q), points of a domain_bits-bit domain, written into out (N, q)
    if one is given, which may be xs. The inner half mix64(x ^ C1) of a
    (N, q) grid is read from the table of f's whole domain when that
    holds at most BLOCK_ELEMS entries (_inner_mixes), and mixed per
    point otherwise."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    if out is None:
        out = np.empty((len(seeds), xs.shape[-1]), dtype=np.uint64)
    if xs.ndim == 1:  # one row of points for every seed: mixed once
        out[...] = mix64_inplace(np.bitwise_xor(xs, np.uint64(C1), dtype=np.uint64))
    elif 1 << domain_bits <= BLOCK_ELEMS:
        # every point is below the table's length, and take reads each
        # index before it writes that entry over it
        _inner_mixes(domain_bits).take(xs.view(np.intp), out=out, mode="clip")
    else:
        np.bitwise_xor(xs, np.uint64(C1), out=out, dtype=np.uint64)
        mix64_inplace(out, scratch)
    out ^= seeds[:, None]
    mix64_inplace(out, scratch)
    out &= np.uint64(truncate(~0, range_bits))
    return out


def blocks(rows: int, q: int):
    """Consecutive ranges of at most max(1, BLOCK_ELEMS // q) rows."""
    step = max(1, BLOCK_ELEMS // max(1, q))
    return (range(start, min(start + step, rows)) for start in range(0, rows, step))


def _uint(bits: int) -> np.dtype:
    """The narrowest unsigned dtype that holds `bits` bits."""
    return np.dtype(f"u{next(n for n in (1, 2, 4, 8) if bits <= 8 * n)}")


@lru_cache(maxsize=8)
def _power_tables(spec: FieldSpec, xs: tuple[int, ...], k: int, kept: int) -> np.ndarray:
    """Tables of multiplication by x_j^i, cut to the low `kept` bits of
    each product and held in the narrowest unsigned dtype of kept bits,
    one per power and digit position of a coefficient: entry
    [i - first, p, m, j] is (m << digit * p) * x_j^i mod 2^kept. A digit
    is the whole coefficient when w <= 8, and then every power has a
    table, x^0 too (first = 0), so the shape is (k, 1, 2^w, q): a0 is
    gathered like the other coefficients. Otherwise a digit is a nibble,
    and the powers from x^1 (first = 1) have tables, (k - 1, w / 4, 16,
    q): byte tables at the birthday shape (w = 32, k = 16, 128 points)
    would hold 7.5 MB, against 0.94 MiB of 24-bit nibble tables in
    uint32 and 0.47 MiB of 12-bit ones in uint16.

    Multiplying by a fixed element is GF(2)-linear, so a digit's table
    is built as gf.linear_tables builds one, doubling row by row: row
    m + 2^b is row m XOR the map's value at the digit's bit b, here a
    doubling x_j^i * 2^(digit * p + b). A doubling is the one before
    shifted left, with the low w bits of the reduction polynomial XORed
    in on overflow; x_j^i is the XOR of the doublings of x_j at the set
    bits of x_j^(i-1). No field product is made. The doublings are made
    at the field's width, and each is stored cut to the kept bits in the
    tables' dtype, which cuts every table entry, as the maps are linear;
    so no uint64 array of the k * w * q doublings is ever held.
    """
    w, q = spec.width, len(xs)
    digit, first = (w, 0) if w <= 8 else (4, 1)
    mask, low = np.uint64(truncate(~0, w)), np.uint64(truncate(spec.poly, w))

    def doublings(v: np.ndarray, bits: int = w) -> np.ndarray:
        """v * 2^b for every b < w, along a new next-to-last axis, each
        cut to its low `bits` bits as it is stored, in their dtype."""
        out = np.empty((*v.shape[:-1], w, q), dtype=_uint(bits))
        for b in range(w):
            np.bitwise_and(v, truncate(~0, bits), out=out[..., b, :], casting="unsafe")
            v = ((v << np.uint64(1)) & mask) ^ (v >> np.uint64(w - 1)) * low
        return out

    by_x, bit = doublings(np.array(xs, dtype=np.uint64)), np.arange(w, dtype=np.uint64)[:, None]
    powers = np.ones((k, q), dtype=np.uint64)
    for i in range(1, k):
        powers[i] = np.bitwise_xor.reduce(by_x * ((powers[i - 1] >> bit) & 1), axis=0)
    dtype = _uint(kept)
    basis = doublings(powers[first:], kept).reshape(k - first, w // digit, digit, q)
    # gf.linear_tables with the table's axis before the q points: row
    # m + 2^b of a digit's table is row m ^ the doubling at its bit b
    tables = np.zeros((k - first, w // digit, 1 << digit, q), dtype=dtype)
    for b in range(digit):
        np.bitwise_xor(tables[:, :, :1 << b], basis[:, :, b:b + 1], out=tables[:, :, 1 << b:2 << b])
    tables.flags.writeable = False  # one cached array is shared by every caller
    return tables


# Column forms of key slots, one array row per trial. A slot has
# at(values) for its answers on a (trials, q) grid of values, or
# grid(xs) for its answers at every query point, taken from the slot's
# workspace; the slots that can be a whole oracle also carry its
# domain_bits and range_bits. The slots a bar stacks also have
# part(rows), the slot of those rows alone.


class _Hashes:
    """N k-wise hashes of one shape: coefficient rows, a0 first, and the
    output bits kept (hashfam.window_bits of the key's window). ColumnDraws
    draws the rows in the field's narrowest unsigned dtype, so a block's
    coefficients take w/64 of its words' bytes, and keeps each
    coefficient's column contiguous (coeffs.T is C-ordered)."""

    def __init__(self, coeffs: np.ndarray, spec: FieldSpec, domain_bits: int, out_bits: int,
                 ws: Workspace | None = None):
        self.coeffs = coeffs
        self.spec = spec
        self.domain_bits = domain_bits
        self.out_bits = out_bits
        self.ws = Workspace() if ws is None else ws

    def part(self, rows: slice) -> _Hashes:
        return _Hashes(self.coeffs[rows], self.spec, self.domain_bits, self.out_bits, self.ws)

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        """h(x_j) = XOR over i of a_i * x_j^i, one coefficient column at a
        time: each digit of a_i picks one row of q values from its table
        of x^i, a gather of contiguous rows over the grid. When w <= 8
        the digit is a_i itself: one gather per coefficient, with no shift
        or mask, a0's from the table of x^0 straight into the sum. Wider
        fields take a_i's nibbles, whose tables stay small
        (_power_tables), and a0, cut to the kept bits, is broadcast along
        the q queries, which costs less than its w / 4 gathers.

        The tables hold only the kept bits (hashfam.window_bits), in the
        narrowest dtype that holds them, and the sum is kept in that
        dtype, so it needs no final mask. A coefficient's digits are taken
        into one (digits, rows) index buffer of the workspace at once, and
        each gather goes through one term buffer."""
        coeffs, ws = self.coeffs, self.ws
        rows, q = len(coeffs), len(xs)
        kept = min(self.out_bits, self.spec.width)
        out = ws.empty((rows, q), np.uint64)
        tables = _power_tables(self.spec, xs, coeffs.shape[1], kept)
        first = coeffs.shape[1] - len(tables)  # the power of the first table
        digits = tables.shape[1]
        with ws.frame():
            acc = ws.empty((rows, q), tables.dtype)
            if first:
                np.bitwise_and(coeffs[:, :1], truncate(~0, kept), out=acc, casting="unsafe")
            index, term = ws.empty((digits, rows), np.intp), ws.empty((rows, q), tables.dtype)
            shifts = np.arange(0, 4 * digits, 4, dtype=coeffs.dtype)[:, None]
            for i, (a, per_digit) in enumerate(zip(coeffs.T[first:], tables)):
                if digits == 1:
                    np.copyto(index[0], a)
                else:
                    np.right_shift(a, shifts, out=index, casting="unsafe")
                    index &= 15
                for table, digit in zip(per_digit, index):
                    # every digit is below the table's length
                    if i or first:
                        acc ^= table.take(digit, axis=0, out=term, mode="clip")
                    else:  # a0 at w <= 8, the first term of the sum
                        table.take(digit, axis=0, out=acc, mode="clip")
            np.copyto(out, acc)
        return out


class _Lazy:
    """N lazy-random functions, or padded views of them, cut to range_bits."""

    def __init__(self, seeds: np.ndarray, domain_bits: int, range_bits: int, ws: Workspace):
        self.seeds = seeds
        self.domain_bits = domain_bits
        self.range_bits = range_bits
        self.ws = ws

    def part(self, rows: slice) -> _Lazy:
        return _Lazy(self.seeds[rows], self.domain_bits, self.range_bits, self.ws)

    def at(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The answers at values, written into out if one is given
        (values itself, when they are not needed after)."""
        if out is None:
            out = self.ws.empty(values.shape, np.uint64)
        return lazy_answers(self.seeds, values, self.range_bits, self.domain_bits, out,
                            self.ws.scratch(out.size))

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        out = self.ws.empty((len(self.seeds), len(xs)), np.uint64)
        return self.at(np.array(xs, dtype=np.uint64), out)


class _Tables:
    """N random tables of one length: entries (N, length), C-ordered."""

    def __init__(self, entries: np.ndarray, ws: Workspace):
        self.entries = entries
        self.ws = ws

    def part(self, rows: slice) -> _Tables:
        return _Tables(self.entries[rows], self.ws)

    def at(self, values: np.ndarray) -> np.ndarray:
        """Row t's entry at each of values[t], which the g indexing the
        tables keeps below their length; one take on the raveled entries,
        2-3x faster than take_along_axis at the adw shapes."""
        rows, length = self.entries.shape
        out = self.ws.empty(values.shape, np.uint64)
        # the flat index of each entry is built in out's bytes, and take
        # reads each index before it writes that entry over it
        index = out.view(np.intp)
        np.copyto(index, values, casting="unsafe")
        index += np.arange(0, rows * length, length)[:, None]
        return self.entries.ravel().take(index, out=out, mode="clip")


@dataclass
class _Levin:
    h: _Hashes
    f: _Lazy

    def __post_init__(self):
        self.domain_bits, self.range_bits = self.h.domain_bits, self.f.range_bits

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        values = self.h.grid(xs)
        return self.f.at(values, values)


@dataclass
class _ADW:
    """An adw key in columns. Each bar is the one slot ColumnDraws.bar
    stacked, z * trials rows with inner map i in rows i * trials to
    (i + 1) * trials, or () when the key has no inner maps."""
    h1: _Hashes
    h2: _Hashes
    ell: _Hashes
    gbar: _Hashes | tuple
    m1bar: _Lazy | _Tables | tuple
    m2bar: _Lazy | _Tables | tuple
    ybar: _Lazy | _Tables | tuple
    f1: _Lazy
    f2: _Lazy

    def __post_init__(self):
        self.domain_bits, self.range_bits = self.h1.domain_bits, self.f1.range_bits
        self.ws = self.h1.ws
        self.bars = (self.gbar, self.m1bar, self.m2bar, self.ybar)
        if self.bars == ((),) * 4:
            self.bars = ()
        elif any(isinstance(bar, tuple) for bar in self.bars):
            raise ValueError("the twin reads each bar as one stacked slot (ColumnDraws.bar), "
                             "not as a tuple of slots")

    def grid(self, xs: tuple[int, ...]) -> np.ndarray:
        """f1(inner1) ^ f2(inner2) ^ yterm, each f answered in place of
        its inner value, so the sum is kept where inner1 was taken."""
        used = max(xs, default=0).bit_length()
        if len(xs) > used + 1 and self._affine():
            inner1, inner2, yterm = self._folded(xs, used)
        else:
            inner1, inner2, yterm = self._inner(xs)
        answers = self.f1.at(inner1, inner1)
        answers ^= self.f2.at(inner2, inner2)
        answers ^= yterm
        return answers

    def _inner(self, xs: tuple[int, ...]) -> list:
        """The three inner values, (trials, q) each, in the block's
        workspace.

        The z inner maps go in chunks of consecutive slots, one row slice
        of each bar (part), so a chunk takes one g grid and one lookup
        per m or y bar, whose values are XORed in slot by slot. A chunk
        holds as many slots as keep chunk * trials * q within
        BLOCK_ELEMS, so its grids stay as small as a block's, and each
        chunk gives its workspace buffers back before the next.
        """
        inner = [self.h1.grid(xs), self.h2.grid(xs), self.ell.grid(xs)]
        rows, q = len(inner[0]), len(xs)
        step = max(1, rows * max(1, BLOCK_ELEMS // max(1, rows * q)))
        for start in range(0, len(self.gbar.coeffs) if self.bars else 0, step):
            with self.ws.frame():
                g, *maps = (bar.part(slice(start, start + step)) for bar in self.bars)
                gv = g.grid(xs)
                for acc, m in zip(inner, maps):
                    with self.ws.frame():
                        for values in m.at(gv).reshape(len(gv) // rows, rows, q):
                            acc ^= values
        return inner

    def _affine(self) -> bool:
        """combine.is_affine for every row: hashes of degree <= 1, 2-entry tables."""
        return (all(h.coeffs.shape[1] <= 2 for h in (self.h1, self.h2, self.ell, *self.bars[:1]))
                and all(isinstance(m, _Tables) and m.entries.shape[1] == 2
                        for m in self.bars[1:]))

    def _folded(self, xs: tuple[int, ...], used: int) -> list:
        """The three inner values, (trials, q) each, placed as _inner
        places them, from per-row byte tables of their affine map on the
        low `used` bits, which hold every x in xs (combine.fold_adw in
        columns): the values at x = 0 and at 1, 2, ..., 2^(used-1) give
        the map. One value and one byte table at a time, so a block holds
        one (trials, 2^min(8, used)) table. The values at the basis are
        taken first, so the grids of their chunks are given back before
        the three (trials, q) arrays are taken; the first byte's lookup
        is written straight into its value, and only the lookups of
        further bytes need a buffer of their own."""
        ws = self.ws
        at_basis = self._inner((0, *(1 << j for j in range(used))))
        points = np.array(xs, dtype=np.uint64)
        point_bytes = [(points >> np.uint64(pos)) & np.uint64(255) for pos in range(0, used, 8)]
        shape = (len(at_basis[0]), len(xs))
        folded = [ws.empty(shape, np.uint64) for _ in range(3)]
        with ws.frame():
            term = ws.empty(shape, np.uint64) if len(point_bytes) > 1 else None
            for values, acc in zip(at_basis, folded):
                const = values[:, :1]
                if not point_bytes:  # no bit is used, so every point is 0
                    acc[...] = 0
                # every byte of a point is below the table's length
                for pos, (table, idx) in enumerate(zip(linear_tables(values[:, 1:] ^ const),
                                                       point_bytes)):
                    table.take(idx, axis=1, out=term if pos else acc, mode="clip")
                    if pos:
                        acc ^= term
                acc ^= const
        return folded


class ColumnDraws:
    """transform.KeyDraws on a block of key streams, one row per stream.

    A slot takes the next words of every stream, in the order the
    layout draws them, exactly as KeyDraws takes them from one stream's
    getrandbits, and its words are derived in one stream_words call as
    it is drawn. A bar of z like slots is drawn as one slot of z * rows
    rows (bar). Every slot is kept in the workspace ws until it resets:
    k-wise coefficients and table entries are copied out of their words,
    which are given back at once; a prf's seeds are its words.
    """

    def __init__(self, heads: np.ndarray, ws: Workspace | None = None):
        self._heads = heads
        self.ws = Workspace() if ws is None else ws
        self._next = 0
        self._z = 1  # slots in the bar being drawn, 1 outside a bar
        self._slots = 0  # slots drawn, a bar's counted once

    def _words(self, count: int, bits: int = 64) -> np.ndarray:
        """The next count words of each of the z slots being drawn, masked
        to bits (not at all at 64): a (z, count, rows) C-ordered array of
        the workspace."""
        cols = range(self._next, self._next + self._z * count)
        self._next, self._slots = cols.stop, self._slots + 1
        out = self.ws.empty((len(cols), len(self._heads)), np.uint64)
        stream_words(self._heads, cols, out, self.ws.scratch(out.size))
        if bits < 64:
            out &= np.uint64(truncate(~0, bits))
        return out.reshape(self._z, count, len(self._heads))

    def bar(self, z: int, draw):
        """The z slots of draw() as one slot of z * rows rows, slot i in
        rows i * rows to (i + 1) * rows. draw() is called once, with every
        slot it reads z times as wide, so the bar reads the words the
        scalar draws read in one stream_words call; a draw that reads
        anything but one slot is refused. () when z is 0."""
        if z == 0:
            return ()
        slots, self._z = self._slots, z
        stacked = draw()
        self._z = 1
        if self._slots != slots + 1:
            raise ValueError(f"a bar's draw read {self._slots - slots} slots, not one")
        return stacked

    def kwise(self, k: int, domain_bits: int, range_bits: int,
              window: int | None = None) -> _Hashes:
        spec = default_spec(width_for(domain_bits, range_bits))
        rows, dtype = len(self._heads), _uint(spec.width)
        coeffs = self.ws.empty((k, self._z * rows), dtype)
        with self.ws.frame():
            # the narrowing copy keeps the dtype's bits, which are w's unless w = 4
            words = self._words(k, spec.width if spec.width < 8 * dtype.itemsize else 64)
            np.copyto(coeffs.reshape(k, self._z, rows), words.transpose(1, 0, 2), casting="unsafe")
        return _Hashes(coeffs.T, spec, domain_bits, window_bits(window, range_bits), self.ws)

    def prf(self, domain_bits: int, range_bits: int) -> _Lazy:
        return _Lazy(self._words(1).reshape(-1), domain_bits, range_bits, self.ws)

    def table(self, count: int, entry_bits: int, window: int | None = None) -> _Tables:
        rows = len(self._heads)
        entries = self.ws.empty((self._z * rows, count), np.uint64)
        with self.ws.frame():
            words = self._words(count, window_bits(window, entry_bits))
            np.copyto(entries.reshape(self._z, rows, count), words.transpose(0, 2, 1))
        return _Tables(entries, self.ws)

    def padded(self, f: _Lazy, domain_bits: int, range_bits: int) -> _Lazy:
        return _Lazy(f.seeds, domain_bits, range_bits, self.ws)

    levin = _Levin
    adw = _ADW


def batch_answers(columns, queries) -> np.ndarray:
    """Answer matrix (trials, queries) as raw uint64 values of the
    column form of a block of keys that block_keys drew, taken from the
    keys' own workspace: a view of it, which its caller reads before the
    workspace is reset, unless the workspace is new and the matrix a
    fresh array past its end."""
    return columns.grid(tuple(x.value for x in queries))


def block_keys(sampler, streams: KeyStreams, block: range, domain_bits: int,
               ws: Workspace | None = None):
    """The column form of a block of trials' keys, which a KeySampler's
    twin draws from the block's words into the workspace ws (a fresh one
    if none is given). None for any other sampler, and for keys of another
    domain, so that the per-trial loop plays them.
    """
    if not isinstance(sampler, KeySampler):
        return None
    ws = Workspace() if ws is None else ws
    heads = streams.heads(block, ws.empty((len(block),), np.uint64), ws.scratch(len(block)))
    columns = sampler.layout(ColumnDraws(heads, ws))
    return columns if columns.domain_bits == domain_bits else None
