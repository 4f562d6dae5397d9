"""Vectorized evaluation for nonadaptive games and tuple sampling.

The scalar oracles define the expected behavior; this module
reproduces their arithmetic with numpy so experiments scale to
thousands of trials and millions of key samples. Key material is
still sampled by the scalar code (each trial rng is consumed exactly
as the scalar runner would consume it); only evaluation is
vectorized, and the test suite pins the batched output to the scalar
output pointwise for every supported oracle shape.

Every k-wise hash is evaluated as one rows x queries grid. The
const_mul tables of the query points are stacked by query index once
per batch_answers (or batch_tuples) call, in a dict local to that call
and keyed by FieldSpec, so each Horner step is one gather per byte of
the accumulator over the whole grid.

Trials and samples are walked in blocks of max(1, BLOCK_ELEMS // q)
rows for q queries: a block is sampled, answered and decided before
the next one is sampled, so memory stays O(block * z) for adw keys
with z inner maps, however many trials or samples are asked for.

Supported shapes: lazy-random, hash-then-query over a k-wise key, the
pp combiner, and the adw combiner with table or padded-prf inner
maps. Anything else falls back to the scalar game runner, so callers
never need to know which path ran.
"""

from __future__ import annotations

import random

import numpy as np

from .bits import C1, C2, BitString, derive_seed, mix64, truncate
from .combine import ADWOracle, PPKey, PPOracle
from .errors import ConfigurationError, ProtocolViolation
from .games import (
    IDEAL_WORLD,
    REAL_WORLD,
    _SAMPLE_TAG,
    Distinguisher,
    GameResult,
    NonAdaptiveDistinguisher,
    _QueryGuard,
    run_game,
)
from .gf import FieldSpec, default_spec
from .hashfam import KWiseHashKey, RandomTable, RestrictedHash, width_for
from .prfcore import LazyRandomOracle, LevinOracle
from .transform import PaddedPrfMap, check_widths

# Rows x queries of one block: large enough that numpy's per-call cost
# is spread over many elements, small enough that a block of adw keys
# and its uint64 grids stay a few MB.
BLOCK_ELEMS = 1 << 15

_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def mix64_np(v: np.ndarray) -> np.ndarray:
    """Vector form of bits.mix64; uint64 in, uint64 out."""
    with np.errstate(over="ignore"):
        v = v.astype(np.uint64, copy=True)
        v ^= v >> np.uint64(30)
        v *= _MUL1
        v ^= v >> np.uint64(27)
        v *= _MUL2
        v ^= v >> np.uint64(31)
    return v


def lazy_answers(seeds: np.ndarray, xs: np.ndarray, range_bits: int) -> np.ndarray:
    """prfcore.lazy_answer over a grid: seeds (N,) against xs (q,) or (N, q)."""
    inner = mix64_np(np.asarray(xs, dtype=np.uint64) ^ np.uint64(C1))
    if inner.ndim == 1:
        inner = inner[None, :]
    out = mix64_np(np.asarray(seeds, dtype=np.uint64)[:, None] ^ inner)
    return out & np.uint64(truncate(~0, range_bits))


class _ConstMul:
    """Tables for multiplying field elements by one fixed element.

    The variable operand is split into bytes; each byte position has a
    256-entry table of fixed * (byte << position) products (one table
    of all 2^w products for w <= 8), and the XOR of the looked-up
    entries is the product. Exact by linearity of carryless
    multiplication over GF(2).
    """

    def __init__(self, spec: FieldSpec, c: int):
        w = spec.width
        if w <= 8:
            self.tables = (np.array([spec.mul_int(c, v) for v in range(1 << w)],
                                    dtype=np.uint64),)
        else:
            self.tables = tuple(
                np.array([spec.mul_int(c, b << (8 * pos)) for b in range(256)], dtype=np.uint64)
                for pos in range(w // 8)
            )


_CONST_MUL_CACHE: dict[tuple[FieldSpec, int], _ConstMul] = {}


def const_mul(spec: FieldSpec, c: int) -> _ConstMul:
    key = (spec, c)
    cm = _CONST_MUL_CACHE.get(key)
    if cm is None:
        cm = _CONST_MUL_CACHE[key] = _ConstMul(spec, c)
    return cm


def _blocks(rows: int, q: int):
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
            return np.empty((n, 0), dtype=np.uint64)
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


def _one_shape(keys) -> bool:
    """Whether all keys share one (width, k, domain_bits, range_bits)."""
    return len({(key.width, key.k, key.domain_bits, key.range_bits) for key in keys}) == 1


def _eval_kwise(keys, points: _Points) -> np.ndarray:
    coeffs = np.array([key.coeffs for key in keys], dtype=np.uint64)
    return points.horner(coeffs, keys[0].spec, keys[0].range_bits)


def batch_eval_kwise(keys, xs) -> np.ndarray:
    """hashfam.eval_kwise for N same-shape keys at each raw query value."""
    if not _one_shape(keys):
        raise ValueError("keys must share one shape")
    return _eval_kwise(keys, _Points(xs))


def _batch_hash(slots, points: _Points) -> np.ndarray | None:
    """Evaluate one hash slot across trials; None if the slot shape is unsupported."""
    first = slots[0]
    if isinstance(first, KWiseHashKey):
        if any(not isinstance(s, KWiseHashKey) for s in slots) or not _one_shape(slots):
            return None
        return _eval_kwise(slots, points)
    if isinstance(first, RestrictedHash):
        if any(not isinstance(s, RestrictedHash) or s.restriction != first.restriction
               for s in slots):
            return None
        keys = [s.key for s in slots]
        if not _one_shape(keys):
            return None
        return _eval_kwise(keys, points) & np.uint64(truncate(~0, first.restriction.index_bits))
    return None


def _lazy_seeds(fs) -> np.ndarray | None:
    if any(not isinstance(f, LazyRandomOracle) for f in fs):
        return None
    return np.array([f.seed for f in fs], dtype=np.uint64)


def _batch_pp(keys, points: _Points) -> np.ndarray | None:
    h1 = _batch_hash([k.h1 for k in keys], points)
    h2 = _batch_hash([k.h2 for k in keys], points)
    g = _batch_hash([k.g for k in keys], points)
    s1 = _lazy_seeds([k.f1 for k in keys])
    s2 = _lazy_seeds([k.f2 for k in keys])
    if h1 is None or h2 is None or g is None or s1 is None or s2 is None:
        return None
    r = keys[0].range_bits
    return lazy_answers(s1, h1, r) ^ lazy_answers(s2, h2, r) ^ g


def _batch_inner_maps(maps, gv: np.ndarray) -> np.ndarray | None:
    """One inner-map column across trials, applied to its g values."""
    first = maps[0]
    if isinstance(first, RandomTable):
        if any(not isinstance(m, RandomTable) for m in maps):
            return None
        entries = np.array([m.entries for m in maps], dtype=np.uint64)
        return np.take_along_axis(entries, gv.astype(np.intp), axis=1)
    if isinstance(first, PaddedPrfMap):
        if any(not isinstance(m, PaddedPrfMap) for m in maps):
            return None
        seeds = _lazy_seeds([m.f for m in maps])
        if seeds is None:
            return None
        return lazy_answers(seeds, gv, first.range_bits)
    return None


def _batch_adw(keys, points: _Points) -> np.ndarray | None:
    z = keys[0].z
    if any(k.z != z for k in keys):
        return None
    h1 = _batch_hash([k.h1 for k in keys], points)
    h2 = _batch_hash([k.h2 for k in keys], points)
    ell = _batch_hash([k.ell for k in keys], points)
    s1 = _lazy_seeds([k.f1 for k in keys])
    s2 = _lazy_seeds([k.f2 for k in keys])
    if h1 is None or h2 is None or ell is None or s1 is None or s2 is None:
        return None
    inner1, inner2, yterm = h1, h2, ell
    for j in range(z):
        gv = _batch_hash([k.gbar[j] for k in keys], points)
        if gv is None:
            return None
        for maps, grid in (([k.m1bar[j] for k in keys], 1),
                           ([k.m2bar[j] for k in keys], 2),
                           ([k.ybar[j] for k in keys], 3)):
            contrib = _batch_inner_maps(maps, gv)
            if contrib is None:
                return None
            if grid == 1:
                inner1 = inner1 ^ contrib
            elif grid == 2:
                inner2 = inner2 ^ contrib
            else:
                yterm = yterm ^ contrib
    r = keys[0].range_bits
    return lazy_answers(s1, inner1, r) ^ lazy_answers(s2, inner2, r) ^ yterm


def batch_answers(oracles, queries) -> np.ndarray | None:
    """Answer matrix (trials, queries) as raw uint64 values.

    Returns None when any oracle in the list is outside the supported
    shapes, so callers can fall back to scalar evaluation.
    """
    if not oracles:
        return None
    kind = type(oracles[0])
    if any(type(o) is not kind for o in oracles):
        return None
    d = oracles[0].domain_bits
    if any(o.domain_bits != d for o in oracles):
        return None
    if any(x.length != d for x in queries):
        return None
    points = _Points(x.value for x in queries)
    if kind is LazyRandomOracle:
        seeds = _lazy_seeds(oracles)
        return lazy_answers(seeds, np.array(points.xs, dtype=np.uint64), oracles[0].range_bits)
    if kind is LevinOracle:
        grid = _batch_hash([o.h for o in oracles], points)
        seeds = _lazy_seeds([o.f for o in oracles])
        if grid is None or seeds is None:
            return None
        return lazy_answers(seeds, grid, oracles[0].range_bits)
    if kind is PPOracle:
        return _batch_pp([o.key for o in oracles], points)
    if kind is ADWOracle:
        return _batch_adw([o.key for o in oracles], points)
    return None


def _block_verdicts(oracles, dist: NonAdaptiveDistinguisher) -> tuple[list[bool], int]:
    """Verdicts and protocol violations of one block of trials, batched
    when batch_answers supports the block and scalar otherwise."""
    matrix = batch_answers(oracles, dist.queries)
    if matrix is None:
        verdicts, violations = [], 0
        for oracle in oracles:
            guard = _QueryGuard(oracle, dist.budget, dist.allow_repeats)
            try:
                verdicts.append(bool(dist.run(guard)))
            except ProtocolViolation:
                violations += 1
                verdicts.append(False)
        return verdicts, violations
    if dist.decide_batch is not None:
        return [bool(v) for v in dist.decide_batch(matrix)], 0
    r = oracles[0].range_bits
    return [bool(dist.decide([BitString(int(v), r) for v in row])) for row in matrix], 0


def run_nonadaptive_game_batched(real_sampler, ideal_sampler,
                                 dist: Distinguisher, trials: int, seed: int) -> GameResult:
    """games.run_game with vectorized evaluation where possible.

    Oracles are sampled trial by trial from the same derived rng
    streams the scalar runner uses, one block of trials at a time, so
    the result is identical to run_game whenever the shapes are
    supported and memory does not grow with trials; everything else
    falls through to run_game itself.
    """
    if trials < 1:
        raise ConfigurationError("trials must be positive")
    if (not isinstance(dist, NonAdaptiveDistinguisher)
            or type(dist).reset is not Distinguisher.reset
            or type(dist).run is not NonAdaptiveDistinguisher.run):
        return run_game(real_sampler, ideal_sampler, dist, trials, seed)

    verdicts: dict[int, list[bool]] = {REAL_WORLD: [], IDEAL_WORLD: []}
    violations = 0
    for world, sampler in ((REAL_WORLD, real_sampler), (IDEAL_WORLD, ideal_sampler)):
        for block in _blocks(trials, len(dist.queries)):
            vs, bad = _block_verdicts(
                [sampler(random.Random(derive_seed(seed, world, t))) for t in block], dist)
            verdicts[world] += vs
            violations += bad
    return GameResult.from_verdicts(verdicts[REAL_WORLD], verdicts[IDEAL_WORLD], seed, violations)


class PPTupleSampler:
    """Freshly keyed pp handles from one 64-bit draw per sample.

    Calling the instance with a trial rng consumes exactly one
    getrandbits(64) and expands it into the five key slots by
    counter-mode derivation (slot i of the coefficient stream is
    derive_seed(draw, i)). Because the per-sample rng draw is the only
    Mersenne Twister interaction, batch_tuples can reproduce the exact
    keys of the scalar path and evaluate them vectorized; the two
    routes are pointwise equal and the tests pin that down.

    Slot layout: h1 coefficients 0..k-1, h2 k..2k-1, g 2k..3k-1,
    f1 seed 3k, f2 seed 3k+1.
    """

    def __init__(self, d: int, s: int, r: int, k: int):
        if s < 1:
            raise ConfigurationError("s must be positive")
        check_widths(d=d, r=r)
        if d < s:
            raise ConfigurationError(f"extended domain d={d} below underlying s={s}")
        if k < 2:
            raise ConfigurationError(f"independence k must be at least 2, got {k}")
        self.d = d
        self.s = s
        self.r = r
        self.k = k
        self.range_bits = r
        self._wh = width_for(d, s)
        self._wg = width_for(d, r)

    def key_from_draw(self, draw: int) -> PPKey:
        k = self.k

        def coeffs(base: int, w: int) -> tuple[int, ...]:
            return tuple(truncate(derive_seed(draw, base + i), w) for i in range(k))

        h1 = KWiseHashKey(coeffs(0, self._wh), self.d, self.s, self._wh)
        h2 = KWiseHashKey(coeffs(k, self._wh), self.d, self.s, self._wh)
        g = KWiseHashKey(coeffs(2 * k, self._wg), self.d, self.r, self._wg)
        f1 = LazyRandomOracle(derive_seed(draw, 3 * k), self.s, self.r)
        f2 = LazyRandomOracle(derive_seed(draw, 3 * k + 1), self.s, self.r)
        return PPKey(h1, h2, g, f1, f2)

    def __call__(self, rng) -> PPOracle:
        return PPOracle(self.key_from_draw(rng.getrandbits(64)))

    def _derive_matrix(self, draws: np.ndarray, base: int, count: int, w: int) -> np.ndarray:
        v0 = mix64_np(draws ^ np.uint64(C1))
        wmask = np.uint64(truncate(~0, w))
        cols = []
        for i in range(count):
            tag = np.uint64(mix64((base + i) ^ C2))
            cols.append(mix64_np(v0 ^ tag) & wmask)
        return np.stack(cols, axis=1)

    def batch_tuples(self, queries, samples: int, seed: int) -> np.ndarray:
        """Output-tuple codes for the uniformity estimator.

        Replays the estimator's scalar sampling loop: sample i draws
        its 64 bits from random.Random(derive_seed(seed, tag, i)). One
        block of samples is drawn and evaluated vectorized at a time.
        """
        queries = tuple(queries)
        for x in queries:
            if x.length != self.d:
                raise ValueError(f"query length {x.length}, expected {self.d}")
        points = _Points(x.value for x in queries)
        k, r = self.k, self.r
        spec_h = default_spec(self._wh)
        spec_g = default_spec(self._wg)
        tag1 = np.uint64(mix64((3 * k) ^ C2))
        tag2 = np.uint64(mix64((3 * k + 1) ^ C2))
        codes = np.empty(samples, dtype=np.int64)
        for block in _blocks(samples, len(queries)):
            draws = np.array([random.Random(derive_seed(seed, _SAMPLE_TAG, i)).getrandbits(64)
                              for i in block], dtype=np.uint64)
            h1x = points.horner(self._derive_matrix(draws, 0, k, self._wh), spec_h, self.s)
            h2x = points.horner(self._derive_matrix(draws, k, k, self._wh), spec_h, self.s)
            gx = points.horner(self._derive_matrix(draws, 2 * k, k, self._wg), spec_g, self.r)
            v0 = mix64_np(draws ^ np.uint64(C1))
            f1 = lazy_answers(mix64_np(v0 ^ tag1), h1x, r)
            f2 = lazy_answers(mix64_np(v0 ^ tag2), h2x, r)
            outs = f1 ^ f2 ^ gx
            block_codes = np.zeros(len(block), dtype=np.int64)
            for j in range(len(queries)):
                block_codes = (block_codes << np.int64(r)) | outs[:, j].astype(np.int64)
            codes[block.start:block.stop] = block_codes
        return codes
