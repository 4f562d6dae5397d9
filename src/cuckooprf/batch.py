"""Vectorized evaluation for nonadaptive games and tuple sampling.

The scalar oracles define the expected behavior; this module
reproduces their arithmetic with numpy so experiments scale to
thousands of trials and millions of key samples. Key material is
still sampled by the scalar code (each trial rng is consumed exactly
as the scalar runner would consume it); only evaluation is
vectorized, and the test suite pins the batched output to the scalar
output pointwise for every supported oracle shape.

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
    _binomial_stderr,
    _QueryGuard,
    run_game,
)
from .gf import FieldSpec, default_spec
from .hashfam import KWiseHashKey, RandomTable, RestrictedHash, width_for
from .prfcore import LazyRandomOracle, LevinOracle
from .transform import PaddedPrfMap, check_widths

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
    """Multiply a vector of field elements by one fixed element.

    The variable operand is split into bytes; each byte position has a
    256-entry table of fixed * (byte << position) products, and the
    XOR of the looked-up entries is the product. Exact by linearity of
    carryless multiplication over GF(2).
    """

    def __init__(self, spec: FieldSpec, c: int):
        w = spec.width
        if w <= 8:
            self.parts = (
                (np.uint64(0), np.uint64((1 << w) - 1),
                 np.array([spec.mul_int(c, v) for v in range(1 << w)], dtype=np.uint64)),
            )
        else:
            self.parts = tuple(
                (np.uint64(8 * pos), np.uint64(255),
                 np.array([spec.mul_int(c, b << (8 * pos)) for b in range(256)], dtype=np.uint64))
                for pos in range(w // 8)
            )

    def __call__(self, v: np.ndarray) -> np.ndarray:
        shift, mask, table = self.parts[0]
        out = table[(v & mask).astype(np.intp)]
        for shift, mask, table in self.parts[1:]:
            out = out ^ table[((v >> shift) & mask).astype(np.intp)]
        return out


_CONST_MUL_CACHE: dict[tuple[FieldSpec, int], _ConstMul] = {}


def const_mul(spec: FieldSpec, c: int) -> _ConstMul:
    key = (spec, c)
    cm = _CONST_MUL_CACHE.get(key)
    if cm is None:
        cm = _CONST_MUL_CACHE[key] = _ConstMul(spec, c)
    return cm


def _horner_grid(coeffs: np.ndarray, spec: FieldSpec, range_bits: int, xs) -> np.ndarray:
    """Evaluate N polynomials (rows of coeffs, a0 first) at each point."""
    n, k = coeffs.shape
    rmask = np.uint64(truncate(~0, range_bits))
    out = np.empty((n, len(xs)), dtype=np.uint64)
    for j, x in enumerate(xs):
        cm = const_mul(spec, x)
        acc = coeffs[:, k - 1]
        for i in range(k - 2, -1, -1):
            acc = cm(acc) ^ coeffs[:, i]
        out[:, j] = acc & rmask
    return out


def batch_eval_kwise(keys, xs) -> np.ndarray:
    """hashfam.eval_kwise for N same-shape keys at each raw query value."""
    first = keys[0]
    for key in keys:
        if (key.width, key.k, key.domain_bits, key.range_bits) != (
            first.width, first.k, first.domain_bits, first.range_bits
        ):
            raise ValueError("keys must share one shape")
    coeffs = np.array([key.coeffs for key in keys], dtype=np.uint64)
    return _horner_grid(coeffs, first.spec, first.range_bits, xs)


def _batch_hash(slots, xs) -> np.ndarray | None:
    """Evaluate one hash slot across trials; None if the slot shape is unsupported."""
    first = slots[0]
    if isinstance(first, KWiseHashKey):
        if any(not isinstance(s, KWiseHashKey) for s in slots):
            return None
        return batch_eval_kwise(slots, xs)
    if isinstance(first, RestrictedHash):
        if any(not isinstance(s, RestrictedHash) or s.restriction != first.restriction
               for s in slots):
            return None
        vals = batch_eval_kwise([s.key for s in slots], xs)
        return vals & np.uint64(truncate(~0, first.restriction.index_bits))
    return None


def _lazy_seeds(fs) -> np.ndarray | None:
    if any(not isinstance(f, LazyRandomOracle) for f in fs):
        return None
    return np.array([f.seed for f in fs], dtype=np.uint64)


def _batch_pp(keys, xs) -> np.ndarray | None:
    h1 = _batch_hash([k.h1 for k in keys], xs)
    h2 = _batch_hash([k.h2 for k in keys], xs)
    g = _batch_hash([k.g for k in keys], xs)
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


def _batch_adw(keys, xs) -> np.ndarray | None:
    z = keys[0].z
    if any(k.z != z for k in keys):
        return None
    h1 = _batch_hash([k.h1 for k in keys], xs)
    h2 = _batch_hash([k.h2 for k in keys], xs)
    ell = _batch_hash([k.ell for k in keys], xs)
    s1 = _lazy_seeds([k.f1 for k in keys])
    s2 = _lazy_seeds([k.f2 for k in keys])
    if h1 is None or h2 is None or ell is None or s1 is None or s2 is None:
        return None
    inner1, inner2, yterm = h1, h2, ell
    for j in range(z):
        gv = _batch_hash([k.gbar[j] for k in keys], xs)
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
    xs = [x.value for x in queries]
    if kind is LazyRandomOracle:
        seeds = _lazy_seeds(oracles)
        return lazy_answers(seeds, np.array(xs, dtype=np.uint64), oracles[0].range_bits)
    if kind is LevinOracle:
        grid = _batch_hash([o.h for o in oracles], xs)
        seeds = _lazy_seeds([o.f for o in oracles])
        if grid is None or seeds is None:
            return None
        return lazy_answers(seeds, grid, oracles[0].range_bits)
    if kind is PPOracle:
        return _batch_pp([o.key for o in oracles], xs)
    if kind is ADWOracle:
        return _batch_adw([o.key for o in oracles], xs)
    return None


def run_nonadaptive_game_batched(real_sampler, ideal_sampler,
                                 dist: Distinguisher, trials: int, seed: int) -> GameResult:
    """games.run_game with vectorized evaluation where possible.

    Oracles are sampled trial by trial from the same derived rng
    streams the scalar runner uses, so the result is identical to
    run_game whenever the shapes are supported; everything else
    falls through to run_game itself.
    """
    if trials < 1:
        raise ConfigurationError("trials must be positive")
    if (not isinstance(dist, NonAdaptiveDistinguisher)
            or type(dist).reset is not Distinguisher.reset
            or type(dist).run is not NonAdaptiveDistinguisher.run):
        return run_game(real_sampler, ideal_sampler, dist, trials, seed)

    verdicts: dict[int, list[bool]] = {}
    violations = 0
    for world, sampler in ((REAL_WORLD, real_sampler), (IDEAL_WORLD, ideal_sampler)):
        oracles = [sampler(random.Random(derive_seed(seed, world, t))) for t in range(trials)]
        matrix = batch_answers(oracles, dist.queries)
        if matrix is None:
            vs = []
            for oracle in oracles:
                guard = _QueryGuard(oracle, dist.budget, dist.allow_repeats)
                try:
                    v = bool(dist.run(guard))
                except ProtocolViolation:
                    violations += 1
                    v = False
                vs.append(v)
        elif dist.decide_batch is not None:
            vs = [bool(v) for v in dist.decide_batch(matrix)]
        else:
            r = oracles[0].range_bits
            vs = [bool(dist.decide([BitString(int(v), r) for v in row])) for row in matrix]
        verdicts[world] = vs
    p_real = sum(verdicts[REAL_WORLD]) / trials
    p_ideal = sum(verdicts[IDEAL_WORLD]) / trials
    return GameResult(
        p_real=p_real,
        p_ideal=p_ideal,
        advantage=abs(p_real - p_ideal),
        stderr=_binomial_stderr(p_real, p_ideal, trials),
        trials=trials,
        seed=seed,
        violations=violations,
        real_verdicts=tuple(verdicts[REAL_WORLD]),
        ideal_verdicts=tuple(verdicts[IDEAL_WORLD]),
    )


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
        its 64 bits from random.Random(derive_seed(seed, tag, i)),
        then all evaluation happens vectorized.
        """
        queries = tuple(queries)
        for x in queries:
            if x.length != self.d:
                raise ValueError(f"query length {x.length}, expected {self.d}")
        xs = [x.value for x in queries]
        k, r = self.k, self.r
        draws = np.empty(samples, dtype=np.uint64)
        for i in range(samples):
            draws[i] = random.Random(derive_seed(seed, _SAMPLE_TAG, i)).getrandbits(64)

        spec_h = default_spec(self._wh)
        spec_g = default_spec(self._wg)
        h1x = _horner_grid(self._derive_matrix(draws, 0, k, self._wh), spec_h, self.s, xs)
        h2x = _horner_grid(self._derive_matrix(draws, k, k, self._wh), spec_h, self.s, xs)
        gx = _horner_grid(self._derive_matrix(draws, 2 * k, k, self._wg), spec_g, self.r, xs)
        v0 = mix64_np(draws ^ np.uint64(C1))
        tag1 = np.uint64(mix64((3 * k) ^ C2))
        tag2 = np.uint64(mix64((3 * k + 1) ^ C2))
        f1 = lazy_answers(mix64_np(v0 ^ tag1), h1x, r)
        f2 = lazy_answers(mix64_np(v0 ^ tag2), h2x, r)
        outs = f1 ^ f2 ^ gx
        codes = np.zeros(samples, dtype=np.int64)
        for j in range(len(queries)):
            codes = (codes << np.int64(r)) | outs[:, j].astype(np.int64)
        return codes
