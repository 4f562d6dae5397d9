"""Properties of the combiners over generated shapes at widths 8, 16 and 32,
and of the numpy grid kernel at every supported width.

The scalar Oracle.query path is the reference for the numpy path, so the
two must agree pointwise, whether the numpy path reads the keys off
scalar oracles or samples them itself from the key streams' words; the
per-query call counts, the z = 0 degeneration of adw to pp and the 4q
locality of the adaptive builders must hold for every drawn shape, not
only at the pinned examples of the other test files. Runs are
derandomized so the suite stays reproducible.
"""

import dataclasses
import random
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuckooprf import batch
from cuckooprf.batch import batch_answers, batch_eval_kwise
from cuckooprf.bits import BitString, KeyStreams, mix64, truncate
from cuckooprf.combine import (
    ADWKey,
    ADWOracle,
    PPKey,
    adw_eval,
    count_underlying_calls,
    is_affine,
    pp_eval,
)
from cuckooprf.experiments import levin_sampler
from cuckooprf.games import NonAdaptiveDistinguisher
from cuckooprf.gf import SUPPORTED_WIDTHS
from cuckooprf.hashfam import KWiseHashKey, eval_kwise, sample_kwise, sample_table
from cuckooprf.prfcore import InstrumentedOracle, LazyRandomOracle
from cuckooprf.transform import (
    ExtensionParams,
    KeySampler,
    PaddedPrfMap,
    adw_layout,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    build_adw_domain_extension,
    build_pp_domain_extension,
    lazy_random_sampler,
    lazy_sampler,
    pp_layout,
    pp_sampler,
)
from gamepaths import assert_paths_agree

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
TRIALS = 3
# A block size that a few dozen rows cross, so that the scalar reference
# stays cheap; the block walk does not depend on the constant's value.
SMALL_BLOCK_ELEMS = 48


@st.composite
def shapes(draw, min_s=2):
    """(w, d, s, r, k) with every hash of the shape living in GF(2^w)."""
    w = draw(st.sampled_from((8, 16, 32)))
    d = draw(st.integers(w // 2 + 1, w))
    s = draw(st.integers(min_s, d))
    r = draw(st.integers(1, w))
    k = draw(st.integers(2, 4))
    return w, d, s, r, k


def _rng(data) -> random.Random:
    return random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))


def _inputs(data, d: int) -> list[BitString]:
    values = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=5),
                       label="xs")
    return [BitString(v, d) for v in values]


def _assert_scalar_equals_batched(data, sampler, d: int):
    rng = _rng(data)
    oracles = [sampler(rng) for _ in range(TRIALS)]
    xs = _inputs(data, d)
    matrix = batch_answers(oracles, xs)
    assert matrix is not None
    assert matrix.tolist() == [[o.query(x).value for x in xs] for o in oracles]


@PROPERTY
@given(shapes(), st.data())
def test_levin_scalar_equals_batched(shape, data):
    _, d, s, r, k = shape
    _assert_scalar_equals_batched(data, levin_sampler(d, s, r, k), d)


@PROPERTY
@given(shapes(), st.data())
def test_pp_scalar_equals_batched(shape, data):
    _, d, s, r, k = shape
    p = ExtensionParams(d, s, r, k, 1)
    _assert_scalar_equals_batched(data, lambda rng: build_pp_domain_extension(p, rng), d)


@PROPERTY
@given(shapes(), st.data())
def test_range_restricted_pp_scalar_equals_batched(shape, data):
    _, n, _, _, k = shape
    q = 1 << data.draw(st.integers(0, min(4, n - 2)), label="log2 q")
    _assert_scalar_equals_batched(
        data, lambda rng: build_adaptive_from_nonadaptive(n, q, k, rng), n)


@PROPERTY
@given(shapes(), st.booleans(), st.data())
def test_table_adw_scalar_equals_batched(shape, restricted, data):
    _, d, s, r, _ = shape
    if restricted:
        q = 1 << data.draw(st.integers(1, min(3, d - 2)), label="log2 q")
        sampler = lambda rng: build_adw_adaptive_from_nonadaptive(d, q, 1, rng)
    else:
        q = 1 << data.draw(st.integers(0, min(2, s - 2)), label="log2 q")
        p = ExtensionParams(d, s, r, 2, q)
        sampler = lambda rng: build_adw_domain_extension(p, "table", rng)
    _assert_scalar_equals_batched(data, sampler, d)


def _prf_adw_params(shape, data) -> ExtensionParams:
    """A prf-backed adw shape: 2 <= q <= 2^(s-2) and log2 q <= s <= r."""
    w, d, s, _, _ = shape
    r = data.draw(st.integers(s, w), label="r")
    q = 1 << data.draw(st.integers(1, min(3, s - 2)), label="log2 q")
    return ExtensionParams(d, s, r, 2, q)


@PROPERTY
@given(shapes(min_s=3), st.data())
def test_prf_adw_scalar_equals_batched(shape, data):
    p = _prf_adw_params(shape, data)
    _assert_scalar_equals_batched(
        data, lambda rng: build_adw_domain_extension(p, "prf", rng), p.d)


@PROPERTY
@given(shapes(), st.data())
def test_adw_with_no_inner_maps_equals_pp(shape, data):
    _, d, s, r, k = shape
    rng = _rng(data)
    h1, h2 = sample_kwise(k, d, s, rng), sample_kwise(k, d, s, rng)
    ell = sample_kwise(k, d, r, rng)
    f1 = LazyRandomOracle(rng.getrandbits(64), s, r)
    f2 = LazyRandomOracle(rng.getrandbits(64), s, r)
    adw = ADWKey(h1, h2, ell, (), (), (), (), f1, f2)
    pp = PPKey(h1, h2, ell, f1, f2)
    for x in _inputs(data, d):
        assert adw_eval(adw, x) == pp_eval(pp, x)


@PROPERTY
@given(shapes(min_s=3), st.data())
def test_underlying_call_counts(shape, data):
    _, d, s, r, k = shape
    rng = _rng(data)
    xs = _inputs(data, d)
    pp = build_pp_domain_extension(ExtensionParams(d, s, r, k, 1), rng).key
    table = build_adw_domain_extension(ExtensionParams(d, s, r, 2, 2), "table", rng).key
    prf = build_adw_domain_extension(_prf_adw_params(shape, data), "prf", rng).key
    for x in xs:
        assert count_underlying_calls(pp, x) == (2, 3)
        assert count_underlying_calls(table, x) == (2, 3 + table.z)
        assert count_underlying_calls(prf, x) == (3 * prf.z + 2, 3 + prf.z)


@PROPERTY
@given(st.sampled_from(SUPPORTED_WIDTHS), st.integers(1, 16), st.data())
def test_grid_kernel_equals_eval_kwise(w, k, data):
    points = [0] + data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=5), label="points")
    block = SMALL_BLOCK_ELEMS // len(points)
    rows = data.draw(st.sampled_from((1, block - 1, block, block + 1, 2 * block + 1)),
                     label="rows")
    r = data.draw(st.integers(1, w), label="r")
    rng = _rng(data)
    keys = [KWiseHashKey(tuple(rng.getrandbits(w) for _ in range(k)), w, r, w)
            for _ in range(rows)]
    with mock.patch.object(batch, "BLOCK_ELEMS", SMALL_BLOCK_ELEMS):
        grid = np.concatenate([batch_eval_kwise(keys[b.start:b.stop], points)
                               for b in batch.blocks(rows, len(points))])
    assert grid.tolist() == [[eval_kwise(key, x) for x in points] for key in keys]


def _parity_distinguisher(q: int, d: int) -> NonAdaptiveDistinguisher:
    """Accepts on an odd first answer: about half the trials either way,
    so a verdict out of place shows."""
    return NonAdaptiveDistinguisher(
        [BitString(v, d) for v in range(q)], lambda answers: bool(answers[0].value & 1),
        decide_batch=lambda values: (values[:, 0] & 1).astype(bool))


# KeySamplers go through their numpy twin in run_game's block path; the
# prf-backed adw has none and is sampled trial by trial there.
_GAME_SAMPLERS = {
    "lazy": lazy_sampler(12, 12),
    "levin": levin_sampler(12, 8, 12, 4),
    "pp": pp_sampler(ExtensionParams(12, 8, 12, 4, 8)),
    "adw-table": KeySampler(adw_layout(ExtensionParams(12, 8, 12, 2, 8), "table")),
    "adw-prf": lambda rng: build_adw_domain_extension(
        ExtensionParams(12, 8, 12, 2, 8), "prf", rng),
}


def _adaptive_budget(data, d: int, least: int) -> int:
    """A power-of-two budget q >= least with 4q <= 2^d."""
    return 1 << data.draw(st.integers(least, min(4, d - 2)), label="log2 q")


@PROPERTY
@given(shapes(), st.sampled_from(("lazy", "levin", "pp", "adw-table", "adaptive-pp",
                                  "adaptive-adw")), st.data())
def test_numpy_twin_equals_scalar_keys(shape, kind, data):
    _, d, s, r, k = shape
    xs = _inputs(data, d)
    if kind.startswith("adaptive"):
        # the adaptive builders are the two layouts with window 4q; past
        # d+1 points the twin folds the adw key's restricted hashes and
        # window tables, as the scalar oracle does at query d+2
        xs, r = _past_fold(data, d), d
        if kind == "adaptive-pp":
            q = _adaptive_budget(data, d, 0)
            build = partial(build_adaptive_from_nonadaptive, d, q, k)
            layout = pp_layout(d, d, d, k, window=4 * q)
        else:
            q, c = _adaptive_budget(data, d, 1), data.draw(st.integers(1, 2), label="c")
            build = partial(build_adw_adaptive_from_nonadaptive, d, q, c)
            layout = adw_layout(ExtensionParams(d, d, d, 2, q, c), "table", window=4 * q)
    else:
        q = 1 << data.draw(st.integers(0, min(2, s - 2)), label="log2 q")
        build = {
            "lazy": lambda: lazy_sampler(d, r),
            "levin": lambda: levin_sampler(d, s, r, k),
            "pp": lambda: pp_sampler(ExtensionParams(d, s, r, k, q)),
            "adw-table": lambda: KeySampler(adw_layout(ExtensionParams(d, s, r, 2, q), "table")),
        }[kind]()
        layout = build.layout
    streams = KeyStreams(data.draw(st.integers(-2**64, 2**64), label="seed"), 9)
    t0 = data.draw(st.integers(0, 100), label="t0")
    rows = range(t0, t0 + TRIALS)
    columns = layout(batch.ColumnDraws(streams.heads(rows)))
    grid = columns.grid(batch._Points(x.value for x in xs))
    assert (columns.domain_bits, columns.range_bits) == (d, r)
    assert grid.tolist() == [[build(streams.stream(t)).query(x).value for x in xs]
                             for t in rows]


@PROPERTY
@given(st.sampled_from(sorted(_GAME_SAMPLERS)), st.integers(1, 8), st.data())
def test_batched_game_equals_run_game_across_blocks(kind, q, data):
    block = SMALL_BLOCK_ELEMS // q
    trials = data.draw(st.integers(2 * block + 1, 3 * block + 1), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    sampler, ideal = _GAME_SAMPLERS[kind], _GAME_SAMPLERS["lazy"]
    with mock.patch.object(batch, "BLOCK_ELEMS", SMALL_BLOCK_ELEMS):
        assert_paths_agree(sampler, ideal, _parity_distinguisher(q, 12), trials, seed)


def _counting_sampler(seen: list):
    """An f_sampler that records each lazy-random oracle it draws, instrumented."""
    def f_sampler(rng, domain_bits, range_bits):
        seen.append(InstrumentedOracle(lazy_random_sampler(rng, domain_bits, range_bits)))
        return seen[-1]

    return f_sampler


@PROPERTY
@given(st.booleans(), st.integers(4, 16), st.data())
def test_adaptive_builders_keep_underlying_queries_below_4q(adw, n, data):
    q = 1 << data.draw(st.integers(1 if adw else 0, n - 2), label="log2 q")
    seen: list[InstrumentedOracle] = []
    f_sampler = _counting_sampler(seen)
    rng = _rng(data)
    if adw:
        c = data.draw(st.integers(1, 3), label="c")
        handle = build_adw_adaptive_from_nonadaptive(n, q, c, rng, f_sampler)
    else:
        k = data.draw(st.integers(2, 6), label="k")
        handle = build_adaptive_from_nonadaptive(n, q, k, rng, f_sampler)
    # answer-chained probes: each input depends on the last answer
    x, probes = BitString(0, n), 40
    for i in range(probes):
        y = handle.query(x)
        x = BitString(truncate(mix64(y.value ^ i), n), n)
    queries = [v.value for f in seen for v in f.queries]
    assert len(queries) == 2 * probes
    assert max(queries) < 4 * q


# Input lengths for the fold: byte multiples and not, up to the widest
# field. A property runs once per length, so each runs fewer examples.
FOLD_LENGTHS = (5, 17, 24, 64)
FOLD_PROPERTY = settings(PROPERTY, max_examples=6)


def _table_adw(data, d: int, restricted: bool):
    """rng, f_sampler -> an oracle of one shape from one of the two
    table-backed adw builders, at input length d."""
    if restricted:
        q = 1 << data.draw(st.integers(1, min(3, d - 2)), label="log2 q")
        c = data.draw(st.integers(1, 2), label="c")
        return lambda rng, f_sampler=None: build_adw_adaptive_from_nonadaptive(
            d, q, c, rng, f_sampler)
    p = _table_params(data, d)
    return lambda rng, f_sampler=None: build_adw_domain_extension(p, "table", rng, f_sampler)


def _table_params(data, d: int) -> ExtensionParams:
    """A table-backed adw shape with z >= 1: 2 <= q <= 2^(s-2)."""
    s = data.draw(st.integers(3, min(d, 20)), label="s")
    r = data.draw(st.integers(1, 64), label="r")
    q = 1 << data.draw(st.integers(1, min(3, s - 2)), label="log2 q")
    return ExtensionParams(d, s, r, 2, q)


def _past_fold(data, d: int) -> list[BitString]:
    """d+1 inputs the reference answers, then a few the fold answers."""
    values = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=d + 2, max_size=d + 6),
                       label="xs")
    return [BitString(v, d) for v in values]


@pytest.mark.parametrize("d", FOLD_LENGTHS)
@FOLD_PROPERTY
@given(st.booleans(), st.data())
def test_folded_adw_oracle_equals_adw_eval(d, restricted, data):
    seen: list[InstrumentedOracle] = []
    oracle = _table_adw(data, d, restricted)(_rng(data), _counting_sampler(seen))
    assert is_affine(oracle.key)
    xs = _past_fold(data, d)
    assert [oracle.query(x) for x in xs] == [adw_eval(oracle.key, x) for x in xs]
    assert oracle._folded is not None and not isinstance(oracle._folded, partial)
    # the fold itself calls no underlying oracle; each query calls f1 and f2
    assert sum(f.calls for f in seen) == 2 * 2 * len(xs)


@pytest.mark.parametrize("d", FOLD_LENGTHS)
@FOLD_PROPERTY
@given(st.booleans(), st.data())
def test_folded_adw_grid_equals_adw_eval(d, twin, data):
    xs = _past_fold(data, d)
    if twin:
        sampler = KeySampler(adw_layout(_table_params(data, d), "table"))
        streams = KeyStreams(data.draw(st.integers(0, 2**64 - 1), label="seed"), 9)
        columns = sampler.layout(batch.ColumnDraws(streams.heads(range(TRIALS))))
        keys = [sampler(streams.stream(t)).key for t in range(TRIALS)]
    else:
        rng, build = _rng(data), _table_adw(data, d, True)
        oracles = [build(rng) for _ in range(TRIALS)]
        columns = batch._columns(oracles)
        keys = [o.key for o in oracles]
    assert columns._affine()
    grid = columns.grid(batch._Points(x.value for x in xs))
    assert grid.tolist() == [[adw_eval(key, x).value for x in xs] for key in keys]


def _with(bar: tuple, i: int, item) -> tuple:
    return bar[:i] + (item,) + bar[i + 1:]


@PROPERTY
@given(st.sampled_from(FOLD_LENGTHS), st.sampled_from(("g", "m1bar", "m2bar", "ybar", "wide")),
       st.data())
def test_adw_key_that_is_not_affine_is_not_folded(d, slot, data):
    """One 3-wise g, one prf-backed inner map, or one column of 4-entry
    tables under a 2-bit g, and the key takes the reference path in both
    engines, exactly."""
    rng = _rng(data)
    key = _table_adw(data, d, data.draw(st.booleans(), label="restricted"))(rng).key
    i = data.draw(st.integers(0, key.z - 1), label="i")
    if slot == "g":
        key = dataclasses.replace(key, gbar=_with(key.gbar, i, sample_kwise(3, d, 1, rng)))
    elif slot == "wide":
        key = dataclasses.replace(
            key, gbar=_with(key.gbar, i, sample_kwise(2, d, 2, rng)),
            **{name: _with(getattr(key, name), i, sample_table(4, bits, rng))
               for name, bits in (("m1bar", key.f1.domain_bits), ("m2bar", key.f2.domain_bits),
                                  ("ybar", key.range_bits))})
    else:
        bits = getattr(key, slot)[i].range_bits
        f = PaddedPrfMap(LazyRandomOracle(rng.getrandbits(64), 8, 64), 1, bits)
        key = dataclasses.replace(key, **{slot: _with(getattr(key, slot), i, f)})
    assert not is_affine(key)
    xs = _past_fold(data, d)
    want = [adw_eval(key, x) for x in xs]
    oracle = ADWOracle(key)
    assert [oracle.query(x) for x in xs] == want
    assert isinstance(oracle._folded, partial)
    columns = batch._columns([oracle])
    assert not columns._affine()
    assert columns.grid(batch._Points(x.value for x in xs)).tolist() == [[y.value for y in want]]
