"""Properties of the combiners over generated shapes at widths 8, 16 and 32,
and of the scalar hashes and the numpy grid kernel at every supported width.

The scalar Oracle.query path is the reference for the numpy path, so a
layout's numpy twin, which samples its keys from the key streams' words,
must answer as the scalar oracles keyed from the same streams; the
per-query call counts, the z = 0 degeneration of adw to pp and the 4q
locality of the adaptive builders must hold for every drawn shape, not
only at the pinned examples of the other test files. Runs are
derandomized so the suite stays reproducible.
"""

import random
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuckooprf import batch
from cuckooprf.bits import BitString, KeyStreams, mix64, truncate
from cuckooprf.combine import (
    ADWKey,
    PPKey,
    adw_eval,
    is_affine,
    pp_eval,
)
from cuckooprf.experiments import levin_sampler
from cuckooprf.games import NonAdaptiveDistinguisher
from cuckooprf.gf import DEFAULT_REDUCTION, SUPPORTED_WIDTHS, _mul_raw
from cuckooprf.hashfam import KWiseHashKey, eval_kwise, sample_kwise
from cuckooprf.prfcore import LazyRandomOracle
from cuckooprf.transform import (
    ExtensionParams,
    KeyDraws,
    KeySampler,
    adw_layout,
    adw_z,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    build_adw_domain_extension,
    build_pp_domain_extension,
    lazy_sampler,
    pp_layout,
    pp_sampler,
)
from gamepaths import assert_paths_agree
from spies import InstrumentedOracle, count_calls, counting_sampler

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


def _prf_adw_params(shape, data) -> ExtensionParams:
    """A prf-backed adw shape: 2 <= q <= 2^(s-2) and log2 q <= s <= r."""
    w, d, s, _, _ = shape
    r = data.draw(st.integers(s, w), label="r")
    q = 1 << data.draw(st.integers(1, min(3, s - 2)), label="log2 q")
    return ExtensionParams(d, s, r, 2, q)


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
        assert adw_eval(adw, x.value) == pp_eval(pp, x.value)


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
        assert count_calls(pp_eval, pp, x.value) == (2, 3)
        assert count_calls(adw_eval, table, x.value) == (2, 3 + table.z)
        assert count_calls(adw_eval, prf, x.value) == (3 * prf.z + 2, 3 + prf.z)


@PROPERTY
@given(st.sampled_from(SUPPORTED_WIDTHS), st.integers(1, 16), st.data())
def test_grid_kernel_equals_eval_kwise(w, k, data):
    points = [0] + data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=5), label="points")
    block = SMALL_BLOCK_ELEMS // len(points)
    rows = data.draw(st.sampled_from((1, block - 1, block, block + 1, 2 * block + 1)),
                     label="rows")
    r = data.draw(st.integers(1, w), label="r")
    streams = KeyStreams(data.draw(st.integers(0, 2**64 - 1), label="seed"), 9)
    with mock.patch.object(batch, "BLOCK_ELEMS", SMALL_BLOCK_ELEMS):
        grid = np.concatenate([
            batch.ColumnDraws(streams.heads(b)).kwise(k, w, r).grid(tuple(points))
            for b in batch.blocks(rows, len(points))])
    keys = [sample_kwise(k, w, r, streams.stream(t)) for t in range(rows)]
    assert grid.tolist() == [[eval_kwise(key, x) for x in points] for key in keys]


def _power_sum(coeffs, x: int, w: int) -> int:
    """a0 + a1*x + ... + a_{k-1}*x^{k-1} as a sum of schoolbook products,
    with no Horner step and no table."""
    poly = DEFAULT_REDUCTION[w]
    acc, power = 0, 1
    for a in coeffs:
        acc ^= _mul_raw(a, power, w, poly)
        power = _mul_raw(power, x, w, poly)
    return acc


@pytest.mark.parametrize("w", SUPPORTED_WIDTHS)
@PROPERTY
@given(st.integers(1, 16), st.data())
def test_scalar_hashes_equal_the_schoolbook_power_sum(w, k, data):
    d = data.draw(st.integers(1, w), label="d")
    r = data.draw(st.integers(1, w), label="r")
    index_bits = data.draw(st.none() | st.integers(0, r), label="window bits")
    coeffs = tuple(data.draw(st.lists(st.integers(0, (1 << w) - 1), min_size=k, max_size=k),
                             label="coeffs"))
    key = KWiseHashKey(coeffs, d, r, w)
    restricted = None if index_bits is None else KWiseHashKey(coeffs, d, r, w, 1 << index_bits)
    # every x at w = 4, so Horner's accumulator passes through 0
    xs = range(1 << w) if w == 4 else [0] + data.draw(
        st.lists(st.integers(0, (1 << d) - 1), max_size=8), label="xs")
    for x in xs:
        want = _power_sum(coeffs, x, w) & ((1 << r) - 1)
        assert key.eval_int(x) == eval_kwise(key, x) == want
        if restricted is not None:
            cut = want & ((1 << index_bits) - 1)
            assert restricted.eval_int(x) == eval_kwise(restricted, x) == cut


def _parity_distinguisher(q: int, d: int) -> NonAdaptiveDistinguisher:
    """Accepts on an odd first answer: about half the trials either way,
    so a verdict out of place shows."""
    return NonAdaptiveDistinguisher([BitString(v, d) for v in range(q)],
                                    lambda values: (values[:, 0] & 1).astype(bool))


# KeySamplers, so each goes through its numpy twin in run_game's block path.
_GAME_SAMPLERS = {
    "lazy": lazy_sampler(12, 12),
    "levin": levin_sampler(12, 8, 12, 4),
    "pp": pp_sampler(ExtensionParams(12, 8, 12, 4, 8)),
    "adw-table": KeySampler(adw_layout(ExtensionParams(12, 8, 12, 2, 8), "table")),
    "adw-prf": KeySampler(adw_layout(ExtensionParams(12, 8, 12, 2, 8), "prf")),
}


def _adaptive_budget(data, d: int, least: int) -> int:
    """A power-of-two budget q >= least with 4q <= 2^d."""
    return 1 << data.draw(st.integers(least, min(4, d - 2)), label="log2 q")


def _assert_twin_equals_scalar(shape, kind: str, data):
    """The numpy twin of kind's layout, drawn on a block of key streams,
    answers as the scalar oracles that kind's builder keys from the same
    streams."""
    w, d, s, r, k = shape
    xs = _inputs(data, d)
    if kind.startswith("adaptive"):
        # the adaptive builders are the two layouts with window 4q; past
        # d+1 points the twin folds the adw key's windowed hashes and
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
    elif kind == "adw-prf":
        # z padded prf views as inner maps: the twin's padded slot
        p = _prf_adw_params((w, d, max(s, 3), r, k), data)
        r = p.r
        build, layout = partial(build_adw_domain_extension, p, "prf"), adw_layout(p, "prf")
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
    grid = columns.grid(tuple(x.value for x in xs))
    assert (columns.domain_bits, columns.range_bits) == (d, r)
    assert grid.tolist() == [[build(streams.stream(t)).query(x).value for x in xs]
                             for t in rows]


@PROPERTY
@given(shapes(), st.sampled_from(("lazy", "levin", "pp", "adw-table", "adw-prf", "adaptive-pp",
                                  "adaptive-adw")), st.data())
def test_numpy_twin_equals_scalar_keys(shape, kind, data):
    _assert_twin_equals_scalar(shape, kind, data)


@PROPERTY
@given(shapes(), st.data())
def test_levin_scalar_equals_batched(shape, data):
    _assert_twin_equals_scalar(shape, "levin", data)


@PROPERTY
@given(shapes(), st.data())
def test_pp_scalar_equals_batched(shape, data):
    _assert_twin_equals_scalar(shape, "pp", data)


@PROPERTY
@given(shapes(), st.data())
def test_range_restricted_pp_scalar_equals_batched(shape, data):
    _assert_twin_equals_scalar(shape, "adaptive-pp", data)


@PROPERTY
@given(shapes(), st.booleans(), st.data())
def test_table_adw_scalar_equals_batched(shape, restricted, data):
    _assert_twin_equals_scalar(shape, "adaptive-adw" if restricted else "adw-table", data)


@PROPERTY
@given(shapes(min_s=3), st.data())
def test_prf_adw_scalar_equals_batched(shape, data):
    _assert_twin_equals_scalar(shape, "adw-prf", data)


@PROPERTY
@given(st.sampled_from(sorted(_GAME_SAMPLERS)), st.integers(1, 8), st.data())
def test_batched_game_equals_run_game_across_blocks(kind, q, data):
    block = SMALL_BLOCK_ELEMS // q
    trials = data.draw(st.integers(2 * block + 1, 3 * block + 1), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    sampler, ideal = _GAME_SAMPLERS[kind], _GAME_SAMPLERS["lazy"]
    with mock.patch.object(batch, "BLOCK_ELEMS", SMALL_BLOCK_ELEMS):
        assert_paths_agree(sampler, ideal, _parity_distinguisher(q, 12), trials, seed)


@PROPERTY
@given(st.booleans(), st.integers(4, 16), st.data())
def test_adaptive_builders_keep_underlying_queries_below_4q(adw, n, data):
    q = 1 << data.draw(st.integers(1 if adw else 0, n - 2), label="log2 q")
    seen: list[InstrumentedOracle] = []
    f_sampler = counting_sampler(seen)
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
    queries = [v for f in seen for v in f.queries]
    assert len(queries) == 2 * probes
    assert max(queries) < 4 * q


# Input lengths for the fold: byte multiples and not, up to the widest
# field. A property runs once per length, so each runs fewer examples.
FOLD_LENGTHS = (5, 17, 24, 64)
FOLD_PROPERTY = settings(PROPERTY, max_examples=6)


def _table_shape(data, d: int, restricted: bool) -> tuple[ExtensionParams, int | None]:
    """(params, window) of one of the two table-backed adw builders at
    input length d: the adaptive one (d = s = r, window 4q) or the plain one."""
    if restricted:
        q = 1 << data.draw(st.integers(1, min(3, d - 2)), label="log2 q")
        c = data.draw(st.integers(1, 2), label="c")
        return ExtensionParams(d, d, d, 2, q, c), 4 * q
    return _table_params(data, d), None


def _table_adw(data, d: int, restricted: bool):
    """rng, f_sampler -> an oracle of one shape from one of the two
    table-backed adw builders, at input length d."""
    p, _ = _table_shape(data, d, restricted)
    if restricted:
        return lambda rng, f_sampler=None: build_adw_adaptive_from_nonadaptive(
            d, p.q, p.c, rng, f_sampler)
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
    oracle = _table_adw(data, d, restricted)(_rng(data), counting_sampler(seen))
    assert is_affine(oracle.key)
    xs = _past_fold(data, d)
    assert [oracle.query(x).value for x in xs] == [adw_eval(oracle.key, x.value) for x in xs]
    assert oracle._folded is not None and not isinstance(oracle._folded, partial)
    # the fold itself calls no underlying oracle; each query calls f1 and f2
    assert sum(f.calls for f in seen) == 2 * 2 * len(xs)


def _keyed_both_ways(data, layout):
    """A layout run on the first TRIALS streams of a drawn seed: the
    twin's column form and the oracle KeyDraws builds from each stream."""
    streams = KeyStreams(data.draw(st.integers(0, 2**64 - 1), label="seed"), 9)
    columns = layout(batch.ColumnDraws(streams.heads(range(TRIALS))))
    return columns, [layout(KeyDraws(streams.stream(t))) for t in range(TRIALS)]


@pytest.mark.parametrize("d", FOLD_LENGTHS)
@FOLD_PROPERTY
@given(st.booleans(), st.data())
def test_folded_adw_grid_equals_adw_eval(d, restricted, data):
    xs = _past_fold(data, d)
    p, window = _table_shape(data, d, restricted)
    columns, oracles = _keyed_both_ways(data, adw_layout(p, "table", window))
    assert columns._affine()
    grid = columns.grid(tuple(x.value for x in xs))
    assert grid.tolist() == [[adw_eval(o.key, x.value) for x in xs] for o in oracles]


def _not_affine_layout(p: ExtensionParams, window: int | None, slot: str, i: int):
    """The table adw_layout with inner map i made non-affine: a 3-wise g
    ("g"), a prf-backed map in one bar ("m1bar", "m2bar", "ybar"), or
    4-entry tables under a 2-bit g ("wide")."""
    z = adw_z(p, "table")
    wide = slot == "wide"

    def g(draws, j):
        if j == i and slot == "g":
            return draws.kwise(3, p.d, 1)
        return draws.kwise(2, p.d, 2 if wide and j == i else 1)

    def m(draws, j, name, bits, entry_window):
        if j == i and slot == name:
            return draws.padded(draws.prf(8, 64), 1, bits)
        return draws.table(4 if wide and j == i else 2, bits, entry_window)

    def layout(draws):
        h1 = draws.kwise(2, p.d, p.s, window)
        h2 = draws.kwise(2, p.d, p.s, window)
        ell = draws.kwise(2, p.d, p.r)
        gbar = tuple(g(draws, j) for j in range(z))
        m1bar = tuple(m(draws, j, "m1bar", p.s, window) for j in range(z))
        m2bar = tuple(m(draws, j, "m2bar", p.s, window) for j in range(z))
        ybar = tuple(m(draws, j, "ybar", p.r, None) for j in range(z))
        f1 = draws.prf(p.s, p.r)
        return draws.adw(h1, h2, ell, gbar, m1bar, m2bar, ybar, f1, draws.prf(p.s, p.r))

    return layout


@PROPERTY
@given(st.sampled_from(FOLD_LENGTHS), st.sampled_from(("g", "m1bar", "m2bar", "ybar", "wide")),
       st.data())
def test_adw_key_that_is_not_affine_is_not_folded(d, slot, data):
    """One 3-wise g, one prf-backed inner map, or one column of 4-entry
    tables under a 2-bit g, and the key takes the reference path in both
    engines, exactly."""
    p, window = _table_shape(data, d, data.draw(st.booleans(), label="restricted"))
    i = data.draw(st.integers(0, adw_z(p, "table") - 1), label="i")
    columns, oracles = _keyed_both_ways(data, _not_affine_layout(p, window, slot, i))
    xs = _past_fold(data, d)
    want = [[adw_eval(o.key, x.value) for x in xs] for o in oracles]
    assert not any(is_affine(o.key) for o in oracles)
    assert [[o.query(x).value for x in xs] for o in oracles] == want
    assert all(isinstance(o._folded, partial) for o in oracles)
    assert not columns._affine()
    assert columns.grid(tuple(x.value for x in xs)).tolist() == want
