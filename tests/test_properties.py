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
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuckooprf import batch, experiments
from cuckooprf.bits import BitString, KeyStreams, mix64, truncate
from cuckooprf.combine import ADWKey, adw_eval, fold_adw, is_affine
from cuckooprf.experiments import levin_sampler
from cuckooprf.games import NonAdaptiveDistinguisher
from cuckooprf.gf import DEFAULT_REDUCTION, SUPPORTED_WIDTHS, _mul_raw
from cuckooprf.hashfam import KWiseHashKey, RandomTable, eval_kwise, sample_kwise, sample_table
from cuckooprf.prfcore import LazyRandomOracle, lazy_answer
from cuckooprf.transform import (
    ExtensionParams,
    KeyDraws,
    KeySampler,
    PaddedPrfMap,
    adw_layout,
    adw_z,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    lazy_sampler,
    pp_layout,
    pp_sampler,
)
from closedforms import pp_formula
from gamepaths import assert_paths_agree
from spies import InstrumentedOracle, count_calls, counting_sampler, fold_answers, fold_kind

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
    for x in _inputs(data, d):
        assert adw_eval(adw, x.value) == pp_formula(adw, x.value)


@PROPERTY
@given(shapes(min_s=3), st.data())
def test_underlying_call_counts(shape, data):
    _, d, s, r, k = shape
    rng = _rng(data)
    xs = _inputs(data, d)
    pp = pp_sampler(ExtensionParams(d, s, r, k, 1))(rng)
    table = adw_layout(ExtensionParams(d, s, r, 2, 2), "table")(KeyDraws(rng))
    prf = adw_layout(_prf_adw_params(shape, data), "prf")(KeyDraws(rng))
    z = len(prf.gbar)
    for x in xs:
        assert count_calls(adw_eval, pp, x.value) == (2, 3)
        assert count_calls(adw_eval, table, x.value) == (2, 3 + len(table.gbar))
        assert count_calls(adw_eval, prf, x.value) == (3 * z + 2, 3 + z)


def _assert_grid_equals_eval_kwise(w, k, points, rows, r, seed):
    """A block walk of k-wise hashes from w to r bits, drawn as word
    columns, evaluates at points as the KWiseHashKeys that sample_kwise
    draws from the same streams."""
    streams = KeyStreams(seed, 9)
    with mock.patch.object(batch, "BLOCK_ELEMS", SMALL_BLOCK_ELEMS):
        grid = np.concatenate([
            batch.ColumnDraws(streams.heads(b)).kwise(k, w, r).grid(tuple(points))
            for b in batch.blocks(rows, len(points))])
    keys = [sample_kwise(k, w, r, streams.stream(t)) for t in range(rows)]
    assert grid.tolist() == [[eval_kwise(key, x) for x in points] for key in keys]


@PROPERTY
@given(st.sampled_from(SUPPORTED_WIDTHS), st.integers(1, 16), st.data())
def test_grid_kernel_equals_eval_kwise(w, k, data):
    points = [0] + data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=7), label="points")
    block = SMALL_BLOCK_ELEMS // len(points)
    rows = data.draw(st.sampled_from((1, block - 1, block, block + 1, 2 * block + 1)),
                     label="rows")
    r = data.draw(st.integers(1, w), label="r")
    _assert_grid_equals_eval_kwise(w, k, points, rows, r,
                                   data.draw(st.integers(0, 2**64 - 1), label="seed"))


@pytest.mark.parametrize("w, r, q", (
    # a0 gathered from the table of x^0 (w <= 8), in uint8 tables
    (4, 3, 2), (8, 8, 4), (8, 5, 8),
    # a0 cut to the kept bits and broadcast (w >= 16), in uint8, uint16,
    # uint32 and uint64 tables
    (16, 8, 2), (16, 12, 2), (16, 16, 4), (32, 7, 8), (32, 12, 4), (32, 24, 3),
    (32, 32, 2), (64, 16, 4), (64, 40, 3), (64, 64, 2),
))
def test_kept_width_grids_equal_eval_kwise(w, r, q):
    # q points, the top point of the field among them, at k = 1, 2, 5
    # and 16, where the grid keeps r of the field's w bits
    rng = random.Random(w * q + r)
    points = [0, (1 << w) - 1, *(rng.getrandbits(w) for _ in range(q - 2))]
    for k in (1, 2, 5, 16):
        _assert_grid_equals_eval_kwise(w, k, points, 2 * (SMALL_BLOCK_ELEMS // q) + 1, r, k)


@pytest.mark.parametrize("side", ("table", "mixed"))
@PROPERTY
@given(st.data())
def test_lazy_answers_on_a_grid_equal_lazy_answer(side, data):
    """A block's lazy-random slot, or a padded view of one, answers a
    (rows, q) grid of points of its domain, 0 and 2^d - 1 among them,
    as the scalar oracles keyed from the same streams, also when it
    answers in place of the points. On the table side of the rule
    (2^d <= BLOCK_ELEMS) the inner mixes are read from the table of the
    domain, on the other side mixed per point."""
    table = side == "table"
    domain_bits = data.draw(st.integers(1, 15) if table else st.integers(16, 17), label="d")
    top = (1 << domain_bits) - 1
    rows, q = data.draw(st.integers(1, 4), label="rows"), data.draw(st.integers(2, 5), label="q")
    r = data.draw(st.integers(1, 64), label="r")
    cells = data.draw(st.lists(st.integers(0, top), min_size=rows * q - 2, max_size=rows * q - 2),
                      label="points")
    points = np.array(data.draw(st.permutations([0, top, *cells]), label="order"),
                      dtype=np.uint64).reshape(rows, q)
    # a padded view of a prf of (s, r') bits, or the prf itself
    view = data.draw(st.none() | st.tuples(st.integers(domain_bits, 64), st.integers(r, 64)),
                     label="padded")

    def layout(draws):
        if view is None:
            return draws.prf(domain_bits, r)
        return draws.padded(draws.prf(*view), domain_bits, r)

    streams = KeyStreams(data.draw(st.integers(0, 2**64 - 1), label="seed"), 11)
    f = layout(batch.ColumnDraws(streams.heads(range(rows))))
    keys = [layout(KeyDraws(streams.stream(t))) for t in range(rows)]
    expected = [[key.eval_int(int(x)) for x in row] for key, row in zip(keys, points)]
    with mock.patch.object(batch, "_inner_mixes", wraps=batch._inner_mixes) as mixes:
        assert f.at(points.copy()).tolist() == expected
        assert f.at(points, points).tolist() == expected
    assert mixes.called == table


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
        # window tables
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
        build = KeySampler(adw_layout(p, "prf"))
        layout = build.layout
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


@settings(PROPERTY, max_examples=60)
@given(st.integers(0, 12), st.integers(1, 64), st.data())
def test_tallied_oracles_answer_as_lazy_answer_and_count_exactly(log_window, range_bits, data):
    """Two oracles of one tally, asked a mix of points inside and outside
    a window of 2^0..2^12 strings, answer as lazy_answer, and the tally
    counts every query exactly; the probe loop's count (_outside) counts
    every one at or past the window, each time it is asked."""
    window, domain_bits = 1 << log_window, 14
    tally = experiments._CallTally()
    rng = _rng(data)
    oracles = [tally(rng, domain_bits, range_bits) for _ in range(2)]
    point = st.one_of(st.integers(0, window - 1), st.integers(window, (1 << domain_bits) - 1))
    asked = data.draw(st.lists(st.tuples(st.integers(0, 1), point), max_size=60), label="asked")
    for i, x in asked:
        assert oracles[i].eval_int(x) == lazy_answer(oracles[i].seed, x, range_bits)
    assert tally.calls == len(asked)
    points = np.array([x for _, x in asked], dtype=np.uint64)
    assert experiments._outside(points, window) == sum(x >= window for _, x in asked)


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
    return lambda rng, f_sampler=None: adw_layout(p, "table")(KeyDraws(rng, f_sampler))


def _table_params(data, d: int) -> ExtensionParams:
    """A table-backed adw shape with z >= 1: 2 <= q <= 2^(s-2)."""
    s = data.draw(st.integers(3, min(d, 20)), label="s")
    r = data.draw(st.integers(1, 64), label="r")
    q = 1 << data.draw(st.integers(1, min(3, s - 2)), label="log2 q")
    return ExtensionParams(d, s, r, 2, q)


def _past_fold(data, d: int) -> list[BitString]:
    """d + 2 to d + 6 inputs: more than the d + 1 basis points of an
    affine key, so the twin folds too."""
    values = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=d + 2, max_size=d + 6),
                       label="xs")
    return [BitString(v, d) for v in values]


@pytest.mark.parametrize("d", FOLD_LENGTHS)
@FOLD_PROPERTY
@given(st.booleans(), st.data())
def test_folded_adw_oracle_equals_adw_eval(d, restricted, data):
    seen: list[InstrumentedOracle] = []
    oracle = _table_adw(data, d, restricted)(_rng(data), counting_sampler(seen))
    assert is_affine(oracle)
    xs = _past_fold(data, d)
    want = [adw_eval(oracle, x.value) for x in xs]
    assert [oracle.query(x).value for x in xs] == want
    # each query calls f1 and f2, the oracle's and adw_eval's
    assert sum(f.calls for f in seen) == 2 * 2 * len(xs)
    folded = fold_adw(oracle)
    assert fold_kind(folded) == _evaluator(oracle)
    # the fold itself calls no underlying oracle; each answer read from
    # its inner values calls f1 and f2
    assert sum(f.calls for f in seen) == 2 * 2 * len(xs)
    assert fold_answers(folded, oracle, [x.value for x in xs]) == want
    assert sum(f.calls for f in seen) == 3 * 2 * len(xs)


def _evaluator(key: ADWKey):
    """The evaluator (fold_kind) fold_adw must fold key into: byte tables
    of the odd powers if h1, h2, ell and every g_i are k-wise keys over
    one GF(2^w) with w <= 16, whatever their coefficients, and every g_i
    has k <= 2 and every inner map is a 2-entry table; else
    adw_inner_values at each point."""
    hashes = (key.h1, key.h2, key.ell, *key.gbar)
    maps = (*key.m1bar, *key.m2bar, *key.ybar)
    if (all(isinstance(h, KWiseHashKey) for h in hashes) and len({h.width for h in hashes}) == 1
            and key.h1.width <= 16 and all(g.k <= 2 for g in key.gbar)
            and all(isinstance(m, RandomTable) and len(m.entries) == 2 for m in maps)):
        return "tables"
    return "pointwise"


def _keyed_both_ways(data, layout):
    """_keyed at a drawn seed."""
    return _keyed(data.draw(st.integers(0, 2**64 - 1), label="seed"), layout)


def _keyed(seed: int, layout):
    """A layout run on the first TRIALS streams of a seed: the twin's
    column form and the oracle KeyDraws builds from each stream."""
    streams = KeyStreams(seed, 9)
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
    assert grid.tolist() == [[adw_eval(o, x.value) for x in xs] for o in oracles]


def _block_below(data, d: int) -> tuple[int, tuple[int, ...]]:
    """(u, xs): u + 2 to u + 6 distinct points below 2^u, 0 and 2^(u-1)
    among them, for a drawn 2 <= u <= d. (At u = 1 only 2 points lie
    below 2^u, too few to fold.)"""
    u = data.draw(st.integers(2, d), label="u")
    top = 1 << (u - 1)
    others = data.draw(st.lists(st.integers(1, (1 << u) - 2).map(lambda v: v + (v >= top)),
                                unique=True, min_size=u, max_size=min(u + 4, (1 << u) - 2)),
                       label="others")
    return u, tuple(data.draw(st.permutations((0, top, *others)), label="xs"))


def _inner_points(columns, xs: tuple[int, ...]):
    """(grid, the points of each _inner call) of columns.grid(xs)."""
    with mock.patch.object(batch._ADW, "_inner", autospec=True,
                           side_effect=batch._ADW._inner) as inner:
        grid = columns.grid(xs)
    return grid, [call.args[1] for call in inner.call_args_list]


@pytest.mark.parametrize("d", FOLD_LENGTHS)
@FOLD_PROPERTY
@given(st.booleans(), st.data())
def test_folded_twin_evaluates_the_inner_maps_at_the_bits_its_queries_use(d, restricted, data):
    """A block of more than u + 1 points below 2^u is folded from one
    _inner call at the u + 1 points 0, 1, 2, ..., 2^(u-1), and answered
    as adw_eval answers."""
    u, xs = _block_below(data, d)
    p, window = _table_shape(data, d, restricted)
    columns, oracles = _keyed_both_ways(data, adw_layout(p, "table", window))
    grid, points = _inner_points(columns, xs)
    assert points == [(0, *(1 << j for j in range(u)))]
    assert grid.tolist() == [[adw_eval(o, x) for x in xs] for o in oracles]


@pytest.mark.parametrize("d", FOLD_LENGTHS)
@FOLD_PROPERTY
@given(st.booleans(), st.data())
def test_pp_keys_fold_at_k_2_and_answer_as_pp(d, affine, data):
    """A pp key, an adw key with no inner maps, is affine at k = 2 and not
    at k >= 3. Its oracle, and its fold (byte tables or adw_eval,
    _evaluator), each answer d + 3 or more queries with the pp formula,
    at exactly 2 underlying calls per query; its twin folds a block of
    more than u + 1 points only at k = 2."""
    k = 2 if affine else data.draw(st.integers(3, 6), label="k")
    s = data.draw(st.integers(2, min(d, 20)), label="s")
    layout = pp_layout(d, s, data.draw(st.integers(1, 64), label="r"), k)
    seen: list[InstrumentedOracle] = []
    oracle = layout(KeyDraws(_rng(data), counting_sampler(seen)))
    assert oracle.gbar == () and is_affine(oracle) == affine
    xs = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=d + 3, max_size=d + 6),
                   label="xs")
    answers = [oracle.query(BitString(x, d)).value for x in xs]
    assert sum(f.calls for f in seen) == 2 * len(xs)
    folded = fold_adw(oracle)
    assert fold_kind(folded) == _evaluator(oracle)
    assert fold_answers(folded, oracle, xs) == answers
    assert sum(f.calls for f in seen) == 2 * 2 * len(xs)
    assert answers == [pp_formula(oracle, x) for x in xs]

    u, block = _block_below(data, d)
    columns, oracles = _keyed_both_ways(data, layout)
    assert columns._affine() == affine
    grid, points = _inner_points(columns, block)
    assert points == [(0, *(1 << j for j in range(u))) if affine else block]
    assert grid.tolist() == [[pp_formula(o, x) for x in block] for o in oracles]


def _not_affine_layout(p: ExtensionParams, window: int | None, slot: str, i: int | None = None):
    """The table adw_layout with inner map i made non-affine: a 3-wise g
    ("g"), a prf-backed map in one bar ("m1bar", "m2bar", "ybar"), or
    4-entry tables under a 2-bit g ("wide"). With i None every inner map
    is made so, and each bar is drawn as draws.bar, the one form the twin
    reads; with i a map index the bars are tuples, which only KeyDraws
    builds."""
    z = adw_z(p, "table")
    wide = slot == "wide"

    def g(draws, odd):
        if odd and slot == "g":
            return draws.kwise(3, p.d, 1)
        return draws.kwise(2, p.d, 2 if wide and odd else 1)

    def m(draws, odd, name, bits, entry_window):
        if odd and slot == name:
            return draws.padded(draws.prf(8, 64), 1, bits)
        return draws.table(4 if wide and odd else 2, bits, entry_window)

    def bar(draws, draw):
        if i is None:
            return draws.bar(z, lambda: draw(True))
        return tuple(draw(j == i) for j in range(z))

    def layout(draws):
        h1 = draws.kwise(2, p.d, p.s, window)
        h2 = draws.kwise(2, p.d, p.s, window)
        ell = draws.kwise(2, p.d, p.r)
        gbar = bar(draws, lambda odd: g(draws, odd))
        m1bar = bar(draws, lambda odd: m(draws, odd, "m1bar", p.s, window))
        m2bar = bar(draws, lambda odd: m(draws, odd, "m2bar", p.s, window))
        ybar = bar(draws, lambda odd: m(draws, odd, "ybar", p.r, None))
        f1 = draws.prf(p.s, p.r)
        return draws.adw(h1, h2, ell, gbar, m1bar, m2bar, ybar, f1, draws.prf(p.s, p.r))

    return layout


@PROPERTY
@given(st.sampled_from(FOLD_LENGTHS), st.sampled_from(("g", "m1bar", "m2bar", "ybar", "wide")),
       st.data())
def test_adw_key_that_is_not_affine_is_not_folded(d, slot, data):
    """One 3-wise g, one prf-backed inner map, or one column of 4-entry
    tables under a 2-bit g, and the scalar oracle answers the key past
    d + 1 points exactly, as does fold_adw's evaluator, which applies
    adw_inner_values at each point (_evaluator). The twin reads a bar only whole, so it
    is checked on keys whose every inner map is made so, and does not
    fold them."""
    p, window = _table_shape(data, d, data.draw(st.booleans(), label="restricted"))
    i = data.draw(st.integers(0, adw_z(p, "table") - 1), label="i")
    oracles = [_not_affine_layout(p, window, slot, i)(KeyDraws(_rng(data)))
               for _ in range(TRIALS)]
    xs = _past_fold(data, d)
    want = [[adw_eval(o, x.value) for x in xs] for o in oracles]
    assert not any(is_affine(o) for o in oracles)
    assert [[o.query(x).value for x in xs] for o in oracles] == want
    folds = [fold_adw(o) for o in oracles]
    assert all(fold_kind(f) == _evaluator(o) == "pointwise" for f, o in zip(folds, oracles))
    assert [fold_answers(f, o, [x.value for x in xs]) for f, o in zip(folds, oracles)] == want

    columns, oracles = _keyed_both_ways(data, _not_affine_layout(p, window, slot))
    assert not any(is_affine(o) for o in oracles)
    assert not columns._affine()
    assert columns.grid(tuple(x.value for x in xs)).tolist() == \
        [[adw_eval(o, x.value) for x in xs] for o in oracles]


def _summable_hash(data, w: int, k: int, d: int, bits: int, window: int | None) -> KWiseHashKey:
    """A k-wise key over GF(2^w) whose coefficients a_1..a_{k-1} are nonzero."""
    a0 = data.draw(st.integers(0, (1 << w) - 1), label="a0")
    rest = data.draw(st.lists(st.integers(1, (1 << w) - 1), min_size=k - 1, max_size=k - 1),
                     label="a_i")
    return KWiseHashKey((a0, *rest), d, bits, w, window)


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from((4, 8, 16)), st.integers(2, 12), st.booleans(), st.data())
def test_power_sums_answer_as_adw_eval_past_the_fold(w, k, windowed, data):
    """A key whose h1, h2 and ell are k-wise over one GF(2^w), w <= 16,
    with nonzero a_1..a_{k-1}, and whose up to 3 bars are affine (a
    2-wise g over that field into 2-entry tables), is folded into byte
    tables; the fold's inner values and the key itself answer at x = 0,
    x = 1 and drawn points as adw_eval answers, at exactly 2 underlying
    calls per query."""
    d = data.draw(st.integers(w // 2 + 1, w), label="d")
    s = data.draw(st.integers(1, d), label="s")
    r = data.draw(st.integers(1, w), label="r")
    window = 1 << data.draw(st.integers(0, s), label="log2 window") if windowed else None
    rng = _rng(data)
    z = data.draw(st.integers(0, 3), label="z")
    gbar = tuple(sample_kwise(2, d, 1, rng) for _ in range(z))
    m1bar = tuple(sample_table(2, s, rng, window) for _ in range(z))
    m2bar = tuple(sample_table(2, s, rng, window) for _ in range(z))
    ybar = tuple(sample_table(2, r, rng) for _ in range(z))
    f1, f2 = (InstrumentedOracle(LazyRandomOracle(rng.getrandbits(64), s, r)) for _ in range(2))
    key = ADWKey(_summable_hash(data, w, k, d, s, window), _summable_hash(data, w, k, d, s, window),
                 _summable_hash(data, w, k, d, r, None), gbar, m1bar, m2bar, ybar, f1, f2)
    folded = fold_adw(key)
    assert fold_kind(folded) == "tables"
    xs = [0, 1, *data.draw(st.lists(st.integers(0, (1 << d) - 1), max_size=4), label="xs")]
    for ask in (lambda x: fold_answers(folded, key, [x])[0], key.eval_int):
        for x in xs:
            calls = f1.calls + f2.calls
            answer = ask(x)
            assert f1.calls + f2.calls - calls == 2
            assert answer == adw_eval(key, x)


def _foldable_hash(data, w: int, d: int, bits: int, window: int | None) -> KWiseHashKey:
    """A k-wise key over GF(2^w) from d to `bits` bits, 2 <= k <= 16,
    each coefficient 0 about a third of the time."""
    k = data.draw(st.integers(2, 16), label="k")
    coeff = st.one_of(st.just(0), st.integers(0, (1 << w) - 1), st.integers(0, (1 << w) - 1))
    coeffs = data.draw(st.lists(coeff, min_size=k, max_size=k), label="coeffs")
    return KWiseHashKey(tuple(coeffs), d, bits, w, window)


def _bar(data, rng, w: int, d: int, s1: int, s2: int, r: int, window: int | None) -> tuple:
    """One bar (g, m1, m2, y), g over GF(2^w) unless drawn wider:
    affine (a 2-wise g to one bit, 2-entry tables), or not (a 3-wise g,
    a 2-bit g over 4-entry tables, a prf-backed y map, or a 2-wise g
    over GF(2^32))."""
    kind = data.draw(st.sampled_from(("affine", "affine", "3-wise g", "2-bit g", "prf y",
                                      "wide g")), label="bar")
    u = 2 if kind == "2-bit g" else 1
    width = 32 if kind == "wide g" else w
    g = KWiseHashKey(tuple(rng.getrandbits(width) for _ in range(3 if kind == "3-wise g" else 2)),
                     d, u, width)
    m1, m2 = sample_table(1 << u, s1, rng, window), sample_table(1 << u, s2, rng, window)
    y = (PaddedPrfMap(LazyRandomOracle(rng.getrandbits(64), 8, 64), u, r) if kind == "prf y"
         else sample_table(1 << u, r, rng))
    return g, m1, m2, y


@settings(PROPERTY, max_examples=80)
@given(st.sampled_from((4, 8, 16)), st.booleans(), st.data())
def test_fold_answers_as_adw_eval_at_two_calls_per_query(w, windowed, data):
    """fold_adw folds a key whose h1, h2, ell and every g are k-wise keys
    over one GF(2^w), w <= 16, at any k, with every bar affine: zero
    coefficients anywhere, the three hashes of their own k, and h1 and h2
    with or without a window. Any other bar, or a g of another width,
    leaves the key to adw_inner_values at each point (_evaluator).
    Neither fold calls f1 or f2; answered from its inner values, each
    answers as adw_eval at x = 0, x = 1, x = 2^d - 1 and drawn points,
    with exactly 2 calls of f1 and f2 per query."""
    d = data.draw(st.integers(1, w), label="d")
    s1, s2 = (data.draw(st.integers(1, d), label="s") for _ in range(2))
    r = data.draw(st.integers(1, w), label="r")
    window = 1 << data.draw(st.integers(0, min(s1, s2)), label="log2 window") if windowed else None
    rng = _rng(data)
    h1 = _foldable_hash(data, w, d, s1, window)
    h2 = _foldable_hash(data, w, d, s2, window)
    ell = _foldable_hash(data, w, d, r, None)
    bars = [_bar(data, rng, w, d, s1, s2, r, window)
            for _ in range(data.draw(st.integers(0, 3), label="z"))]
    f1, f2 = (InstrumentedOracle(LazyRandomOracle(rng.getrandbits(64), s, r)) for s in (s1, s2))
    gbar, m1bar, m2bar, ybar = tuple(zip(*bars)) if bars else ((),) * 4
    key = ADWKey(h1, h2, ell, gbar, m1bar, m2bar, ybar, f1, f2)
    folded = fold_adw(key)
    assert fold_kind(folded) == _evaluator(key) and f1.calls + f2.calls == 0
    xs = [0, 1, (1 << d) - 1, *data.draw(st.lists(st.integers(0, (1 << d) - 1), max_size=4),
                                         label="xs")]
    for x in xs:
        calls = f1.calls, f2.calls
        answer = fold_answers(folded, key, [x])[0]
        assert (f1.calls - calls[0], f2.calls - calls[1]) == (1, 1)
        assert answer == adw_eval(key, x)


class ChunkCase(NamedTuple):
    """The draws of test_adw_twin_equals_scalar_across_chunks: the input
    length, the points asked, the shape (the (q, c) pair, s and r, which
    each kind reads as its shape allows), the non-affine slot, and the
    seed of the key streams."""
    d: int
    xs: tuple[int, ...]
    qc: tuple[int, int]
    s: int
    r: int
    slot: str
    seed: int


@st.composite
def chunk_cases(draw):
    d = draw(st.sampled_from(FOLD_LENGTHS))
    # d + 2 to d + 6 points fold whatever bits they use; 1 to 5 points
    # fold only when they use fewer bits than their number less one
    many = draw(st.booleans())
    xs = draw(st.lists(st.integers(0, (1 << d) - 1), min_size=d + 2 if many else 1,
                       max_size=d + 6 if many else 5))
    return ChunkCase(
        d, tuple(xs), draw(st.sampled_from(((2, 3), (4, 2)))),
        draw(st.integers(4, min(d, 20))), draw(st.integers(1, 64)),
        draw(st.sampled_from(("g", "m1bar", "m2bar", "ybar", "wide"))),
        draw(st.integers(0, 2**64 - 1)))


def _chunked_layout(case: ChunkCase, kind: str):
    """(layout, z) of an adw shape at input length d whose bars split into
    chunks: (q, c) = (2, 3) or (4, 2) gives z = 10 or 16 (the prf variant
    takes c = 3, so z = 10), and z = n c' + 1 for a chunk c' and n >= 2.
    "z0" is the table variant at q = 1, which has no inner maps."""
    d = case.d
    q, c = (1, 1) if kind == "z0" else case.qc
    if kind == "window":  # the adaptive builder's shape
        p, window = ExtensionParams(d, d, d, 2, q, c), 4 * q
    else:
        r = max(case.r, case.s) if kind == "prf" else case.r
        p, window = ExtensionParams(d, case.s, r, 2, q, 3 if kind == "prf" else c), None
    if kind == "not-affine":
        return _not_affine_layout(p, window, case.slot), adw_z(p, "table")
    variant = "prf" if kind == "prf" else "table"
    return adw_layout(p, variant, window), adw_z(p, variant)


@pytest.mark.parametrize("kind", ("table", "window", "prf", "not-affine", "z0"))
@settings(PROPERTY, max_examples=10)
@given(chunk_cases())
# 4 points that use 2 bits: folded at 3 points, where a d+1 rule would not fold
@example(ChunkCase(17, (0, 1, 2, 3), (2, 3), 8, 24, "g", 1))
# 2 points, one using all d bits: never folded
@example(ChunkCase(17, (5, 1 << 16), (4, 2), 8, 24, "ybar", 2))
def test_adw_twin_equals_scalar_across_chunks(kind, case):
    """With BLOCK_ELEMS cut so that a bar of z inner maps takes chunks of
    c' slots, the last one holding 1, the twin takes each chunk as one
    row slice of the stacked bars, one g grid of c' * trials rows, and
    still answers as the scalar keys.
    An affine block asked for more than u + 1 points, u the bits they
    use, is folded, and its grids are over the u + 1 basis points."""
    layout, z = _chunked_layout(case, kind)
    columns, oracles = _keyed(case.seed, layout)
    xs = [BitString(v, case.d) for v in case.xs]
    used = max(case.xs).bit_length()
    folded = columns._affine() and len(xs) > used + 1
    # the widest chunk that leaves 1 slot for the last of at least 3
    chunk = max((c for c in range(1, (z - 1) // 2 + 1) if (z - 1) % c == 0), default=1)
    rows_per_grid = []
    real_grid = batch._Hashes.grid

    def grid(self, points, *out):
        rows_per_grid.append(len(self.coeffs))
        return real_grid(self, points, *out)

    elems = TRIALS * (used + 1 if folded else len(xs)) * chunk
    with mock.patch.object(batch, "BLOCK_ELEMS", elems), \
            mock.patch.object(batch._Hashes, "grid", grid):
        answers = columns.grid(case.xs).tolist()
    assert answers == [[o.query(x).value for x in xs] for o in oracles]
    assert sum(rows_per_grid) == (3 + z) * TRIALS
    if kind == "z0":
        assert rows_per_grid == [TRIALS] * 3
    else:
        # h1, h2 and ell, then (z - 1) / c' full chunks and one of 1 slot
        assert rows_per_grid == [TRIALS] * 3 + [chunk * TRIALS] * ((z - 1) // chunk) + [TRIALS]
    assert max(rows_per_grid) <= chunk * TRIALS


def test_a_bar_of_no_slots_draws_nothing():
    def draw():
        raise AssertionError("a bar of z = 0 slots drew one")

    draws = batch.ColumnDraws(KeyStreams(1, 2).heads(range(3)))
    assert draws.bar(0, draw) == KeyDraws(random.Random(1)).bar(0, draw) == ()
    assert draws._next == 0


@st.composite
def bar_slots(draw):
    """(method, args) of one slot per kind a bar stacks: a k-wise hash over
    GF(2^w) at every supported w, with or without a window, a windowed
    table, and a padded view of a prf."""

    def window(bits):
        return draw(st.none() | st.integers(0, bits).map(lambda b: 1 << b))

    slots = []
    for w in SUPPORTED_WIDTHS:
        k, d, r = draw(st.integers(2, 5)), draw(st.integers(w // 2 + 1, w)), draw(st.integers(1, w))
        slots.append(("kwise", (k, d, r, window(r))))
    entry_bits = draw(st.integers(1, 64))
    entry_window = 1 << draw(st.integers(0, entry_bits))
    slots.append(("table", (draw(st.integers(1, 5)), entry_bits, entry_window)))
    s, r = draw(st.integers(2, 64)), draw(st.integers(1, 64))
    slots.append(("padded", (s, r, draw(st.integers(1, s)), draw(st.integers(1, r)))))
    return slots


def _draw_slot(draws, method: str, args: tuple):
    if method == "padded":
        s, r, domain_bits, range_bits = args
        return draws.padded(draws.prf(s, r), domain_bits, range_bits)
    return getattr(draws, method)(*args)


def _scalar_words(slot) -> list[int]:
    if isinstance(slot, KWiseHashKey):
        return list(slot.coeffs)
    if isinstance(slot, PaddedPrfMap):
        return [slot.f.seed]
    return list(slot.entries)


def _stacked_words(slot) -> list[list[int]]:
    if isinstance(slot, batch._Hashes):
        return slot.coeffs.tolist()
    if isinstance(slot, batch._Lazy):
        return [[seed] for seed in slot.seeds.tolist()]
    return slot.entries.tolist()


@pytest.mark.parametrize("z", (1, 2, 7))
@pytest.mark.parametrize("rows", (1, 3, 256))
@settings(PROPERTY, max_examples=5)
@given(bar_slots(), st.integers(0, 2**64 - 1))
def test_a_stacked_bar_holds_slot_i_in_rows_i_rows_to_i_plus_1_rows(rows, z, slots, seed):
    """ColumnDraws.bar draws a bar of z slots as one slot of z * rows
    rows: row i * rows + t holds the words KeyDraws.bar's slot i reads
    from stream t. One bar per kind, drawn in turn and followed by a
    prf, so each bar also reads exactly the scalar bar's words."""

    def layout(draws):
        bars = [draws.bar(z, lambda: _draw_slot(draws, *slot)) for slot in slots]
        return bars, draws.prf(8, 64)

    streams = KeyStreams(seed, 4)
    stacked, after = layout(batch.ColumnDraws(streams.heads(range(rows))))
    keys = [layout(KeyDraws(streams.stream(t))) for t in range(rows)]
    for n, column in enumerate(stacked):
        assert _stacked_words(column) == [_scalar_words(keys[t][0][n][i])
                                          for i in range(z) for t in range(rows)]
    assert after.seeds.tolist() == [f.seed for _, f in keys]
