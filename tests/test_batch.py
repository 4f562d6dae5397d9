import functools
import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuckooprf import batch, games
from cuckooprf.batch import (
    ColumnDraws,
    batch_answers,
    lazy_answers,
)
from cuckooprf.bits import (
    BitString,
    KeyStreams,
    derive_seed,
    key_stream,
    mix64,
    mix64_inplace,
    truncate,
)
from cuckooprf.errors import ConfigurationError
from cuckooprf.experiments import birthday, levin_sampler, uniformity
from cuckooprf.games import (
    Distinguisher,
    NonAdaptiveDistinguisher,
    birthday_distinguisher,
    game_streams,
    involution_nonadaptive_distinguisher,
    run_game,
    sample_streams,
    tuple_uniformity_sd,
)
from cuckooprf.gf import SUPPORTED_WIDTHS, default_spec
from cuckooprf.hashfam import sample_kwise
from cuckooprf.prfcore import LazyRandomOracle, PrgSpec
from cuckooprf.transform import (
    ExtensionParams,
    KeyDraws,
    KeySampler,
    adw_layout,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    build_prg_prf,
    lazy_sampler,
    pp_layout,
    pp_sampler,
)
from gamepaths import assert_paths_agree
from spies import FunctionOracle


def test_mix64_inplace_matches_scalar():
    rng = random.Random(701)
    vals = np.array([rng.getrandbits(64) for _ in range(5000)], dtype=np.uint64)
    got = mix64_inplace(vals.copy())
    for v, g in zip(vals[:500], got[:500]):
        assert int(g) == mix64(int(v))


def test_lazy_answers_matches_scalar_oracle():
    seeds = np.array([derive_seed(5, t) for t in range(20)], dtype=np.uint64)
    xs = np.array([3, 9, 100, 2**30], dtype=np.uint64)
    grid = lazy_answers(seeds, xs, 12)
    for t in range(20):
        o = LazyRandomOracle(int(seeds[t]), 32, 12)
        for j, x in enumerate(xs):
            assert int(grid[t, j]) == o.query(BitString(int(x), 32)).value


def test_lazy_answers_per_row_inputs():
    seeds = np.array([1, 2, 3], dtype=np.uint64)
    xs = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.uint64)
    grid = lazy_answers(seeds, xs, 8)
    assert xs.tolist() == [[1, 2], [3, 4], [5, 6]]  # mixed in a buffer of its own
    for t in range(3):
        o = LazyRandomOracle(int(seeds[t]), 16, 8)
        for j in range(2):
            assert int(grid[t, j]) == o.query(BitString(int(xs[t, j]), 16)).value


def test_the_inner_mix_cache_holds_no_table_larger_than_a_block():
    # lazy_answers reads a grid's inner mixes from a table of the domain
    # only while it holds at most BLOCK_ELEMS entries: after grids at
    # domains of 1 to 17, 24 and 64 bits the cache holds the 15 tables of
    # 1 to 15 bits, each read-only
    mixes = batch._inner_mixes
    mixes.cache_clear()
    try:
        seeds = np.arange(2, dtype=np.uint64)
        for d in (*range(1, 18), 24, 64):
            lazy_answers(seeds, np.zeros((2, 3), dtype=np.uint64), 8, d)
        held = mixes.cache_info().currsize
        tables = [mixes(d) for d in range(1, 16)]  # each a hit
        assert mixes.cache_info().misses == held == len(tables)
        assert [len(table) for table in tables] == [1 << d for d in range(1, 16)]
        assert len(tables[-1]) == batch.BLOCK_ELEMS
        assert not any(table.flags.writeable for table in tables)
    finally:
        mixes.cache_clear()


@pytest.mark.parametrize("w", SUPPORTED_WIDTHS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 17), data=st.data())
def test_hash_grid_equals_poly_eval(w, k, data):
    # every width, w = 4 and w = 64 included: a doubling must XOR only the
    # low w bits of the reduction polynomial (at w = 64, bit w lies outside uint64)
    top = (1 << w) - 1
    spec = default_spec(w)
    xs = data.draw(st.one_of(st.just(()), st.lists(st.integers(0, top), max_size=6).map(
        lambda extra: (0, 1, top, *extra))), label="xs")
    rows = data.draw(st.lists(st.lists(st.integers(0, top), min_size=k, max_size=k),
                              min_size=1, max_size=4), label="rows")
    out_bits = data.draw(st.integers(1, w), label="out_bits")
    grid = batch._Hashes(np.array(rows, dtype=np.uint64), spec, w, out_bits).grid(xs)
    assert grid.dtype == np.uint64
    assert grid.tolist() == [[truncate(spec.poly_eval(row, x), out_bits) for x in xs]
                             for row in rows]


@pytest.mark.parametrize("w", (4, 8))
def test_byte_wide_grid_takes_every_coefficient_at_every_power(w):
    # at w <= 8 a coefficient indexes its own table of x^i: one row per
    # value c at power i, all other coefficients zero, against poly_eval
    k, spec = 8, default_spec(w)
    xs = (0, 1, 2, 3, 5, (1 << w) - 2, (1 << w) - 1)
    rows = [[c if j == i else 0 for j in range(k)] for i in range(k) for c in range(1 << w)]
    grid = batch._Hashes(np.array(rows, dtype=np.uint64), spec, w, w).grid(xs)
    assert grid.tolist() == [[spec.poly_eval(row, x) for x in xs] for row in rows]


@pytest.mark.parametrize("w, digits, entries", ((4, 1, 16), (8, 1, 256), (16, 4, 16),
                                                (32, 8, 16), (64, 16, 16)))
def test_power_tables_take_whole_coefficients_up_to_w_8_and_nibbles_above(w, digits, entries):
    # whole coefficients have a table of x^0 too, through which a0 is
    # gathered; nibble fields broadcast a0 and have tables from x^1. Each
    # entry keeps the low `kept` bits of its product in the narrowest
    # dtype that holds them, one entry per point
    k, spec = 5, default_spec(w)
    powers = k if digits == 1 else k - 1
    for kept in sorted({1, min(w, 12), w}):
        narrow = np.dtype(f"u{1 if kept <= 8 else 2 if kept <= 16 else 4 if kept <= 32 else 8}")
        for xs in ((1, 2, 3), (1, 2, 3, (1 << w) - 1)):
            tables = batch._power_tables(spec, xs, k, kept)
            assert tables.dtype == narrow
            assert tables.shape == (powers, digits, entries, len(xs))
            assert tables.tolist() == [
                [[[truncate(spec.mul_int(m << (w // digits) * p, spec.poly_eval([0] * i + [1], x)),
                            kept) for x in xs]
                  for m in range(entries)] for p in range(digits)]
                for i in range(k - powers, k)]
    # a block's coefficients are drawn in the field's narrowest dtype, not as uint64 words
    coeffs = ColumnDraws(KeyStreams(1, 2).heads(range(3))).kwise(k, w, w).coeffs
    assert coeffs.dtype == batch._power_tables(spec, (1, 2, 3), k, w).dtype


def test_birthday_power_tables_stay_within_1_1_mebibytes():
    # the birthday shape: w = 32, k = 16, 128 points, in nibble tables
    # of uint32 for g's 24 bits (0.94 MiB) and of uint16 for the 12 bits
    # of h1, h2 and levin's h (0.47 MiB)
    for kept, mebibytes in ((24, 1.1), (12, 0.55)):
        batch._power_tables.cache_clear()
        tracemalloc.start()
        try:
            batch._power_tables(default_spec(32), tuple(range(128)), 16, kept)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            batch._power_tables.cache_clear()
        assert held <= mebibytes * (1 << 20), kept


def test_power_table_cache_evicts_the_oldest_point_set():
    tables, spec = batch._power_tables, default_spec(8)
    size = tables.cache_info().maxsize
    assert size is not None
    tables.cache_clear()
    for x in range(size + 1):
        tables(spec, (x,), 2, 8)
    assert tables.cache_info().currsize == size
    misses = tables.cache_info().misses
    tables(spec, (size,), 2, 8)
    assert tables.cache_info().misses == misses
    tables(spec, (0,), 2, 8)
    assert tables.cache_info().misses == misses + 1
    # a table of fewer kept bits is another entry
    tables(spec, (0,), 2, 4)
    assert tables.cache_info().misses == misses + 2
    # every table one birthday unit asks for (pp, levin and the table
    # adw's folded basis) stays cached: a second unit builds none
    tables.cache_clear()
    for seed in (1, 2):
        _, problems = birthday(24, 12, 24, 128, 16, 1, 2, seed)
        assert problems == []
        if seed == 1:
            misses = tables.cache_info().misses
    assert misses <= size
    assert tables.cache_info().misses == misses


def test_batch_eval_kwise_matches_scalar():
    # a block of k-wise hashes drawn as word columns evaluates as the
    # KWiseHashKeys that sample_kwise draws from the same streams
    rng, streams, rows = random.Random(703), KeyStreams(703, 5), range(30)
    xs = [rng.getrandbits(20) for _ in range(25)]
    hashes = ColumnDraws(streams.heads(rows)).kwise(5, 20, 9)
    grid = hashes.grid(tuple(xs))
    for t in rows:
        key = sample_kwise(5, 20, 9, streams.stream(t))
        for j, x in enumerate(xs):
            assert int(grid[t, j]) == key.eval_int(x)
    assert hashes.grid(()).shape == (30, 0)


def _pointwise_check(layout, build, queries):
    """The twin's answers to a block of rows equal the answers of build
    (rng -> oracle) keyed from each row's stream: the layout read as word
    columns against the builder's key objects."""
    streams, rows = KeyStreams(77, 5), range(3, 9)
    matrix = batch_answers(layout(ColumnDraws(streams.heads(rows))), queries)
    assert matrix.tolist() == [[build(streams.stream(t)).query(x).value for x in queries]
                               for t in rows]


def test_batch_answers_lazy():
    rng = random.Random(705)
    sampler = lazy_sampler(18, 10)
    _pointwise_check(sampler.layout, sampler,
                     [BitString(rng.getrandbits(18), 18) for _ in range(30)])


def test_batch_answers_levin():
    sampler = levin_sampler(18, 8, 18, 3)
    _pointwise_check(sampler.layout, sampler, [BitString(v, 18) for v in range(30)])


def test_batch_answers_pp():
    p = ExtensionParams(24, 12, 24, 8, 128)
    qrng = random.Random(708)
    _pointwise_check(pp_layout(24, 12, 24, 8), pp_sampler(p),
                     [BitString(qrng.getrandbits(24), 24) for _ in range(40)])


def test_batch_answers_pp_with_restricted_hashes():
    qrng = random.Random(710)
    _pointwise_check(pp_layout(16, 16, 16, 6, window=4 * 64),
                     lambda rng: build_adaptive_from_nonadaptive(16, 64, 6, rng),
                     [BitString(qrng.getrandbits(16), 16) for _ in range(40)])


def test_batch_answers_adw_table():
    p = ExtensionParams(24, 12, 24, 2, 128, c=1)
    qrng = random.Random(712)
    _pointwise_check(adw_layout(p, "table"),
                     KeySampler(adw_layout(p, "table")),
                     [BitString(qrng.getrandbits(24), 24) for _ in range(25)])


def test_batch_answers_adw_prf():
    p = ExtensionParams(20, 10, 12, 2, 16, c=1)
    qrng = random.Random(714)
    _pointwise_check(adw_layout(p, "prf"), KeySampler(adw_layout(p, "prf")),
                     [BitString(qrng.getrandbits(20), 20) for _ in range(25)])


def test_batch_answers_adw_adaptive():
    p = ExtensionParams(16, 16, 16, 2, 32, c=1)
    qrng = random.Random(716)
    _pointwise_check(adw_layout(p, "table", window=4 * 32),
                     lambda rng: build_adw_adaptive_from_nonadaptive(16, 32, 1, rng),
                     [BitString(qrng.getrandbits(16), 16) for _ in range(25)])


def test_batch_answers_adw_with_no_queries():
    # no queries use no input bits, and an empty block of answers is not folded
    sampler = KeySampler(adw_layout(ExtensionParams(24, 12, 24, 2, 128, c=1), "table"))
    columns = batch.block_keys(sampler, KeyStreams(718, 0), range(5), 24)
    assert columns._affine()
    assert batch_answers(columns, []).shape == (5, 0)


def test_only_key_samplers_reach_batch_answers(monkeypatch):
    # every sampler but a KeySampler facing queries of its own domain is
    # played trial by trial, and none of its blocks is answered as a matrix
    held = []
    answers = batch.batch_answers
    monkeypatch.setattr(batch, "batch_answers",
                        lambda keys, qs: held.append(keys) or answers(keys, qs))
    lazy = lambda rng: LazyRandomOracle(rng.getrandbits(64), 16, 16)
    ggm_backed = lambda rng: build_prg_prf(PrgSpec("mix64", 16), 8, 16, 2, 16, rng)
    fn = lambda rng: FunctionOracle(lambda x: x, 16, 16)
    dist = birthday_distinguisher(16, 16)
    for sampler in (lazy, ggm_backed, fn):
        assert batch.block_keys(sampler, game_streams(1, 0), range(8), 16) is None
        run_game(sampler, sampler, dist, 8, 925)
    # a KeySampler of another domain: every trial's queries violate it
    wrong_domain = lazy_sampler(12, 16)
    assert batch.block_keys(wrong_domain, game_streams(1, 0), range(8), 16) is None
    assert run_game(wrong_domain, wrong_domain, dist, 8, 925).violations == 16
    assert held == []
    run_game(lazy_sampler(16, 16), lazy, dist, 8, 925)
    assert len(held) == 1


def test_batched_game_equals_scalar_game_for_mixed_hash_shapes():
    # a sampler whose trials mix two hash shapes has no twin and is played per trial
    k2, k3 = levin_sampler(12, 8, 8, 2), levin_sampler(12, 8, 8, 3)
    mixed = lambda rng: (k2 if rng.getrandbits(1) else k3)(rng)
    assert_paths_agree(mixed, lazy_sampler(12, 8), birthday_distinguisher(16, 12), 20, 924)


def _sampler_grid():
    p = ExtensionParams(24, 12, 24, 8, 128)
    pa = ExtensionParams(24, 12, 24, 2, 128, c=1)
    pf = ExtensionParams(20, 10, 12, 2, 16, c=1)
    return [
        ("lazy", lazy_sampler(24, 24), 128, 24),
        ("levin", levin_sampler(24, 12, 24, 8), 128, 24),
        ("pp", pp_sampler(p), 128, 24),
        ("adw-table", KeySampler(adw_layout(pa, "table")), 128, 24),
        ("adw-prf", KeySampler(adw_layout(pf, "prf")), 16, 20),
    ]


def test_batched_game_equals_scalar_game():
    for name, sampler, q, d in _sampler_grid():
        ideal = lazy_sampler(d, 24 if d == 24 else 12)
        assert_paths_agree(sampler, ideal, birthday_distinguisher(q, d), 20, 920)


def test_batched_game_equals_scalar_without_decide_batch():
    # birthday's collision rule written a second way, one set per row
    p = ExtensionParams(24, 12, 24, 8, 64)
    sampler = pp_sampler(p)
    queries = [BitString(i, 24) for i in range(64)]
    dist = NonAdaptiveDistinguisher(
        queries, lambda values: [len(set(row)) < len(row) for row in values.tolist()]
    )
    assert_paths_agree(sampler, lazy_sampler(24, 24), dist, 15, 921)


def test_a_decide_that_returns_a_view_of_its_matrix_agrees_on_both_paths(monkeypatch):
    # blocks of 8 trials at 16 queries, 5 per world: the twin's values are
    # a view of the answer matrix in the block's workspace, which the
    # next block is drawn over, so they count only if read before it
    monkeypatch.setattr(batch, "BLOCK_ELEMS", 128)
    real, ideal = pp_sampler(ExtensionParams(16, 8, 2, 4, 16)), lazy_sampler(16, 2)
    queries = [BitString(i, 16) for i in range(16)]
    dist = NonAdaptiveDistinguisher(queries, lambda values: values[:, 3])
    trials, seed = 40, 927
    res = assert_paths_agree(real, ideal, dist, trials, seed)
    # a trial accepts when its 2-bit answer to query 3 is nonzero
    accepts = [sum(sampler(game_streams(seed, world).stream(t)).query(queries[3]).value != 0
                   for t in range(trials))
               for world, sampler in enumerate((real, ideal))]
    assert (res.p_real, res.p_ideal) == (accepts[0] / trials, accepts[1] / trials)


def test_involution_nonadaptive_rule_agrees_on_both_paths():
    # n-bit domain and range, small enough that some trials collide
    n = 3
    real = KeySampler(pp_layout(n, 2, n, 2))
    res = assert_paths_agree(real, lazy_sampler(n, n),
                             involution_nonadaptive_distinguisher(n), 40, 926)
    assert res.p_real > 0 and res.p_ideal > 0


def test_batched_game_falls_back_for_unsupported_oracles(monkeypatch):
    rng_free = lambda rng: build_prg_prf(PrgSpec("mix64", 16), 8, 16, 2, 16, rng)
    dist = birthday_distinguisher(16, 16)
    assert_paths_agree(rng_free, lazy_sampler(16, 16), dist, 10, 922)
    # a block of tree-backed oracles is never drawn whole for batch_answers
    held = []
    answers = batch.batch_answers
    monkeypatch.setattr(batch, "batch_answers",
                        lambda keys, qs: held.append(keys) or answers(keys, qs))
    run_game(rng_free, rng_free, dist, 10, 922)
    assert held == []


def test_batched_game_falls_back_for_custom_distinguishers():
    calls = []
    queries = [BitString(i, 16) for i in range(8)]

    class Custom(Distinguisher):
        budget = len(queries)

        def run(self, query):
            calls.append(None)
            return len({query(x).value for x in queries}) < len(queries)

    custom = run_game(lazy_sampler(16, 16), lazy_sampler(16, 16), Custom(), 10, 923)
    plain = run_game(lazy_sampler(16, 16), lazy_sampler(16, 16),
                     birthday_distinguisher(8, 16), 10, 923)
    assert custom == plain
    # the runner really did play it trial by trial
    assert len(calls) == 20


def test_batched_game_validation():
    dist = birthday_distinguisher(8, 8)
    with pytest.raises(ConfigurationError):
        run_game(lazy_sampler(8, 8), lazy_sampler(8, 8), dist, 0, 1)


class _Probe(random.Random):
    """An rng that records the width of each getrandbits call."""

    def __init__(self):
        super().__init__(11)
        self.calls = []

    def getrandbits(self, n):
        self.calls.append(n)
        return super().getrandbits(n)


def test_tuple_sampler_draws_the_pp_slot_layout():
    # k coefficients for each of h1, h2 and g over GF(2^8), then the two f seeds
    sampler = KeySampler(pp_layout(8, 8, 2, 8))
    rng = _Probe()
    sampler(rng)
    assert rng.calls == [8] * 24 + [64, 64]


def test_tuple_sampler_reads_slot_i_from_word_i():
    sampler = KeySampler(pp_layout(8, 8, 2, 3))
    key = sampler(key_stream(99, 5))
    words = [derive_seed(99, 5, j) for j in range(11)]
    assert key.h1.coeffs == tuple(truncate(w, 8) for w in words[0:3])
    assert key.h2.coeffs == tuple(truncate(w, 8) for w in words[3:6])
    assert key.ell.coeffs == tuple(truncate(w, 8) for w in words[6:9])
    assert key.f1.seed == words[9]
    assert key.f2.seed == words[10]
    assert key.ell.range_bits == 2


@pytest.mark.parametrize("variant, q", (("table", 2), ("prf", 4)))
def test_adw_layout_reads_slot_i_from_word_i(variant, q):
    # z = 6 inner maps either way. h1, h2 and ell take two coefficients
    # each, then come the z slots of gbar, m1bar, m2bar and ybar in turn
    # (a g two coefficients, an m or y map two table entries or one prf
    # seed), then f1 and f2. The twin draws streams 4, 5 and 6, so each
    # bar is one slot of 6 * 3 rows, slot i in rows 3i to 3i + 3, and
    # stream 5's row of slot i, row 3i + 1, reads the scalar key's words.
    layout = adw_layout(ExtensionParams(8, 4, 8, 2, q, 1), variant)
    key = layout(KeyDraws(key_stream(99, 5)))
    twin = layout(ColumnDraws(KeyStreams(99).heads(range(4, 7))))
    words = (derive_seed(99, 5, j) for j in itertools.count())

    def next_words(count, bits):
        return [truncate(next(words), bits) for _ in range(count)]

    for h, column in zip((key.h1, key.h2, key.ell), (twin.h1, twin.h2, twin.ell)):
        assert list(h.coeffs) == column.coeffs[1].tolist() == next_words(2, 8)
    assert len(key.gbar) == 6 and len(twin.gbar.coeffs) == 6 * 3
    for i, g in enumerate(key.gbar):
        assert list(g.coeffs) == twin.gbar.coeffs[3 * i + 1].tolist() == next_words(2, 8)
    for bar, column, bits in ((key.m1bar, twin.m1bar, 4), (key.m2bar, twin.m2bar, 4),
                              (key.ybar, twin.ybar, 8)):
        for i, m in enumerate(bar):
            if variant == "table":
                assert list(m.entries) == column.entries[3 * i + 1].tolist() == next_words(2, bits)
            else:
                assert [m.f.seed] == [column.seeds[3 * i + 1]] == next_words(1, 64)
    assert [key.f1.seed, key.f2.seed] == [twin.f1.seeds[1], twin.f2.seeds[1]] == next_words(2, 64)


def test_the_twin_refuses_an_adw_key_with_a_bar_of_per_slot_columns():
    # what KeyDraws.bar returns, a tuple of z slots, is not a bar the twin reads
    draws = ColumnDraws(KeyStreams(3).heads(range(2)))
    h, f = draws.kwise(2, 8, 4), draws.prf(4, 8)
    maps = (draws.table(2, 4), draws.table(2, 4))
    with pytest.raises(ValueError, match="one stacked slot"):
        draws.adw(h, h, h, (draws.kwise(2, 8, 1), draws.kwise(2, 8, 1)), maps, maps, maps, f, f)


@pytest.mark.parametrize("reads", (0, 2))
def test_the_twin_refuses_a_bar_whose_draw_reads_other_than_one_slot(reads):
    draws = ColumnDraws(KeyStreams(3).heads(range(2)))
    f = draws.prf(4, 8)
    draw = {0: lambda: f, 2: lambda: draws.levin(draws.kwise(2, 8, 4), draws.prf(4, 8))}[reads]
    with pytest.raises(ValueError, match=f"read {reads} slots"):
        draws.bar(3, draw)


@pytest.mark.parametrize("name", ("lazy", "levin", "pp", "adw-table", "adw-prf"))
def test_block_keys_derives_the_words_the_scalar_draws_read(monkeypatch, name):
    sampler = {
        "lazy": lazy_sampler(12, 12),
        "levin": levin_sampler(12, 8, 12, 4),
        "pp": pp_sampler(ExtensionParams(12, 8, 12, 4, 8)),
        "adw-table": KeySampler(adw_layout(ExtensionParams(12, 8, 12, 2, 8), "table")),
        "adw-prf": KeySampler(adw_layout(ExtensionParams(12, 8, 12, 2, 8), "prf")),
    }[name]
    rng = _Probe()
    sampler(rng)
    derived, stream_words = [], batch.stream_words
    monkeypatch.setattr(batch, "stream_words",
                        lambda heads, cols, *out: derived.append(len(cols))
                        or stream_words(heads, cols, *out))
    assert batch.block_keys(sampler, KeyStreams(7), range(4), 12) is not None
    assert sum(derived) == len(rng.calls)
    if name == "pp":
        assert derived == [4, 4, 4, 1, 1]  # one call per slot
    if name.startswith("adw"):
        # h1, h2 and ell, one call per bar, f1 and f2
        assert len(derived) == 3 + 4 + 2


def test_birthday_adw_block_folds_from_8_points():
    # the queries 0..127 use the low 7 bits: the fold evaluates the inner
    # maps at 0 and 1, 2, ..., 64, not at the d + 1 = 25 basis points of d = 24
    p = ExtensionParams(24, 12, 24, 16, 128, 1)
    with mock.patch.object(batch._ADW, "_inner", autospec=True,
                           side_effect=batch._ADW._inner) as inner:
        _pointwise_check(adw_layout(p, "table"),
                         KeySampler(adw_layout(p, "table")),
                         [BitString(i, 24) for i in range(128)])
    assert [call.args[1] for call in inner.call_args_list] == [(0, 1, 2, 4, 8, 16, 32, 64)]


@pytest.mark.parametrize("variant, mebibytes", (("table", 3.5), ("prf", 3)))
def test_birthday_adw_block_stays_within_its_memory_pin(variant, mebibytes):
    # one 256-row block at the birthday shape, power tables built cold:
    # 2.48 MiB (table) and 2.16 MiB (prf) measured; the table variant's
    # z = 42 slots stacked at once would hold 2.1 MB per temporary
    sampler = KeySampler(adw_layout(ExtensionParams(24, 12, 24, 16, 128, 1), variant))
    queries = [BitString(i, 24) for i in range(128)]
    batch._power_tables.cache_clear()
    tracemalloc.start()
    try:
        batch_answers(batch.block_keys(sampler, KeyStreams(2024, 0), range(256), 24), queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        batch._power_tables.cache_clear()
    assert peak <= mebibytes * (1 << 20)


def test_tuple_sampler_batch_matches_scalar_loop(monkeypatch):
    # blocks of 256 samples at 2 queries, so 4000 samples span sixteen
    monkeypatch.setattr(batch, "BLOCK_ELEMS", 512)
    sampler = KeySampler(pp_layout(8, 8, 1, 8))
    queries = [BitString(i, 8) for i in (0, 200)]
    samples, seed = 4000, 724
    codes = {}
    walk = games._walk

    def spy(handle_sampler, *rest):
        for values, bad in walk(handle_sampler, *rest):
            codes.setdefault(handle_sampler, []).extend(int(v) for v in values)
            yield values, bad

    monkeypatch.setattr(games, "_walk", spy)
    twin = tuple_uniformity_sd(sampler, queries, samples, seed)
    # the same handles behind a shape batch_answers declines: queried one by one
    opaque = lambda rng: FunctionOracle(sampler(rng).eval_int, 8, 1)
    assert tuple_uniformity_sd(opaque, queries, samples, seed) == twin
    want = []
    for i in range(samples):
        handle = sampler(sample_streams(seed).stream(i))
        want.append((handle.query(queries[0]).value << 1) | handle.query(queries[1]).value)
    # each run's codes, block after block
    assert codes[sampler] == codes[opaque] == want


def _block(ws):
    """Buffers as a block takes them: two kept, two inside a frame, then
    one more after the frame is given back."""
    kept = [ws.empty((100,), np.uint64), ws.empty((3, 7), np.uint8)]
    with ws.frame():
        framed = [ws.empty((50,), np.uint32), ws.empty((10, 10), np.float64)]
    return kept, framed, ws.empty((20,), np.intp)


def _address(a):
    return a.__array_interface__["data"][0]


def test_workspace_buffers_live_at_once_never_overlap():
    ws = batch.Workspace()
    _block(ws)
    ws.reset()
    kept, framed, after = _block(ws)
    for live in (kept + framed, kept + [after]):
        for a, b in itertools.combinations(live, 2):
            assert not np.shares_memory(a, b)
    assert [a.shape for a in kept + framed + [after]] == [(100,), (3, 7), (50,), (10, 10), (20,)]
    assert [a.dtype for a in kept] == [np.uint64, np.uint8]


def test_workspace_frame_gives_back_what_was_taken_inside_it():
    ws = batch.Workspace()
    _block(ws)
    ws.reset()
    _, framed, after = _block(ws)
    assert _address(after) == _address(framed[0]) and np.shares_memory(after, framed[0])


def test_workspace_reset_grows_to_the_most_held_at_once():
    ws = batch.Workspace()
    first = _block(ws)
    # a new workspace has no buffer: the first block's arrays are fresh
    assert all(a.flags.owndata for a in first[0] + first[1] + [first[2]])
    for _ in range(2):
        ws.reset()
        kept, framed, after = _block(ws)
        assert not any(a.flags.owndata for a in kept + framed + [after])


def test_workspace_hands_out_a_fresh_array_past_its_end():
    ws = batch.Workspace()
    _block(ws)
    ws.reset()
    kept, framed, after = _block(ws)
    beyond = ws.empty((1024,), np.uint64)  # more than the block held at once
    assert beyond.flags.owndata
    assert not any(np.shares_memory(beyond, a) for a in kept + framed + [after])
    ws.reset()  # grown to hold it too
    _block(ws)
    assert not ws.empty((1024,), np.uint64).flags.owndata


def test_workspace_scratch_is_taken_again_by_the_next_buffer():
    ws = batch.Workspace()
    ws.empty((5,), np.uint8)
    ws.scratch(40)
    ws.reset()
    head = ws.empty((5,), np.uint8)
    scratch = ws.scratch(40)
    assert scratch.shape == (40,) and scratch.dtype == np.uint64 and not scratch.flags.owndata
    assert not np.shares_memory(scratch, head)
    taken = ws.empty((40,), np.uint64)
    assert _address(taken) == _address(scratch) and not taken.flags.owndata


def test_uniformity_blocks_after_the_first_allocate_nothing_large(monkeypatch):
    # the uniformity unit: pp_layout(8, 8, 2, 8) at 4 queries, so 32 blocks
    # of 8192 rows. Each block's twin (_twin_values, called after the
    # walker resets the workspace) hands back one fresh 64 KiB codes
    # array; from the second block on, everything else it holds comes
    # from the workspace, sized by the reset before block 2.
    # tracemalloc's peak counts every domain, so numpy's ufunc buffers,
    # which are not array data, are shrunk for the run; the numpy domain
    # alone must also hold the same bytes at the start of every block.
    sampler = KeySampler(pp_layout(8, 8, 2, 8))
    queries = [BitString(i, 8) for i in range(4)]
    arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    rises, live = [], []
    twin_values = games._twin_values

    def spy(*args):
        snapshot = tracemalloc.take_snapshot().filter_traces(arrays)
        live.append(sum(trace.size for trace in snapshot.traces))
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        codes, bad = twin_values(*args)
        rises.append(tracemalloc.get_traced_memory()[1] - start - codes.nbytes)
        return codes, bad

    monkeypatch.setattr(games, "_twin_values", spy)
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        tuple_uniformity_sd(sampler, queries, 256_000, 5)
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert len(rises) == 32
    assert max(rises[1:]) < 64 << 10, rises
    assert len(set(live[1:])) == 1, live


@pytest.mark.parametrize("name", ("pp", "adw-table", "levin"))
def test_kept_answers_and_codes_survive_the_blocks_after_them(monkeypatch, name):
    # blocks of 256 samples at 2 queries; every block's tuple codes, the
    # packed answers the walker hands back, are kept while the later
    # blocks run, then checked against the same blocks drawn again, each
    # in a fresh workspace
    monkeypatch.setattr(batch, "BLOCK_ELEMS", 512)
    sampler = {
        "pp": pp_sampler(ExtensionParams(16, 8, 2, 4, 16)),
        "adw-table": KeySampler(adw_layout(ExtensionParams(16, 8, 2, 2, 16), "table")),
        "levin": levin_sampler(16, 8, 2, 4),
    }[name]
    codes, walk = [], games._walk

    def spy(*args):
        for values, bad in walk(*args):
            codes.append(values)
            yield values, bad

    monkeypatch.setattr(games, "_walk", spy)
    queries, samples, seed = [BitString(i, 16) for i in (3, 9)], 16_000, 926
    tuple_uniformity_sd(sampler, queries, samples, seed)
    dist = NonAdaptiveDistinguisher(queries, functools.partial(games._pack, r=2))
    fresh = [games._twin_values(sampler, sample_streams(seed), block, dist, batch.Workspace())[0]
             for block in batch.blocks(samples, 2)]
    assert len(codes) == len(fresh) == 63
    assert all(np.array_equal(c, f) for c, f in zip(codes, fresh))


def test_tuple_sampler_feeds_the_uniformity_estimator():
    sampler = KeySampler(pp_layout(8, 8, 2, 8))
    queries = [BitString(i, 8) for i in range(2)]
    res = tuple_uniformity_sd(sampler, queries, 16000, 725)
    assert res.support == 16
    assert res.sd_estimate < res.baseline_sd + 0.05


def test_tuple_sampler_validation():
    with pytest.raises(ConfigurationError):
        uniformity(4, 8, 2, 8, 4, 10**6, 1)  # d < s
    with pytest.raises(ConfigurationError):
        uniformity(8, 8, 2, 1, 4, 10**6, 1)
    with pytest.raises(ConfigurationError):
        uniformity(8, 0, 2, 8, 4, 10**6, 1)
    sampler = KeySampler(pp_layout(8, 8, 2, 8))
    with pytest.raises(ValueError):
        tuple_uniformity_sd(sampler, [BitString(0, 6)], 4000, 1)
