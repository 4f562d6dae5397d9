import random
from dataclasses import replace

import pytest

from cuckooprf import combine
from cuckooprf.bits import BitString
from cuckooprf.combine import (
    ADWKey,
    adw_eval,
    adw_inner_values,
    fold_adw,
)
from cuckooprf.hashfam import KWiseHashKey, RandomTable, sample_kwise, sample_table
from cuckooprf.prfcore import LazyRandomOracle, Oracle
from closedforms import pp_formula
from spies import FunctionOracle, count_calls, fold_answers, fold_kind


def _bit_low(x):
    return x & 1


def _bit_high(x):
    return x >> 1


def _pp_key(h1, h2, g, f1, f2):
    """A pp key: the adw key with g as ell and no inner maps."""
    return ADWKey(h1, h2, g, (), (), (), (), f1, f2)


def _tiny_pp_key():
    # 2-bit inputs, 1-bit hash positions, 2-bit outputs, all slots explicit
    h1 = FunctionOracle(_bit_low, 2, 1)
    h2 = FunctionOracle(_bit_high, 2, 1)
    g = FunctionOracle(lambda x: x, 2, 2)
    f1 = FunctionOracle(lambda p: 0b01 if p == 0 else 0b10, 1, 2)
    f2 = FunctionOracle(lambda p: 0b11 if p == 0 else 0b00, 1, 2)
    return _pp_key(h1, h2, g, f1, f2)


def test_pp_hand_vector():
    key = _tiny_pp_key()
    # x = 10: f1(low bit 0) = 01, f2(high bit 1) = 00, g = 10, XOR = 11
    assert adw_eval(key, 0b10) == 0b11


def test_pp_full_truth_table():
    key = _tiny_pp_key()
    expected = {"00": "10", "01": "00", "10": "11", "11": "01"}
    for x, y in expected.items():
        assert adw_eval(key, int(x, 2)) == int(y, 2)


def test_pp_matching_halves_cancel_to_g():
    # h1 == h2 and f1 == f2 make the two oracle terms cancel
    rng = random.Random(401)
    h = sample_kwise(3, 6, 4, rng)
    g = sample_kwise(3, 6, 5, rng)
    f = LazyRandomOracle(9, 4, 5)
    key = _pp_key(h, h, g, f, f)
    for v in range(64):
        assert adw_eval(key, v) == g.eval_int(v)


def test_pp_zero_oracles_leave_g():
    zero = FunctionOracle(lambda p: 0, 4, 5)
    rng = random.Random(402)
    h1 = sample_kwise(2, 6, 4, rng)
    h2 = sample_kwise(2, 6, 4, rng)
    g = sample_kwise(2, 6, 5, rng)
    key = _pp_key(h1, h2, g, zero, zero)
    for v in range(64):
        assert adw_eval(key, v) == g.eval_int(v)


def test_pp_oracle_wraps_eval():
    key = _tiny_pp_key()
    assert isinstance(key, Oracle)
    assert key.domain_bits == 2 and key.range_bits == 2
    for v in range(4):
        assert key.query(BitString(v, 2)).value == adw_eval(key, v)


def test_pp_key_shape_validation():
    rng = random.Random(403)
    h1 = sample_kwise(2, 6, 4, rng)
    h2 = sample_kwise(2, 6, 4, rng)
    g = sample_kwise(2, 6, 5, rng)
    f_good = LazyRandomOracle(1, 4, 5)
    with pytest.raises(ValueError):
        _pp_key(h1, h2, g, LazyRandomOracle(1, 3, 5), f_good)
    with pytest.raises(ValueError):
        _pp_key(h1, h2, g, f_good, LazyRandomOracle(1, 4, 6))
    with pytest.raises(ValueError):
        _pp_key(h1, sample_kwise(2, 5, 4, rng), g, f_good, f_good)


def test_pp_exactly_two_underlying_calls():
    rng = random.Random(404)
    h1 = sample_kwise(2, 8, 4, rng)
    h2 = sample_kwise(2, 8, 4, rng)
    g = sample_kwise(2, 8, 6, rng)
    key = _pp_key(h1, h2, g, LazyRandomOracle(2, 4, 6), LazyRandomOracle(3, 4, 6))
    for v in (0, 17, 255):
        f_calls, hash_calls = count_calls(adw_eval, key, v)
        assert f_calls == 2
        assert hash_calls == 3


def _small_adw_key(z, seed, table_maps=True):
    """d=6 inputs, s=4 positions, r=5 outputs, u=2 inner domain."""
    rng = random.Random(seed)
    d, s, r, u = 6, 4, 5, 2
    h1 = sample_kwise(2, d, s, rng)
    h2 = sample_kwise(2, d, s, rng)
    ell = sample_kwise(2, d, r, rng)
    gbar = tuple(sample_kwise(2, d, u, rng) for _ in range(z))
    if table_maps:
        m1bar = tuple(sample_table(1 << u, s, rng) for _ in range(z))
        m2bar = tuple(sample_table(1 << u, s, rng) for _ in range(z))
        ybar = tuple(sample_table(1 << u, r, rng) for _ in range(z))
    else:
        m1bar = tuple(LazyRandomOracle(rng.getrandbits(64), u, s) for _ in range(z))
        m2bar = tuple(LazyRandomOracle(rng.getrandbits(64), u, s) for _ in range(z))
        ybar = tuple(LazyRandomOracle(rng.getrandbits(64), u, r) for _ in range(z))
    f1 = LazyRandomOracle(rng.getrandbits(64), s, r)
    f2 = LazyRandomOracle(rng.getrandbits(64), s, r)
    return ADWKey(h1, h2, ell, gbar, m1bar, m2bar, ybar, f1, f2)


def test_adw_zero_z_degenerates_to_pp():
    key = _small_adw_key(0, 405)
    for v in range(64):
        assert adw_eval(key, v) == pp_formula(key, v)


def test_adw_zero_tables_reduce_to_ell():
    key = _small_adw_key(2, 406)
    zeroed = ADWKey(
        key.h1, key.h2, key.ell, key.gbar,
        tuple(RandomTable((0,) * 4, 4) for _ in range(2)),
        tuple(RandomTable((0,) * 4, 4) for _ in range(2)),
        tuple(RandomTable((0,) * 4, 5) for _ in range(2)),
        key.f1, key.f2,
    )
    for v in range(64):
        assert adw_eval(zeroed, v) == pp_formula(key, v)


def test_adw_single_map_straight_line():
    """z = 1 recomputed with no library plumbing at all."""
    key = _small_adw_key(1, 407)
    g1, t1, t2, ty = key.gbar[0], key.m1bar[0], key.m2bar[0], key.ybar[0]
    for v in range(64):
        i = g1.eval_int(v)
        p1 = BitString(key.h1.eval_int(v) ^ t1.entries[i], 4)
        p2 = BitString(key.h2.eval_int(v) ^ t2.entries[i], 4)
        want = key.f1.query(p1).value ^ key.f2.query(p2).value ^ key.ell.eval_int(v) ^ ty.entries[i]
        assert adw_eval(key, v) == want


def test_adw_inner_values_equal_the_inline_loop():
    key = _small_adw_key(2, 408)
    for x in (0, 33, 63):
        want = []
        for h, bar in ((key.h1, key.m1bar), (key.h2, key.m2bar), (key.ell, key.ybar)):
            acc = h.eval_int(x)
            for g, m in zip(key.gbar, bar):
                acc ^= m.entries[g.eval_int(x)]
            want.append(acc)
        assert adw_inner_values(key, x) == tuple(want)


def test_adw_oracle_wraps_eval():
    key = _small_adw_key(2, 409)
    for v in (0, 11, 63):
        assert key.query(BitString(v, 6)).value == adw_eval(key, v)


def test_adw_table_maps_cost_two_calls():
    key = _small_adw_key(3, 410, table_maps=True)
    f_calls, hash_calls = count_calls(adw_eval, key, 21)
    assert f_calls == 2
    # h1, h2, ell, and each g_i exactly once
    assert hash_calls == 3 + 3


def test_adw_prf_maps_cost_three_z_plus_two_calls():
    for z in (1, 2, 4):
        key = _small_adw_key(z, 411, table_maps=False)
        f_calls, hash_calls = count_calls(adw_eval, key, 5)
        assert f_calls == 3 * z + 2
        assert hash_calls == 3 + z


def test_adw_key_shape_validation():
    key = _small_adw_key(2, 412)
    with pytest.raises(ValueError):
        ADWKey(key.h1, key.h2, key.ell, key.gbar, key.m1bar[:1], key.m2bar, key.ybar,
               key.f1, key.f2)
    bad_map = RandomTable((0, 0, 0, 0), 3)  # wrong entry width for f1's domain
    with pytest.raises(ValueError):
        ADWKey(key.h1, key.h2, key.ell, key.gbar, (key.m1bar[0], bad_map), key.m2bar,
               key.ybar, key.f1, key.f2)
    with pytest.raises(ValueError):
        ADWKey(key.h1, key.h2, sample_kwise(2, 5, 5, random.Random(0)), key.gbar,
               key.m1bar, key.m2bar, key.ybar, key.f1, key.f2)


def test_counting_does_not_disturb_the_answer():
    key = _small_adw_key(2, 413)
    x = 44
    before = adw_eval(key, x)
    spied = []
    count_calls(lambda k, v: spied.append(adw_eval(k, v)), key, x)
    assert spied == [before]
    assert adw_eval(key, x) == before


def _summable(k=12, width=16, d=16, window=256):
    """h1, h2 and ell over GF(2^width) with nonzero a_1..a_{k-1}, h1 and
    h2 inside the first `window` strings."""
    rng = random.Random(k * width)

    def draw(w):
        coeffs = (rng.getrandbits(width), *(rng.randrange(1, 1 << width) for _ in range(k - 1)))
        return KWiseHashKey(coeffs, d, d, width, w)

    return [draw(window), draw(window), draw(None)]


def _g(k, width, d=16):
    """A k-wise g from d bits to one bit over GF(2^width), a_1..a_(k-1) nonzero."""
    rng = random.Random(k * width + 1)
    coeffs = (rng.getrandbits(width), *(rng.randrange(1, 1 << width) for _ in range(k - 1)))
    return KWiseHashKey(coeffs, d, 1, width)


# name -> (the hashes, a change to one of them, the g of one bar or None,
# the evaluator fold_adw picks)
FOLD_CASES = {
    "affine": (_summable(k=2), None, None, "tables"),
    "power sums": (_summable(), None, None, "tables"),
    "a_0 = 0": (_summable(), (0, lambda h: replace(h, coeffs=(0, *h.coeffs[1:]))), None, "tables"),
    "k = 3 at w = 4": (_summable(3, 4, 4, window=4), None, None, "tables"),
    "zero a_5": (_summable(), (1, lambda h: replace(h, coeffs=h.coeffs[:5] + (0,) + h.coeffs[6:])),
                 None, "tables"),
    "mixed widths": (_summable(), (2, lambda h: replace(h, width=32)), None, "pointwise"),
    "unequal k": (_summable(), (2, lambda h: replace(h, coeffs=h.coeffs[:-1])), None, "tables"),
    "w = 32": (_summable(width=32, d=24), None, None, "pointwise"),
    "w = 8 and w = 16": (_summable(12, 8, 8, window=16), (2, lambda h: replace(h, width=16)),
                         None, "pointwise"),
    "w = 16 and w = 32 at k = 3": (_summable(3), (2, lambda h: replace(h, width=32)), None,
                                   "pointwise"),
    "w = 32 at k = 3": (_summable(3, 32, 24), None, None, "pointwise"),
    "w = 64 at k = 2": (_summable(2, 64, 40), None, None, "pointwise"),
    "w = 64 at k = 4": (_summable(4, 64, 40), None, None, "pointwise"),
    "not k-wise": (_summable(), (0, lambda h: FunctionOracle(h.eval_int, h.domain_bits,
                                                             h.range_bits)), None, "pointwise"),
    "2-wise g at w = 16": (_summable(), None, _g(2, 16), "tables"),
    "3-wise g": (_summable(), None, _g(3, 16), "pointwise"),
    "2-wise g over GF(2^32) beside w = 16": (_summable(), None, _g(2, 32), "pointwise"),
}


@pytest.mark.parametrize("case", FOLD_CASES)
def test_fold_adw_picks_one_evaluator_per_kind_of_key(case):
    """Byte tables of the odd powers for a key whose h1, h2, ell and every
    g are k-wise keys over one GF(2^w) with w <= 16 and whose every bar
    is affine (any coefficient may be 0, and the hashes may differ in
    k), and adw_inner_values at each point for any other; each gives
    the inner values adw_inner_values gives, and so answers as adw_eval
    does."""
    hashes, change, g, evaluator = FOLD_CASES[case]
    if change is not None:
        i, edit = change
        hashes = [edit(h) if j == i else h for j, h in enumerate(hashes)]
    h1, h2, ell = hashes
    d = h1.domain_bits
    rng = random.Random(d)
    bars = ((), (), (), ())
    if g is not None:
        bars = ((g,), *((sample_table(2, d, rng),) for _ in range(3)))
    key = ADWKey(h1, h2, ell, *bars, LazyRandomOracle(11, d, d), LazyRandomOracle(12, d, d))
    folded = fold_adw(key)
    assert fold_kind(folded) == evaluator
    points = [0, 1, 2, 0xBEEF % (1 << d), (1 << d) - 1]
    assert fold_answers(folded, key, points) == [adw_eval(key, x) for x in points]


def test_an_adw_oracle_asked_100_queries_answers_by_adw_eval_and_never_folds(monkeypatch):
    """An ADWKey is its own oracle, and its eval_int is adw_eval, whatever
    fold_adw would make of it: it never calls fold_adw, and no attribute
    shadows its eval_int."""
    key = _pp_key(*_summable(k=5, d=16), LazyRandomOracle(13, 16, 16), LazyRandomOracle(14, 16, 16))
    assert fold_kind(fold_adw(key)) == "tables"
    folds = []
    monkeypatch.setattr(combine, "fold_adw", lambda key: folds.append(key) or fold_adw(key))
    assert ADWKey.eval_int is adw_eval
    xs = range(0, 100 * 601, 601)
    assert [key.eval_int(x) for x in xs] == [adw_eval(key, x) for x in xs]
    assert folds == [] and "eval_int" not in vars(key)
