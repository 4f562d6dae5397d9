import hashlib
import math
import random
from unittest import mock

import pytest

from cuckooprf.bits import BitString, key_stream, mix64, truncate
from cuckooprf.errors import ConfigurationError
from cuckooprf.hashfam import RandomTable, sample_kwise
from cuckooprf.combine import ADWKey, adw_eval
from cuckooprf.prfcore import LazyRandomOracle, Oracle, PrgSpec
from cuckooprf.transform import (
    ExtensionParams,
    KeyDraws,
    KeySampler,
    PaddedPrfMap,
    adw_layout,
    adw_z,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    build_prg_prf,
    pp_sampler,
)
from spies import InstrumentedOracle, counting_sampler


def test_params_validation():
    ExtensionParams(24, 12, 24, 8, 128)
    with pytest.raises(ConfigurationError):
        ExtensionParams(10, 12, 24, 8, 128)  # d < s
    with pytest.raises(ConfigurationError):
        ExtensionParams(24, 12, 24, 1, 128)
    # no family on 2^d inputs is more than 2^d-wise independent
    ExtensionParams(4, 4, 4, 16, 1)
    with pytest.raises(ConfigurationError):
        ExtensionParams(4, 4, 4, 17, 1)
    with pytest.raises(ConfigurationError):
        ExtensionParams(24, 12, 24, 8, 0)
    with pytest.raises(ConfigurationError):
        ExtensionParams(24, 12, 24, 8, 128, c=0)


def test_query_budget_boundary():
    # at README's example shape q up to 2^(s-2) builds, and the shape
    # itself refuses one past it and 2^s
    pp_sampler(ExtensionParams(d=24, s=12, r=24, k=16, q=1 << 10))(random.Random(1))
    for q in ((1 << 10) + 1, 1 << 12):
        with pytest.raises(ConfigurationError, match="outside 1..2"):
            ExtensionParams(d=24, s=12, r=24, k=16, q=q)


# KeyDraws.adw and each builder, at small shapes
_ADW_KEYS = {
    "KeyDraws.adw": lambda rng: adw_layout(ExtensionParams(12, 8, 12, 2, 8), "table")(KeyDraws(rng)),
    "pp_sampler": lambda rng: pp_sampler(ExtensionParams(12, 8, 12, 3, 8))(rng),
    "adaptive pp": lambda rng: build_adaptive_from_nonadaptive(10, 8, 3, rng),
    "adaptive adw": lambda rng: build_adw_adaptive_from_nonadaptive(10, 8, 1, rng),
    "prg": lambda rng: build_prg_prf(PrgSpec("mix64", 16), 6, 16, 3, 4, rng),
}


@pytest.mark.parametrize("name", _ADW_KEYS)
def test_every_builder_returns_the_adw_key_as_its_own_oracle(name):
    key = _ADW_KEYS[name](random.Random(7))
    assert isinstance(key, ADWKey) and isinstance(key, Oracle)
    d = key.domain_bits
    for v in (0, 1, (1 << d) - 1, 0x2B5 % (1 << d)):
        assert key.query(BitString(v, d)) == BitString(adw_eval(key, v), key.range_bits)


def test_pp_builder_shapes_and_determinism():
    p = ExtensionParams(20, 10, 16, 6, 64)
    a = pp_sampler(p)(random.Random(42))
    b = pp_sampler(p)(random.Random(42))
    c = pp_sampler(p)(random.Random(43))
    assert a.domain_bits == 20 and a.range_bits == 16
    rng = random.Random(501)
    diffs = 0
    for _ in range(200):
        x = BitString(rng.getrandbits(20), 20)
        assert a.query(x) == b.query(x)
        diffs += a.query(x) != c.query(x)
    assert diffs > 190


def test_pp_builder_uses_two_calls():
    p = ExtensionParams(20, 10, 16, 6, 64)
    spies: list[InstrumentedOracle] = []
    o = pp_sampler(p).layout(KeyDraws(random.Random(44), counting_sampler(spies)))
    o.eval_int(77)
    f_calls = sum(f.calls for f in spies)
    assert f_calls == 2


def test_adaptive_builder_keeps_queries_in_prefix():
    # every underlying query must land among the first 4q strings
    q, n = 8, 10
    spies: list[InstrumentedOracle] = []
    o = build_adaptive_from_nonadaptive(n, q, 4, random.Random(45), counting_sampler(spies))
    rng = random.Random(46)
    for _ in range(200):
        o.query(BitString(rng.getrandbits(n), n))
    seen = [v for f in spies for v in f.queries]
    assert seen
    assert all(v < 4 * q for v in seen)


def test_adaptive_builder_validation():
    build_adaptive_from_nonadaptive(10, 8, 2, random.Random(1))
    with pytest.raises(ConfigurationError):
        build_adaptive_from_nonadaptive(10, 6, 2, random.Random(1))  # not a power of two
    with pytest.raises(ConfigurationError):
        build_adaptive_from_nonadaptive(4, 8, 2, random.Random(1))  # 4q > 2^n
    with pytest.raises(ConfigurationError):
        build_adaptive_from_nonadaptive(10, 8, 1, random.Random(1))


def test_padded_prf_map_embeds_and_truncates():
    f = LazyRandomOracle(7, 8, 8)
    m = PaddedPrfMap(f, 3, 5)
    assert m.domain_bits == 3 and m.range_bits == 5
    for v in range(8):
        want = truncate(f.query(BitString(v, 8)).value, 5)
        assert m.query(BitString(v, 3)).value == want
    with pytest.raises(ConfigurationError):
        PaddedPrfMap(f, 9, 5)
    with pytest.raises(ConfigurationError):
        PaddedPrfMap(f, 3, 9)


def test_adw_z_values():
    p = ExtensionParams(24, 12, 24, 2, 128, c=1)
    assert adw_z(p, "prf") == 6
    assert adw_z(p, "table") == 6 * 7
    p3 = ExtensionParams(24, 12, 24, 2, 128, c=3)
    assert adw_z(p3, "prf") == 10
    with pytest.raises(ConfigurationError):
        adw_z(p, "hybrid")


def test_adw_prf_variant_shape_and_cost():
    p = ExtensionParams(20, 10, 12, 2, 16, c=1)
    spies: list[InstrumentedOracle] = []
    o = adw_layout(p, "prf")(KeyDraws(random.Random(47), counting_sampler(spies)))
    assert o.domain_bits == 20 and o.range_bits == 12
    z = len(o.gbar)
    assert z == 6
    u = math.ceil(math.log2(p.q))
    assert all(g.range_bits == u for g in o.gbar)
    assert all(isinstance(m, PaddedPrfMap) for m in o.m1bar + o.m2bar + o.ybar)
    o.eval_int(123)
    f_calls = sum(f.calls for f in spies)
    assert f_calls == 3 * z + 2


def test_adw_prf_variant_parameter_guards():
    with pytest.raises(ConfigurationError):
        adw_layout(ExtensionParams(20, 10, 12, 2, 1), "prf")
    # the prf variant pads s-bit inner outputs into the r-bit XOR, so s > r fails
    with pytest.raises(ConfigurationError):
        adw_layout(ExtensionParams(20, 10, 8, 2, 16), "prf")


def test_adw_table_variant_shape_and_cost():
    p = ExtensionParams(20, 10, 12, 2, 16, c=1)
    spies: list[InstrumentedOracle] = []
    o = adw_layout(p, "table")(KeyDraws(random.Random(48), counting_sampler(spies)))
    z = len(o.gbar)
    assert z == 2 * 3 * 4
    assert all(g.range_bits == 1 for g in o.gbar)
    for m in o.m1bar + o.m2bar + o.ybar:
        assert isinstance(m, RandomTable)
        assert len(m.entries) == 2
    o.eval_int(123)
    f_calls = sum(f.calls for f in spies)
    assert f_calls == 2


def test_adw_builder_determinism():
    p = ExtensionParams(18, 9, 10, 2, 8, c=1)
    for variant in ("prf", "table"):
        a = adw_layout(p, variant)(KeyDraws(random.Random(49)))
        b = adw_layout(p, variant)(KeyDraws(random.Random(49)))
        for v in (0, 999, 2**18 - 1):
            x = BitString(v, 18)
            assert a.query(x) == b.query(x)


def test_adw_adaptive_builder_stays_in_prefix():
    q, n = 8, 10
    spies: list[InstrumentedOracle] = []
    o = build_adw_adaptive_from_nonadaptive(n, q, 1, random.Random(50), counting_sampler(spies))
    rng = random.Random(51)
    for _ in range(300):
        o.query(BitString(rng.getrandbits(n), n))
    seen = [v for f in spies for v in f.queries]
    assert seen
    assert all(v < 4 * q for v in seen)
    # m-table entries are index offsets inside the prefix, padded to n bits
    for m in o.m1bar + o.m2bar:
        assert m.entry_bits == n
        assert all(e < 4 * q for e in m.entries)


@pytest.mark.parametrize("name, d, build", [
    ("pp", 20, lambda rng: pp_sampler(ExtensionParams(20, 10, 16, 6, 64))(rng)),
    ("adaptive-pp", 10, lambda rng: build_adaptive_from_nonadaptive(10, 8, 4, rng)),
    ("adw-prf", 20, lambda rng: adw_layout(ExtensionParams(20, 10, 12, 2, 16), "prf")(
        KeyDraws(rng))),
    ("adw-table", 20, lambda rng: adw_layout(ExtensionParams(20, 10, 12, 2, 16), "table")(
        KeyDraws(rng))),
    ("adaptive-adw", 10, lambda rng: build_adw_adaptive_from_nonadaptive(10, 8, 1, rng)),
])
def test_query_builds_one_bitstring_its_answer(name, d, build):
    """Values stay plain ints inside a builder's oracle: a query answered
    by adw_eval constructs its answer and no other BitString."""
    oracle = build(random.Random(56))
    xs = [BitString(v, d) for v in range(d + 3)]
    for x in xs[:-1]:
        oracle.query(x)
    built = []
    check = BitString.__post_init__

    def counting_check(self):
        built.append(self)
        check(self)

    with mock.patch.object(BitString, "__post_init__", counting_check):
        y = oracle.query(xs[-1])
    assert len(built) == 1 and built[0] is y


def test_adw_adaptive_builder_validation():
    with pytest.raises(ConfigurationError):
        build_adw_adaptive_from_nonadaptive(10, 6, 1, random.Random(1))
    with pytest.raises(ConfigurationError):
        build_adw_adaptive_from_nonadaptive(4, 8, 1, random.Random(1))
    with pytest.raises(ConfigurationError):
        build_adw_adaptive_from_nonadaptive(10, 8, 0, random.Random(1))


def test_prg_prf_matches_straight_line_composition():
    """Full 4-bit truth table against a from-scratch recomputation that
    replays the builder's sampling order with its own tree walk."""
    prg = PrgSpec("stub-complement", 4)
    o = build_prg_prf(prg, 2, 4, 2, 1, random.Random(52))

    rng = random.Random(52)
    h1 = sample_kwise(2, 4, 2, rng)
    h2 = sample_kwise(2, 4, 2, rng)
    g = sample_kwise(2, 4, 4, rng)
    root1 = rng.getrandbits(4)
    root2 = rng.getrandbits(4)

    def walk(root, bits):
        seed = root
        for b in bits.to01():
            left, right = seed, seed ^ 0b1111
            seed = left if b == "0" else right
        return seed

    for v in range(16):
        x = BitString(v, 4)
        want = (walk(root1, BitString(h1.eval_int(v), 2))
                ^ walk(root2, BitString(h2.eval_int(v), 2)) ^ g.eval_int(v))
        assert o.query(x).value == want


def test_prg_prf_costs_two_m_generator_calls():
    prg = PrgSpec("mix64", 16)
    m = 5
    o = build_prg_prf(prg, m, 16, 2, 4, random.Random(53))
    rng = random.Random(54)
    for i in range(1, 30):
        o.query(BitString(rng.getrandbits(16), 16))
        assert o.f1.prg_calls + o.f2.prg_calls == 2 * m * i


def test_prg_prf_budget_and_shape_guards():
    prg = PrgSpec("mix64", 16)
    build_prg_prf(prg, 4, 16, 2, 4, random.Random(1))
    with pytest.raises(ConfigurationError):
        build_prg_prf(prg, 4, 16, 2, 5, random.Random(1))  # q > 2^(m-2)
    with pytest.raises(ConfigurationError):
        build_prg_prf(prg, 4, 8, 2, 4, random.Random(1))  # seed width mismatch
    with pytest.raises(ConfigurationError):
        build_prg_prf(prg, 4, 16, 1, 4, random.Random(1))
    # its shape is ExtensionParams(d=n, s=m, r=n): q >= 1, m <= n, and
    # n <= 64, the widest field, whatever the generator's seed width
    for prg, m, n, q in ((prg, 4, 16, 0), (prg, 20, 16, 4),
                         (PrgSpec("stub-complement", 65), 4, 65, 4)):
        with pytest.raises(ConfigurationError):
            build_prg_prf(prg, m, n, 2, q, random.Random(1))


def test_prg_prf_minimal_budget_uses_two_bit_trees():
    prg = PrgSpec("mix64", 16)
    # m = 2 is the least input length whose budget 2^(m-2) admits a query
    o = build_prg_prf(prg, 2, 16, 2, 1, random.Random(55))
    o.query(BitString(0, 16))
    assert o.f1.prg_calls + o.f2.prg_calls == 4


# pp, both adw variants and the three builders, at two shapes each (one
# for prg and for each adw variant), each answering 40 fixed inputs. The
# digest was taken from the five builders of pp, adw and the wrappers as
# they were before they became layouts; a changed draw order changes it.
_GOLDEN_BUILDS = (
    ("pp", 24, pp_sampler(ExtensionParams(24, 12, 24, 8, 128))),
    ("pp-small", 16, pp_sampler(ExtensionParams(16, 8, 12, 3, 16))),
    ("adaptive-pp", 16, lambda rng: build_adaptive_from_nonadaptive(16, 64, 12, rng)),
    ("adaptive-pp-small", 10, lambda rng: build_adaptive_from_nonadaptive(10, 8, 3, rng)),
    ("adw-table", 24, KeySampler(adw_layout(ExtensionParams(24, 12, 24, 2, 128), "table"))),
    ("adw-prf", 20, KeySampler(adw_layout(ExtensionParams(20, 10, 12, 2, 16), "prf"))),
    ("adaptive-adw", 16, lambda rng: build_adw_adaptive_from_nonadaptive(16, 64, 1, rng)),
    ("adaptive-adw-small", 10, lambda rng: build_adw_adaptive_from_nonadaptive(10, 8, 2, rng)),
    ("prg-prf", 16, lambda rng: build_prg_prf(PrgSpec("mix64", 16), 8, 16, 4, 16, rng)),
)
_GOLDEN_DIGEST = "0b199cb9f023e828bdb06ed7e2328db827d3147ba8934a52ee4d6e717977a23f"


def test_builder_answers_match_the_golden_digest():
    h = hashlib.sha256()
    for name, d, build in _GOLDEN_BUILDS:
        for seed in (0, 1, 2):
            for rng_name, rng in (("random", random.Random(seed)),
                                  ("stream", key_stream(seed, 71))):
                oracle = build(rng)
                for i in range(40):
                    x = truncate(mix64(i), d)
                    y = oracle.query(BitString(x, d)).value
                    h.update(f"{name},{rng_name},{seed},{x},{y}\n".encode())
    assert h.hexdigest() == _GOLDEN_DIGEST
