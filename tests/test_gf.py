import random
import sys
import tracemalloc

import pytest

from cuckooprf.gf import (
    DEFAULT_REDUCTION,
    SUPPORTED_WIDTHS,
    FieldSpec,
    _is_irreducible,
    _mul_raw,
    default_spec,
)


def _mul_schoolbook(a, b, width, reduction):
    """Bitwise carryless multiply followed by long division, used as the
    independent oracle for every table-driven strategy."""
    acc = 0
    aa, bb = a, b
    while bb:
        if bb & 1:
            acc ^= aa
        aa <<= 1
        bb >>= 1
    for shift in range(acc.bit_length() - 1, width - 1, -1):
        if (acc >> shift) & 1:
            acc ^= reduction << (shift - width)
    return acc


def test_mul_matches_schoolbook_all_widths():
    rng = random.Random(201)
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        red = DEFAULT_REDUCTION[w]
        for _ in range(1000):
            a = rng.getrandbits(w)
            b = rng.getrandbits(w)
            assert spec.mul_int(a, b) == _mul_schoolbook(a, b, w, red)


def test_mul_gf256_published_vectors():
    # 0x53 * 0xCA = 0x01 and 0x57 * 0x83 = 0xC1 in the AES field,
    # which uses the same reduction polynomial 0x11B
    spec = default_spec(8)
    assert spec.mul_int(0x53, 0xCA) == 0x01
    assert spec.mul_int(0x57, 0x83) == 0xC1
    assert spec.mul_int(0x57, 0x13) == 0xFE


def test_field_axioms_exhaustive_width4():
    spec = default_spec(4)
    elems = range(16)
    for a in elems:
        for b in elems:
            ab = spec.mul_int(a, b)
            assert ab == spec.mul_int(b, a)
            for c in elems:
                assert spec.mul_int(ab, c) == spec.mul_int(a, spec.mul_int(b, c))
                assert spec.mul_int(a, b ^ c) == ab ^ spec.mul_int(a, c)


def test_identity_and_zero_all_widths():
    rng = random.Random(202)
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        for _ in range(50):
            a = rng.getrandbits(w)
            assert spec.mul_int(a, 1) == a
            assert spec.mul_int(1, a) == a
            assert spec.mul_int(a, 0) == 0


def test_every_nonzero_width4_element_has_inverse():
    spec = default_spec(4)
    for a in range(1, 16):
        inverses = [b for b in range(1, 16) if spec.mul_int(a, b) == 1]
        assert len(inverses) == 1


def test_nonzero_product_of_nonzero_elements():
    # no zero divisors in a field
    rng = random.Random(203)
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        for _ in range(200):
            a = rng.getrandbits(w) | 1
            b = rng.getrandbits(w) | 1
            assert spec.mul_int(a, b) != 0


def test_mul_raw_is_the_schoolbook_reference():
    rng = random.Random(205)
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        red = DEFAULT_REDUCTION[w]
        for _ in range(200):
            a = rng.getrandbits(w)
            b = rng.getrandbits(w)
            want = _mul_schoolbook(a, b, w, red)
            assert _mul_raw(a, b, w, red) == want
            assert spec.mul_int(a, b) == want


def test_mul_is_linear_in_each_operand():
    # addition is XOR, and multiplication distributes over it
    rng = random.Random(206)
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        for _ in range(100):
            a, b, c = (rng.getrandbits(w) for _ in range(3))
            assert spec.mul_int(a ^ b, c) == spec.mul_int(a, c) ^ spec.mul_int(b, c)


def test_poly_eval_matches_power_sum():
    rng = random.Random(204)
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        red = DEFAULT_REDUCTION[w]
        for _ in range(200):
            k = rng.randrange(1, 6)
            coeffs = [rng.getrandbits(w) for _ in range(k)]
            x = rng.getrandbits(w) if rng.random() < 0.9 else 0
            # naive sum of a_i * x^i, with powers built by schoolbook multiply
            acc, xp = 0, 1
            for c in coeffs:
                acc ^= _mul_raw(c, xp, w, red)
                xp = _mul_raw(xp, x, w, red)
            assert spec.poly_eval(coeffs, x) == acc


def test_poly_eval_degenerate_cases():
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        top = (1 << w) - 1
        assert spec.poly_eval([0xA], 0x5) == 0xA
        assert spec.poly_eval([0, 0], top) == 0
        assert spec.poly_eval([3, top, 0, 7], 0) == 3
        assert spec.poly_eval([3, 1], top) == top ^ 3


def test_is_irreducible_accepts_shipped_and_rejects_reducible():
    for w in SUPPORTED_WIDTHS:
        if w <= 16:
            assert _is_irreducible(DEFAULT_REDUCTION[w])
    assert not _is_irreducible(0x1002A)  # divisible by x
    assert not _is_irreducible(0x100)  # x^8
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    assert not _is_irreducible(0b10101)


def test_fieldspec_rejects_unsupported_width():
    with pytest.raises(ValueError):
        FieldSpec(5)
    with pytest.raises(ValueError):
        FieldSpec(12)


def test_fieldspec_equality_and_default_cache():
    assert default_spec(8) is default_spec(8)


@pytest.mark.parametrize("w", [w for w in SUPPORTED_WIDTHS if w <= 16])
def test_logexp_tables_are_a_permutation_and_its_inverse(w):
    log, exp = FieldSpec(w)._build_logexp()
    order = (1 << w) - 1
    assert sorted(exp[:order]) == list(range(1, order + 1))
    assert exp[order:] == exp[:order]
    for i, v in enumerate(exp[:order]):
        assert log[v] == i


@pytest.mark.parametrize("w", [w for w in SUPPORTED_WIDTHS if w <= 16])
def test_exp_steps_by_the_generator(w):
    # exp[0] = 1 and exp[i + 1] = exp[i] * (x+1) pin every entry
    _, exp = FieldSpec(w)._build_logexp()
    red = DEFAULT_REDUCTION[w]
    assert exp[0] == 1
    for i in range((1 << w) - 1):
        assert exp[i + 1] == _mul_schoolbook(exp[i], 3, w, red)


@pytest.mark.parametrize("w, poly", [(4, 0x19), (8, 0x11D)])
def test_logexp_build_rejects_a_polynomial_where_x_plus_1_is_not_primitive(w, poly):
    # both irreducible, but x+1 has order 5 mod 0x19 and 51 mod 0x11D,
    # so its powers would overwrite log entries
    assert _is_irreducible(poly)
    spec = FieldSpec(w)
    spec.poly = poly
    with pytest.raises(ValueError, match="does not generate"):
        spec._build_logexp()
    assert spec._log is None and spec._exp is None


def test_w16_tables_build_without_a_python_call_per_element():
    # the group has 65,535 elements; the build runs w vector rounds
    spec = FieldSpec(16)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        spec._build_logexp()
    finally:
        sys.setprofile(previous)
    assert calls < 1000


def test_tables_are_built_on_first_use():
    spec = FieldSpec(16)
    assert spec._log is None and spec._exp is None
    assert spec.mul_int(3, 7) == _mul_raw(3, 7, 16, spec.poly)
    assert spec._log is not None


def test_w16_tables_build_within_a_mebibyte():
    # typed arrays: 128 KiB of log and 256 KiB of doubled exp
    spec = FieldSpec(16)
    tracemalloc.start()
    try:
        spec._build_logexp()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mul_matches_schoolbook_exhaustive_width8():
    spec = default_spec(8)
    red = DEFAULT_REDUCTION[8]
    for a in range(256):
        for b in range(256):
            assert spec.mul_int(a, b) == _mul_schoolbook(a, b, 8, red)
