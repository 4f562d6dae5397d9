"""Microbenchmarks of the scalar path: the field product, one k-wise hash
evaluation and the combiner adw_eval, on the keys of the benchmark's
`adaptive` workload.

    python -m pytest microbench --benchmark-only

adaptive-transform --n 16 --q 64 --k 12 builds two oracles over 16-bit
strings, both with h1 and h2 inside the first 4q = 256 strings:
build_adaptive_from_nonadaptive's pp key, an adw key with 12-wise hashes
over GF(2^16) and no inner maps, and build_adw_adaptive_from_nonadaptive's
table-backed adw key with c = 1, so z = 2(c+2) * log2 q = 36 inner maps
of 2-entry tables under 2-wise hashes. Each round is one adw_eval call
on the key itself, so neither is folded: the pp key is not affine, and
the table key's ADWOracle would fold it at query d + 2.

FieldSpec.mul_int is timed at every supported width on one fixed pair
of nonzero elements, after a first product has built any tables; w <= 16
multiplies through log/exp tables and w = 32 and 64 schoolbook. eval_kwise
is timed on the pp key's 12-wise hash over GF(2^16), and on a 16-wise hash
over GF(2^32), the shape of the `birthday` pp key's h1 played trial by
trial.
"""

import random

import pytest

from cuckooprf.combine import adw_eval
from cuckooprf.gf import SUPPORTED_WIDTHS, default_spec
from cuckooprf.hashfam import eval_kwise, sample_kwise
from cuckooprf.transform import (
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
)

N, Q = 16, 64
KEYS = {
    "pp": lambda rng: build_adaptive_from_nonadaptive(N, Q, 12, rng).key,
    "adw-table": lambda rng: build_adw_adaptive_from_nonadaptive(N, Q, 1, rng).key,
}


@pytest.mark.parametrize("name", KEYS)
def test_adw_eval(benchmark, name):
    key = KEYS[name](random.Random(2024))
    x = 0xBEEF
    answer = benchmark(adw_eval, key, x)
    assert answer == adw_eval(key, x) < 1 << N


@pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
def test_mul_int(benchmark, width):
    spec = default_spec(width)
    a, b = (random.Random(width + i).randrange(1, 1 << width) for i in (0, 1))
    product = spec.mul_int(a, b)
    assert benchmark(spec.mul_int, a, b) == product < 1 << width


# k, domain bits, range bits
HASHES = {"adaptive": (12, 16, 16), "birthday": (16, 24, 12)}


@pytest.mark.parametrize("name", HASHES)
def test_eval_kwise(benchmark, name):
    key = sample_kwise(*HASHES[name], random.Random(2024))
    x = 0xBEEF
    assert benchmark(eval_kwise, key, x) == key.eval_int(x) < 1 << key.range_bits
