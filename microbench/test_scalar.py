"""Microbenchmarks of the scalar path: the field product, one k-wise hash
evaluation, the combiner adw_eval, building a fold and one round of a
fold, and the lazy answer, on the keys of the benchmark's `adaptive`
workload.

    python -m pytest microbench --benchmark-only

adaptive-transform --n 16 --q 64 --k 12 builds two oracles over 16-bit
strings, both with h1 and h2 inside the first 4q = 256 strings:
build_adaptive_from_nonadaptive's pp key, an adw key with 12-wise hashes
over GF(2^16) and no inner maps, and build_adw_adaptive_from_nonadaptive's
table-backed adw key with c = 1, so z = 2(c+2) * log2 q = 36 inner maps
of 2-entry tables under 2-wise hashes. test_adw_eval calls adw_eval on
the key itself, the reference every fold answers as, and the key's
own eval_int. test_fold_build times fold_adw on each key,
which adaptive-transform runs once per target, before its probe rounds:
byte tables of the odd powers x^1, x^3, ..., x^11 for the pp key, and
of x alone, the 36 affine bars folded in, for the table key.
test_fold_round asks the fold of each key for the inner values of one
round's experiments._CHAINS points, which it reads from those tables;
a round then answers them in one batch.lazy_answers call.

lazy_answer is timed on one point: it is the rule adw-compare's
tallied oracles answer by.

FieldSpec.mul_int is timed at every supported width on one fixed pair
of nonzero elements, after a first product has built any tables; w <= 16
multiplies through log/exp tables and w = 32 and 64 schoolbook.
test_logexp_build times those tables' cold build on a fresh FieldSpec
per round at w in {4, 8, 16}: w vector doublings of exp and the log
scatter with its read-back check, the cost a process pays on its first
product at that width (the `adaptive` workload's first w = 16 product
pays it in its warm-up). eval_kwise
is timed on the pp key's 12-wise hash over GF(2^16), and on a 16-wise hash
over GF(2^32), the shape of the `birthday` pp key's h1 played trial by
trial.
"""

import random

import numpy as np
import pytest

from cuckooprf.combine import adw_eval, adw_inner_values, fold_adw
from cuckooprf.experiments import _CHAINS
from cuckooprf.gf import SUPPORTED_WIDTHS, FieldSpec, default_spec
from cuckooprf.hashfam import eval_kwise, sample_kwise
from cuckooprf.prfcore import lazy_answer
from cuckooprf.transform import (
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
)

N, Q = 16, 64
KEYS = {
    "pp": lambda rng: build_adaptive_from_nonadaptive(N, Q, 12, rng),
    "adw-table": lambda rng: build_adw_adaptive_from_nonadaptive(N, Q, 1, rng),
}


@pytest.mark.parametrize("name", KEYS)
def test_adw_eval(benchmark, name):
    key = KEYS[name](random.Random(2024))
    x = 0xBEEF
    answer = benchmark(adw_eval, key, x)
    assert answer == adw_eval(key, x) < 1 << N


@pytest.mark.parametrize("name", KEYS)
def test_fold_build(benchmark, name):
    key = KEYS[name](random.Random(2024))
    x = 0xBEEF
    assert benchmark(fold_adw, key)(np.array([x], dtype=np.uint64)).T.tolist() == \
        [list(adw_inner_values(key, x))]


@pytest.mark.parametrize("name", KEYS)
def test_fold_round(benchmark, name):
    key = KEYS[name](random.Random(2024))
    folded = fold_adw(key)
    rng = random.Random(5)
    xs = np.array([0, *(rng.getrandbits(N) for _ in range(_CHAINS - 1))], dtype=np.uint64)
    inner = benchmark(folded, xs)
    assert inner.T.tolist() == [list(adw_inner_values(key, x)) for x in xs.tolist()]


SEED = 0x5EED


def test_lazy_answer(benchmark):
    x = 0xBEEF
    answer = lazy_answer(SEED, x, N)
    assert benchmark(lazy_answer, SEED, x, N) == answer


@pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
def test_mul_int(benchmark, width):
    spec = default_spec(width)
    a, b = (random.Random(width + i).randrange(1, 1 << width) for i in (0, 1))
    product = spec.mul_int(a, b)
    assert benchmark(spec.mul_int, a, b) == product < 1 << width


@pytest.mark.parametrize("width", [w for w in SUPPORTED_WIDTHS if w <= 16])
def test_logexp_build(benchmark, width):
    log, exp = benchmark.pedantic(FieldSpec._build_logexp, setup=lambda: ((FieldSpec(width),), {}),
                                  rounds=200)
    assert log[exp[5]] == 5 and len(exp) == 2 * ((1 << width) - 1)


# k, domain bits, range bits
HASHES = {"adaptive": (12, 16, 16), "birthday": (16, 24, 12)}


@pytest.mark.parametrize("name", HASHES)
def test_eval_kwise(benchmark, name):
    key = sample_kwise(*HASHES[name], random.Random(2024))
    x = 0xBEEF
    assert benchmark(eval_kwise, key, x) == key.eval_int(x) < 1 << key.range_bits
