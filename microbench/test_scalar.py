"""Microbenchmarks of the scalar path and of the twin's probe evaluators:
the field product, one k-wise hash evaluation, the combiner adw_eval,
the twin's per-call hash evaluator and its adw byte tables, and the
lazy answer, on the keys of the benchmark's `adaptive` workload.

    python -m pytest microbench --benchmark-only

adaptive-transform --n 16 --q 64 --k 12 draws two keys over 16-bit
strings, both with h1 and h2 inside the first 4q = 256 strings:
adaptive_layout's pp key, an adw key with 12-wise hashes over GF(2^16)
and no inner maps, and adw_adaptive_layout's table-backed adw key with
c = 1, so z = 2(c+2) * log2 q = 36 inner maps of 2-entry tables under
2-wise hashes. test_adw_eval calls adw_eval on the builders' scalar
keys, the reference the twin answers as. adaptive-transform draws the
same keys on the numpy twin, one row each (batch.ColumnDraws), and
asks each one's evaluator (batch._ADW.inner_at) for the inner values
of one round's experiments._CHAINS points. test_hashes_at times
_Hashes.at, which evaluates the pp key's hashes afresh at each round's
points, on its h1 at 64 points. test_adw_tables_build times the table
key's evaluator build, once per target before the probe rounds: its
inner values at 0 and the 16 unit vectors, and the byte tables of
their affine map; test_adw_tables_lookup looks one round's 64 points up
in those tables.

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

from cuckooprf.batch import ColumnDraws
from cuckooprf.bits import KeyStreams
from cuckooprf.combine import adw_eval, adw_inner_values
from cuckooprf.experiments import _CHAINS
from cuckooprf.gf import SUPPORTED_WIDTHS, FieldSpec, default_spec
from cuckooprf.hashfam import eval_kwise, sample_kwise
from cuckooprf.prfcore import lazy_answer
from cuckooprf.transform import (
    KeyDraws,
    adaptive_layout,
    adw_adaptive_layout,
)

N, Q = 16, 64
LAYOUTS = {"pp": adaptive_layout(N, Q, 12), "adw-table": adw_adaptive_layout(N, Q, 1)}
STREAMS = KeyStreams(2024, 0)


def _keys(name):
    """The scalar key and its one-row twin, drawn from one key stream."""
    layout = LAYOUTS[name]
    return layout(KeyDraws(STREAMS.stream(0))), layout(ColumnDraws(STREAMS.heads(range(1))))


def _round_points() -> np.ndarray:
    rng = random.Random(5)
    return np.array([0, *(rng.getrandbits(N) for _ in range(_CHAINS - 1))], dtype=np.uint64)


@pytest.mark.parametrize("name", LAYOUTS)
def test_adw_eval(benchmark, name):
    key, _ = _keys(name)
    x = 0xBEEF
    answer = benchmark(adw_eval, key, x)
    assert answer == adw_eval(key, x) < 1 << N


def test_hashes_at(benchmark):
    key, twin = _keys("pp")
    xs = _round_points()
    values = benchmark(twin.h1.at, xs)
    assert values.tolist() == [[eval_kwise(key.h1, x) for x in xs.tolist()]]


def test_adw_tables_build(benchmark):
    key, twin = _keys("adw-table")
    evaluate = benchmark(twin.inner_at, N)
    assert evaluate(np.array([0xBEEF], dtype=np.uint64))[:, 0].T.tolist() == \
        [list(adw_inner_values(key, 0xBEEF))]


def test_adw_tables_lookup(benchmark):
    key, twin = _keys("adw-table")
    evaluate, xs = twin.inner_at(N), _round_points()
    inner = benchmark(evaluate, xs)
    assert inner[:, 0].T.tolist() == [list(adw_inner_values(key, x)) for x in xs.tolist()]


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
