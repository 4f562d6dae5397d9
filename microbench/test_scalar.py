"""Microbenchmarks of the scalar combiner, adw_eval, on the keys of the
benchmark's `adaptive` workload.

    python -m pytest microbench --benchmark-only

adaptive-transform --n 16 --q 64 --k 12 builds two oracles over 16-bit
strings, both with h1 and h2 inside the first 4q = 256 strings:
build_adaptive_from_nonadaptive's pp key, an adw key with 12-wise hashes
over GF(2^16) and no inner maps, and build_adw_adaptive_from_nonadaptive's
table-backed adw key with c = 1, so z = 2(c+2) * log2 q = 36 inner maps
of 2-entry tables under 2-wise hashes. Each round is one adw_eval call
on the key itself, so neither is folded: the pp key is not affine, and
the table key's ADWOracle would fold it at query d + 2.
"""

import random

import pytest

from cuckooprf.combine import adw_eval
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
