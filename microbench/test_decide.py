"""Microbenchmark of the birthday distinguisher's decide on one block.

    python -m pytest microbench --benchmark-only

The shape is one block of the benchmark's `birthday` workload: 250
rows of answers to the 128 queries 0..127, r = 24 output bits each, so
decide sorts each row and looks for two equal neighbours. The answers
are uniform 24-bit words, as a random function's are.
"""

import numpy as np

from cuckooprf.games import birthday_distinguisher

D, Q, ROWS, R = 24, 128, 250, 24


def test_birthday_decide(benchmark):
    answers = np.random.default_rng(2024).integers(0, 1 << R, (ROWS, Q), dtype=np.uint64)
    verdicts = benchmark(birthday_distinguisher(Q, D).decide, answers)
    assert verdicts.shape == (ROWS,)
