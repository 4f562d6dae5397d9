"""Microbenchmarks of key sampling: a block's keys in the numpy twin, and
one trial's keys on KeyDraws.

    python -m pytest microbench --benchmark-only

The shapes are one block of the benchmark's workloads: `uniformity`
(pp_layout(8, 8, 2, 8), 26 words on 8192 rows) and the pp keys of
`birthday` (pp_layout(24, 12, 24, 16), 50 words on 250 rows).
stream_words derives a block's words in one call; a pp_layout draw on
ColumnDraws derives them slot by slot and masks each slot to its width,
as block_keys does for every block of a run. The per-trial loop draws
the same layout from one trial's key stream through KeyDraws, as the
samplers without a numpy twin do for every trial.
"""

import pytest

from cuckooprf import batch
from cuckooprf.bits import KeyStreams, stream_words
from cuckooprf.transform import KeyDraws, pp_layout

# pp_layout's (d, s, r, k), rows
SHAPES = {
    "uniformity": ((8, 8, 2, 8), 8192),
    "birthday": ((24, 12, 24, 16), 250),
}


def _heads(rows):
    return KeyStreams(2024, 0).heads(range(rows))


@pytest.mark.parametrize("shape", SHAPES)
def test_stream_words(benchmark, shape):
    (_, _, _, k), rows = SHAPES[shape]
    cols = range(3 * k + 2)  # h1, h2 and g, then f1 and f2
    words = benchmark(stream_words, _heads(rows), cols)
    assert words.shape == (rows, len(cols))


@pytest.mark.parametrize("shape", SHAPES)
def test_pp_layout_draw(benchmark, shape):
    args, rows = SHAPES[shape]
    heads, layout = _heads(rows), pp_layout(*args)
    key = benchmark(lambda: layout(batch.ColumnDraws(heads)))
    assert key.h1.coeffs.shape == (rows, args[3])


@pytest.mark.parametrize("shape", SHAPES)
def test_pp_layout_draw_per_trial(benchmark, shape):
    args, _ = SHAPES[shape]
    streams, layout = KeyStreams(2024, 0), pp_layout(*args)
    key = benchmark(lambda: layout(KeyDraws(streams.stream(7))))
    assert len(key.key.h1.coeffs) == args[3]
