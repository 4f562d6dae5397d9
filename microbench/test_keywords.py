"""Microbenchmarks of key sampling: a block's keys in the numpy twin, and
one trial's keys on KeyDraws; and the splitmix64 mix of a block's grid.

    python -m pytest microbench --benchmark-only

The shapes are one block of the benchmark's workloads: `uniformity`
(pp_layout(8, 8, 2, 8), 26 words on 8192 rows) and the pp keys of
`birthday` (pp_layout(24, 12, 24, 16), 50 words on 250 rows).
stream_words derives a block's words in one call; a pp_layout draw on
ColumnDraws derives them slot by slot and masks each slot to its width,
as block_keys does for every block of a run. The per-trial loop draws
the same layout from one trial's key stream through KeyDraws, as the
samplers without a numpy twin do for every trial. mix64_inplace mixes
one block's grid of lazy answers, (8192, 4) for `uniformity` and
(250, 128) for `birthday`, through its workspace's scratch.
"""

import pytest

from cuckooprf import batch
from cuckooprf.bits import KeyStreams, mix64_inplace, stream_words
from cuckooprf.transform import KeyDraws, pp_layout

# pp_layout's (d, s, r, k), rows
SHAPES = {
    "uniformity": ((8, 8, 2, 8), 8192),
    "birthday": ((24, 12, 24, 16), 250),
}
GRIDS = {"uniformity": (8192, 4), "birthday": (250, 128)}


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
    assert len(key.h1.coeffs) == args[3]


@pytest.mark.parametrize("shape", GRIDS)
def test_mix64_inplace(benchmark, shape):
    rows, q = GRIDS[shape]
    grid = stream_words(_heads(rows), range(q)).copy()
    ws = batch.Workspace()
    ws.scratch(grid.size)
    ws.reset()  # the scratch is now the workspace's, as in every block after the first
    out = benchmark(mix64_inplace, grid, ws.scratch(grid.size))
    assert out is grid
