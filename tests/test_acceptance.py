"""End-to-end acceptance checks, one test per headline property.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s)
and enforces the stated tolerances and runtime budgets with plain
asserts. Seeds are pinned so every run reproduces the same numbers.
"""

import random
import time

from cuckooprf.bits import BitString
from cuckooprf.combine import ADWKey, adw_eval
from cuckooprf.experiments import birthday, involution, rows_to_csv, uniformity
from cuckooprf.games import birthday_distinguisher, run_game
from cuckooprf.hashfam import exhaustive_independence_check, sample_kwise
from cuckooprf.prfcore import GgmKey, LazyRandomOracle, PrgSpec, ggm_eval
from cuckooprf.transform import (
    ExtensionParams,
    KeyDraws,
    adw_layout,
    build_adaptive_from_nonadaptive,
    build_prg_prf,
    pp_sampler,
)
from closedforms import birthday_closed_form, pp_formula
from spies import InstrumentedOracle, counting_sampler

SEED = 20240816


def _report(num: int, desc: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_exact_kwise_independence():
    t0 = time.perf_counter()
    pair = exhaustive_independence_check(2)
    triple = exhaustive_independence_check(3)
    elapsed = time.perf_counter() - t0
    ok = (
        pair.ok and pair.keys_enumerated == 256 and pair.expected_count == 1
        and triple.ok and triple.keys_enumerated == 4096 and triple.expected_count == 1
        and elapsed < 10
    )
    _report(1, f"exact 2- and 3-wise independence at width 4 in {elapsed:.1f}s", ok)


def test_criterion_2_birthday_gap():
    t0 = time.perf_counter()
    rows, problems = birthday(24, 12, 24, 128, 16, 1, 2000, SEED)
    elapsed = time.perf_counter() - t0
    levin = next(r for r in rows if r["experiment"] == "birthday-levin")
    pp = next(r for r in rows if r["experiment"] == "birthday-pp")
    closed = birthday_closed_form(128, 12)
    ok = (
        not problems
        and abs(levin["advantage"] - 0.86) <= 0.04
        and abs(closed - 0.86) <= 0.04
        and abs(levin["p_real"] - closed) <= 0.03
        and pp["advantage"] <= 0.03
        and elapsed < 60
    )
    _report(
        2,
        f"levin advantage {levin['advantage']:.4f} (closed form {closed:.4f}) vs "
        f"pp advantage {pp['advantage']:.4f} in {elapsed:.1f}s",
        ok,
    )


def test_criterion_3_pp_tuple_uniformity():
    t0 = time.perf_counter()
    rows, problems = uniformity(8, 8, 2, 8, 4, 10**6, 7)
    elapsed = time.perf_counter() - t0
    (row,) = rows
    sd, baseline = row["p_real"], row["p_ideal"]
    ok = not problems and sd <= baseline + 0.005 and elapsed < 120
    _report(
        3,
        f"tuple distance {sd:.6f} vs baseline {baseline:.6f} + 0.005 over 10^6 "
        f"samples in {elapsed:.1f}s",
        ok,
    )


def test_criterion_4_adw_degenerates_to_pp():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    h1 = sample_kwise(2, 6, 4, rng)
    h2 = sample_kwise(2, 6, 4, rng)
    ell = sample_kwise(2, 6, 5, rng)
    f1 = LazyRandomOracle(rng.getrandbits(64), 4, 5)
    f2 = LazyRandomOracle(rng.getrandbits(64), 4, 5)
    adw = ADWKey(h1, h2, ell, (), (), (), (), f1, f2)
    mismatches = sum(
        adw_eval(adw, v) != pp_formula(adw, v) for v in range(64)
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5
    _report(4, f"z=0 pointwise equality over all 64 inputs, {mismatches} mismatches", ok)


def test_criterion_5_ggm_known_answers_and_prefix_sharing():
    stub = PrgSpec("stub-complement", 4)
    root = 0b0101
    vectors_ok = (
        ggm_eval(GgmKey(root, 0, stub), 0) == root
        and ggm_eval(GgmKey(root, 3, stub), 0b000) == root
        and ggm_eval(GgmKey(root, 2, stub), 0b10) == 0b1010
    )

    rng = random.Random(SEED)
    prg = PrgSpec("mix64", 16)
    shared_ok = True
    for _ in range(100):
        key = GgmKey(rng.getrandbits(16), 16, prg)
        p = rng.randrange(17)
        shared = rng.getrandbits(p) << (16 - p)
        paths = []
        for _ in range(2):
            x = shared | rng.getrandbits(16 - p)
            nodes = []
            ggm_eval(key, x, on_node=lambda i, s, acc=nodes: acc.append(s))
            paths.append(nodes)
        shared_ok = shared_ok and paths[0][: p + 1] == paths[1][: p + 1]

    ok = vectors_ok and shared_ok
    _report(5, "stub generator vectors and 100 shared-prefix path checks", ok)


def test_criterion_6_adaptive_builder_query_locality():
    n, q, probes = 16, 64, 10000
    spies: list[InstrumentedOracle] = []
    oracle = build_adaptive_from_nonadaptive(n, q, 12, random.Random(SEED), counting_sampler(spies))
    # answer-chained probes: each next input depends on the last output,
    # which is as adaptive as a distinguisher can get
    x = BitString(0, n)
    for _ in range(probes):
        y = oracle.query(x)
        x = BitString(y.value ^ random.Random(y.value).getrandbits(n), n)
    seen = [v for f in spies for v in f.queries]
    outside = sum(v >= 4 * q for v in seen)
    ok = len(seen) == 2 * probes and outside == 0
    _report(
        6,
        f"{len(seen)} underlying queries from {probes} adaptive probes, "
        f"{outside} outside the 4q prefix",
        ok,
    )


def _counted(layout, seed: int):
    """The oracle layout draws from random.Random(seed) with a
    counting_sampler, and a function that queries it at x and returns
    the underlying calls made."""
    spies: list[InstrumentedOracle] = []
    oracle = layout(KeyDraws(random.Random(seed), counting_sampler(spies)))

    def calls(x: int) -> int:
        before = sum(f.calls for f in spies)
        oracle.eval_int(x)
        return sum(f.calls for f in spies) - before

    return oracle, calls


def test_criterion_7_call_count_accounting():
    runs = 1000
    rng = random.Random(SEED)

    _, pp_calls = _counted(pp_sampler(ExtensionParams(24, 12, 24, 16, 128)).layout, 1)
    pp_ok = all(pp_calls(rng.getrandbits(24)) == 2 for _ in range(runs))

    prf, prf_calls = _counted(adw_layout(ExtensionParams(20, 10, 12, 2, 16, c=1), "prf"), 2)
    z = len(prf.gbar)
    prf_ok = all(prf_calls(rng.getrandbits(20)) == 3 * z + 2 for _ in range(runs))

    _, table_calls = _counted(adw_layout(ExtensionParams(24, 12, 24, 2, 128, c=1), "table"), 3)
    table_ok = all(table_calls(rng.getrandbits(24)) == 2 for _ in range(runs))

    m = 8
    pipeline = build_prg_prf(PrgSpec("mix64", 16), m, 16, 2, 64, random.Random(4))
    prg_ok = True
    before = 0
    for _ in range(runs):
        pipeline.query(BitString(rng.getrandbits(16), 16))
        now = pipeline.f1.prg_calls + pipeline.f2.prg_calls
        prg_ok = prg_ok and (now - before == 2 * m)
        before = now

    ok = pp_ok and prf_ok and table_ok and prg_ok
    _report(
        7,
        f"per-query costs over {runs} queries: pp 2, adw prf {3 * z + 2}, "
        f"adw table 2, generator pipeline {2 * m}",
        ok,
    )


def test_criterion_8_adaptive_vs_nonadaptive_separation():
    rows, problems = involution(10, 1000, SEED)
    adaptive = next(r for r in rows if r["experiment"] == "involution-adaptive")
    nonadaptive = next(r for r in rows if r["experiment"] == "involution-nonadaptive")
    ok = (
        not problems
        and adaptive["advantage"] >= 0.99
        and nonadaptive["advantage"] <= 0.01
    )
    _report(
        8,
        f"adaptive advantage {adaptive['advantage']:.4f} vs nonadaptive "
        f"{nonadaptive['advantage']:.4f} at n=10, 1000 trials",
        ok,
    )


def test_criterion_9_harness_soundness():
    lazy = lambda rng: LazyRandomOracle(rng.getrandbits(64), 10, 10)
    dist = birthday_distinguisher(32, 10)
    null_ok = True
    worst = 0.0
    for seed in range(10):
        res = run_game(lazy, lazy, dist, 300, 900 + seed)
        null_ok = null_ok and res.advantage <= 3 * res.stderr
        worst = max(worst, res.advantage - 3 * res.stderr)

    first, _ = birthday(16, 8, 16, 16, 4, 1, 25, 77)
    second, _ = birthday(16, 8, 16, 16, 4, 1, 25, 77)
    bytes_ok = rows_to_csv(first).encode() == rows_to_csv(second).encode()

    ok = null_ok and bytes_ok
    _report(
        9,
        f"null advantage within 3 stderr across 10 seeds (worst margin {worst:+.4f}) "
        f"and byte-identical reruns",
        ok,
    )
