"""Experiment drivers behind the CLI.

Each driver returns (rows, problems). Rows are flat dicts over the
fixed CSV columns; fields that do not apply to an experiment stay None
(empty in CSV, null in JSON). Problems is a list of hard-invariant
failures: exact-count mismatches, known-answer mismatches, locality or
call-count violations. Stochastic quantities (advantages, distances)
are reported, never asserted here; the acceptance suite pins their
bands.

Column use by experiment, where it is not the obvious game mapping:
kwise-verify reports keys enumerated as trials and an all-counts-equal
flag as p_real against an expected 1.0; uniformity reports the
estimated statistical distance as p_real and the same estimator's
value on truly uniform samples as p_ideal; ggm-kat and the adaptive
transform report the fraction of checks passed as p_real and failures
as violations.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .batch import lazy_answers
from .bits import BitString, KeyStreams, key_stream, mix64_inplace, stream_words
from .combine import fold_adw
from .errors import ConfigurationError
from .games import (
    GameResult,
    birthday_distinguisher,
    involution_distinguisher,
    involution_nonadaptive_distinguisher,
    involution_samplers,
    run_game,
    tuple_uniformity_sd,
)
from .hashfam import exhaustive_independence_check
from .prfcore import GgmKey, GgmOracle, LazyRandomOracle, PrgSpec, ggm_eval, lazy_answer
from .transform import (
    ExtensionParams,
    KeyDraws,
    KeySampler,
    adw_layout,
    adw_table_z,
    adw_z,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    check_independence,
    check_widths,
    lazy_sampler,
    pp_layout,
    pp_sampler,
)

CSV_COLUMNS = ("experiment", "n", "d", "s", "r", "k", "q", "z", "trials",
               "p_real", "p_ideal", "advantage", "stderr", "seed", "violations")

_PROBE_TAG = 0x50524F42
_PAIR_TAG = 0x47474D50
_CALL_TAG = 0x43414C4C
# probe words per stream_words call: fixed, so memory does not grow with
# --probes, and too long a range for bits._column_tags to cache
_PROBE_CHUNK = 1024
# answer-chained chains adaptive-transform runs side by side; a chunk of
# probe words holds whole rounds of them
_CHAINS = 64
# hardness exponent of the adw adaptive-transform target
_ADAPTIVE_C = 1


def _row(experiment: str, **cols) -> dict:
    unknown = set(cols) - set(CSV_COLUMNS)
    if unknown:
        raise ValueError(f"unknown columns {sorted(unknown)}")
    row = dict.fromkeys(CSV_COLUMNS)
    row["experiment"] = experiment
    row.update(cols)
    return row


def _game_row(experiment: str, res: GameResult, **dims) -> dict:
    return _row(experiment, trials=res.trials, p_real=res.p_real, p_ideal=res.p_ideal,
                advantage=res.advantage, stderr=res.stderr, seed=res.seed,
                violations=res.violations, **dims)


def levin_sampler(d: int, s: int, r: int, k: int) -> KeySampler:
    """Hash-then-query sampler: fresh k-wise h and lazy-random f per trial."""

    def sample(draws):
        h = draws.kwise(k, d, s)
        return draws.levin(h, draws.prf(s, r))

    return KeySampler(sample)


def kwise_verify(k: int | None, seed: int):
    """Enumerate every key of the k-wise family over GF(2^4); k None
    checks both k = 2 and k = 3."""
    rows, problems = [], []
    for k in (2, 3) if k is None else (k,):
        report = exhaustive_independence_check(k)
        if not report.ok:
            problems.append(f"k={k}: some output tuple count differs from {report.expected_count}")
        rows.append(_row("kwise-verify", n=4, d=4, r=4, k=k,
                         trials=report.keys_enumerated,
                         p_real=1.0 if report.ok else 0.0, p_ideal=1.0,
                         advantage=0.0 if report.ok else 1.0, stderr=0.0,
                         seed=seed, violations=0 if report.ok else 1))
    return rows, problems


def _birthday_rows(p: ExtensionParams, targets, trials: int, seed: int) -> list[dict]:
    """One row per (name, sampler, k column, z column) target: its
    birthday game at p's shape against a lazy-random ideal."""
    dist = birthday_distinguisher(p.q, p.d)
    ideal = lazy_sampler(p.d, p.r)
    return [_game_row(name, run_game(sampler, ideal, dist, trials, seed),
                      n=p.d, d=p.d, s=p.s, r=p.r, k=kcol, q=p.q, z=zcol)
            for name, sampler, kcol, zcol in targets]


def birthday(d: int, s: int, r: int, q: int, k: int, c: int, trials: int, seed: int):
    """Collision attack against the three domain extensions, one row each."""
    params = ExtensionParams(d=d, s=s, r=r, k=k, q=q, c=c)
    return _birthday_rows(params, (
        ("birthday-levin", levin_sampler(d, s, r, k), k, None),
        ("birthday-pp", pp_sampler(params), k, None),
        ("birthday-adw", KeySampler(adw_layout(params, "table")), 2, adw_z(params, "table")),
    ), trials, seed), []


def uniformity(d: int, s: int, r: int, k: int, queries: int, samples: int, seed: int):
    check_widths(d=d, r=r)
    if queries < 1 or queries > 1 << d:
        raise ConfigurationError(f"{queries} distinct queries do not fit in {d} bits")
    if s < 1:
        raise ConfigurationError("s must be positive")
    if d < s:
        raise ConfigurationError(f"extended domain d={d} below underlying s={s}")
    check_independence(k, d)
    sampler = KeySampler(pp_layout(d, s, r, k))
    qs = tuple(BitString(i, d) for i in range(queries))
    res = tuple_uniformity_sd(sampler, qs, samples, seed)
    row = _row("uniformity", n=d, d=d, s=s, r=r, k=k, q=queries, trials=samples,
               p_real=res.sd_estimate, p_ideal=res.baseline_sd,
               advantage=abs(res.sd_estimate - res.baseline_sd),
               seed=seed, violations=0)
    return [row], []


def ggm_kat(pairs: int, seed: int):
    """Known-answer vectors, call-count exactness, and prefix sharing."""
    if pairs < 1:
        raise ConfigurationError("pairs must be positive")
    problems: list[str] = []
    checks = 0

    def check(ok: bool, label: str):
        nonlocal checks
        checks += 1
        if not ok:
            problems.append(label)

    stub = PrgSpec("stub-complement", 4)
    root = 0b0101
    check(ggm_eval(GgmKey(root, 0, stub), 0) == root,
          "empty input did not return the root seed")
    check(ggm_eval(GgmKey(root, 3, stub), 0b000) == root,
          "all-zero input did not keep the root under the stub generator")
    check(ggm_eval(GgmKey(root, 2, stub), 0b10) == 0b1010,
          "vector root=0101, x=10 did not give 1010")

    rng = key_stream(seed, _PAIR_TAG)
    prg = PrgSpec("mix64", 16)
    oracle = GgmOracle(GgmKey(rng.getrandbits(16), 16, prg))
    oracle.eval_int(rng.getrandbits(16))
    check(oracle.prg_calls == 16, f"one query cost {oracle.prg_calls} expansions, expected 16")

    for _ in range(pairs):
        key = GgmKey(rng.getrandbits(16), 16, prg)
        p = rng.randrange(17)
        # a 0-bit draw still takes a stream word, at p = 0 and at p = 16
        shared = rng.getrandbits(p) << (16 - p)
        paths = []
        for _ in range(2):
            x = shared | rng.getrandbits(16 - p)
            nodes: list[int] = []
            ggm_eval(key, x, on_node=lambda i, s, acc=nodes: acc.append(s))
            paths.append(nodes)
        check(paths[0][:p + 1] == paths[1][:p + 1],
              f"inputs sharing a {p}-bit prefix took different seed paths")

    row = _row("ggm-kat", n=16, d=16, r=16, trials=checks,
               p_real=(checks - len(problems)) / checks, p_ideal=1.0,
               advantage=len(problems) / checks,
               seed=seed, violations=len(problems))
    return [row], problems


def involution(n: int, trials: int, seed: int):
    """Adaptive vs nonadaptive distinguishers against a random involution."""
    # the distinguishers' queries are built before any InvolutionOracle
    # checks its cap
    if not 1 <= n <= 16:
        raise ConfigurationError(f"involution needs 1 <= n <= 16, got {n}")
    real, ideal = involution_samplers(n)
    rows = []
    for name, dist in (("involution-adaptive", involution_distinguisher(n)),
                       ("involution-nonadaptive", involution_nonadaptive_distinguisher(n))):
        res = run_game(real, ideal, dist, trials, seed)
        rows.append(_game_row(name, res, n=n, d=n, r=n, q=2))
    return rows, []


class _TalliedOracle(LazyRandomOracle):
    """A lazy-random oracle that counts each of its queries on a
    _CallTally, then answers by lazy_answer, in the one eval_int frame."""

    def __init__(self, tally: _CallTally, seed: int, domain_bits: int, range_bits: int):
        super().__init__(seed, domain_bits, range_bits)
        self.tally = tally

    def eval_int(self, x: int) -> int:
        self.tally.calls += 1
        return lazy_answer(self.seed, x, self.range_bits)


class _CallTally:
    """An f_sampler whose lazy-random oracles count every underlying
    query as it is made: adw-compare's call counter, which counts a
    builder's underlying calls where it draws f. Each oracle is a
    _TalliedOracle keyed, as lazy_random_sampler keys one, by one
    64-bit word of rng, and answers as that oracle would."""

    def __init__(self):
        self.calls = 0

    def __call__(self, rng, domain_bits: int, range_bits: int) -> _TalliedOracle:
        return _TalliedOracle(self, rng.getrandbits(64), domain_bits, range_bits)


def _outside(queries: np.ndarray, window: int) -> int:
    """How many of queries are at or past window: the underlying queries
    that left the first `window` strings, each counted every time it is
    made."""
    return int(np.count_nonzero(queries > window - 1))  # a uint64 holds 2^64 - 1, not 2^64


def adaptive_transform(n: int, q: int, k: int, probes: int, seed: int):
    """Drive the adaptive-security builders with answer-chained probers
    and verify that no underlying query ever leaves the first 4q strings.

    The probes run as R = min(probes, _CHAINS) chains side by side, in
    rounds: probe i is step i // R of chain i mod R, and chain r starts
    at r mod 2^n. Probe i of each target mixes its chain's last answer
    with word i of key_stream(seed, _PROBE_TAG), which is
    derive_seed(seed, _PROBE_TAG, i); the words are read _PROBE_CHUNK
    at a time into one reused buffer, and both targets take each word.
    Each target's key is folded (fold_adw) once, before the rounds. A
    round asks each fold for the inner values of its R points, answers
    both targets' f1 and f2 at once (batch.lazy_answers, the keys being
    drawn by the default lazy-random sampler), and counts every one of
    those underlying queries, and those at or past 4q (_outside)."""
    if not 1 <= probes <= sys.maxsize:  # a run past sys.maxsize probes would never end
        raise ConfigurationError(f"probes must be in 1..{sys.maxsize}, got {probes}")
    keys = (build_adaptive_from_nonadaptive(n, q, k, key_stream(seed, _PROBE_TAG, 0)),
            build_adw_adaptive_from_nonadaptive(n, q, _ADAPTIVE_C,
                                                key_stream(seed, _PROBE_TAG, 1)))
    folds = [fold_adw(key) for key in keys]
    seeds = np.array([f.seed for key in keys for f in (key.f1, key.f2)], dtype=np.uint64)
    head = KeyStreams(seed).heads(range(_PROBE_TAG, _PROBE_TAG + 1))  # derive_seed(seed, _PROBE_TAG)
    words = np.empty((_PROBE_CHUNK, 1), dtype=np.uint64)
    scratch = np.empty(_PROBE_CHUNK, dtype=np.uint64)
    mask, chains = np.uint64((1 << n) - 1), min(probes, _CHAINS)
    xs = np.tile(np.arange(chains, dtype=np.uint64) & mask, (2, 1))  # one row per target
    calls, outside = 0, [0, 0]
    for start in range(0, probes, _PROBE_CHUNK):
        chunk = stream_words(head, range(start, start + _PROBE_CHUNK), words, scratch)[0]
        for i in range(0, min(_PROBE_CHUNK, probes - start), chains):
            step = chunk[i:min(i + chains, probes - start)]
            xs = xs[:, :len(step)]  # the last round may run fewer chains
            inner = [fold(x) for fold, x in zip(folds, xs)]
            calls += len(step)
            for t, values in enumerate(inner):
                outside[t] += _outside(values[:2], 4 * q)
            queries = np.concatenate([values[:2] for values in inner])
            answers = lazy_answers(seeds, queries, n, n, queries, scratch)
            xs = answers[0::2] ^ answers[1::2]
            for x, values in zip(xs, inner):
                x ^= values[2]
            xs ^= step
            mix64_inplace(xs, scratch)
            xs &= mask
    rows, problems = [], []
    for name, kcol, zcol, out in (
            ("adaptive-transform-pp", k, None, outside[0]),
            ("adaptive-transform-adw", 2, adw_table_z(_ADAPTIVE_C, q), outside[1])):
        total = 2 * calls
        if out:
            problems.append(f"{name}: {out} of {total} underlying queries left the 4q prefix")
        rows.append(_row(name, n=n, d=n, s=n, r=n, k=kcol, q=q, z=zcol, trials=probes,
                         p_real=(total - out) / total, p_ideal=1.0,
                         advantage=out / total,
                         seed=seed, violations=out))
    return rows, problems


def adw_compare(d: int, s: int, r: int, q: int, k: int, c: int, trials: int, seed: int):
    """Birthday advantage and per-query call cost of pp next to both adw
    variants at identical shape parameters.

    The cost is read from a probe key drawn with a _CallTally, over
    d+2 of its queries, each answered by its eval_int, adw_eval; only
    adaptive-transform folds."""
    params = ExtensionParams(d=d, s=s, r=r, k=k, q=q, c=c)
    z_prf, z_table = adw_z(params, "prf"), adw_z(params, "table")
    targets = (
        ("adw-compare-pp", pp_sampler(params), k, 0),
        ("adw-compare-prf", KeySampler(adw_layout(params, "prf")), 2, z_prf),
        ("adw-compare-table", KeySampler(adw_layout(params, "table")), 2, z_table),
    )
    problems = []
    for idx, ((name, sampler, _, _), expected_calls) in enumerate(
            zip(targets, (2, 3 * z_prf + 2, 2))):
        tally = _CallTally()
        probe = sampler.layout(KeyDraws(key_stream(seed, _CALL_TAG, idx), tally)).eval_int
        for x in range(d + 2):
            before = tally.calls
            probe(x)
            if tally.calls - before != expected_calls:
                problems.append(f"{name}: {tally.calls - before} underlying calls per query, "
                                f"expected {expected_calls}")
                break
    return _birthday_rows(params, targets, trials, seed), problems


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_fmt(row[c]) for c in CSV_COLUMNS) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(list(rows), indent=2) + "\n"
