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

from .bits import BitString, key_stream, mix64, truncate
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
from .prfcore import FunctionOracle, GgmKey, GgmOracle, PrgSpec, ggm_eval
from .transform import (
    ExtensionParams,
    KeyDraws,
    KeySampler,
    adw_layout,
    adw_table_z,
    adw_z,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    check_widths,
    lazy_random_sampler,
    lazy_sampler,
    pp_layout,
    pp_sampler,
)

CSV_COLUMNS = ("experiment", "n", "d", "s", "r", "k", "q", "z", "trials",
               "p_real", "p_ideal", "advantage", "stderr", "seed", "violations")

_PROBE_TAG = 0x50524F42
_PAIR_TAG = 0x47474D50
_CALL_TAG = 0x43414C4C
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


def kwise_verify(width: int, ks, seed: int):
    rows, problems = [], []
    for k in ks:
        report = exhaustive_independence_check(k, width)
        if not report.ok:
            problems.append(f"k={k}: some output tuple count differs from {report.expected_count}")
        rows.append(_row("kwise-verify", n=width, d=width, r=width, k=k,
                         trials=report.keys_enumerated,
                         p_real=1.0 if report.ok else 0.0, p_ideal=1.0,
                         advantage=0.0 if report.ok else 1.0, stderr=0.0,
                         seed=seed, violations=0 if report.ok else 1))
    return rows, problems


def birthday(d: int, s: int, r: int, q: int, k: int, c: int, trials: int, seed: int):
    """Collision attack against the three domain extensions, one row each."""
    params = ExtensionParams(d=d, s=s, r=r, k=k, q=q, c=c)
    dist = birthday_distinguisher(q, d)
    ideal = lazy_sampler(d, r)
    targets = (
        ("birthday-levin", levin_sampler(d, s, r, k), k, None),
        ("birthday-pp", pp_sampler(params), k, None),
        ("birthday-adw", KeySampler(adw_layout(params, "table")), 2, adw_z(params, "table")),
    )
    rows = []
    for name, sampler, kcol, zcol in targets:
        res = run_game(sampler, ideal, dist, trials, seed)
        rows.append(_game_row(name, res, n=d, d=d, s=s, r=r, k=kcol, q=q, z=zcol))
    return rows, []


def uniformity(d: int, s: int, r: int, k: int, queries: int, samples: int, seed: int):
    if queries < 1 or queries > 1 << d:
        raise ConfigurationError(f"{queries} distinct queries do not fit in {d} bits")
    if s < 1:
        raise ConfigurationError("s must be positive")
    check_widths(d=d, r=r)
    if d < s:
        raise ConfigurationError(f"extended domain d={d} below underlying s={s}")
    if k < 2:
        raise ConfigurationError(f"independence k must be at least 2, got {k}")
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
    if n < 1:
        raise ConfigurationError(f"involution needs n >= 1, got {n}")
    real, ideal = involution_samplers(n)
    rows = []
    for name, dist in (("involution-adaptive", involution_distinguisher(n)),
                       ("involution-nonadaptive", involution_nonadaptive_distinguisher(n))):
        res = run_game(real, ideal, dist, trials, seed)
        rows.append(_game_row(name, res, n=n, d=n, r=n, q=2))
    return rows, []


class _CallTally:
    """An f_sampler whose lazy-random oracles count, as they are queried,
    every underlying query and those outside the first `window` strings.
    It keeps the two counts, not the queries, so its memory does not grow
    with the number of probes. It is the one call counter of the
    experiments: a builder's underlying calls are counted where it draws f."""

    def __init__(self, window: int):
        self.window = window
        self.calls = 0
        self.outside = 0

    def __call__(self, rng, domain_bits: int, range_bits: int) -> FunctionOracle:
        f = lazy_random_sampler(rng, domain_bits, range_bits)

        def answer(x: int) -> int:
            self.calls += 1
            self.outside += x >= self.window
            return f.eval_int(x)

        return FunctionOracle(answer, domain_bits, range_bits)


def adaptive_transform(n: int, q: int, k: int, probes: int, seed: int):
    """Drive the adaptive-security builders with an answer-chained prober
    and verify that no underlying query ever leaves the first 4q strings.

    Probe i mixes the last answer with word i of key_stream(seed,
    _PROBE_TAG), which is derive_seed(seed, _PROBE_TAG, i)."""
    if probes < 1:
        raise ConfigurationError("probes must be positive")
    targets = (
        ("adaptive-transform-pp", "pp", k),
        ("adaptive-transform-adw", "adw", 2),
    )
    rows, problems = [], []
    for idx, (name, flavor, kcol) in enumerate(targets):
        tally = _CallTally(4 * q)
        rng = key_stream(seed, _PROBE_TAG, idx)
        if flavor == "pp":
            handle = build_adaptive_from_nonadaptive(n, q, k, rng, f_sampler=tally)
            zcol = None
        else:
            handle = build_adw_adaptive_from_nonadaptive(n, q, _ADAPTIVE_C, rng, f_sampler=tally)
            zcol = adw_table_z(_ADAPTIVE_C, q)
        words = key_stream(seed, _PROBE_TAG)
        x = 0
        for _ in range(probes):
            x = truncate(mix64(handle.eval_int(x) ^ words.getrandbits(64)), n)
        total, outside = tally.calls, tally.outside
        if outside:
            problems.append(f"{name}: {outside} of {total} underlying queries left the 4q prefix")
        rows.append(_row(name, n=n, d=n, s=n, r=n, k=kcol, q=q, z=zcol, trials=probes,
                         p_real=(total - outside) / total, p_ideal=1.0,
                         advantage=outside / total,
                         seed=seed, violations=outside))
    return rows, problems


def adw_compare(d: int, s: int, r: int, q: int, k: int, c: int, trials: int, seed: int):
    """Birthday advantage and per-query call cost of pp next to both adw
    variants at identical shape parameters.

    The cost is read from a probe oracle keyed with a _CallTally over d+2
    queries, so the last query is the first a table adw answers folded."""
    params = ExtensionParams(d=d, s=s, r=r, k=k, q=q, c=c)
    dist = birthday_distinguisher(q, d)
    ideal = lazy_sampler(d, r)
    z_prf, z_table = adw_z(params, "prf"), adw_z(params, "table")
    targets = (
        ("adw-compare-pp", pp_sampler(params), k, 0, 2),
        ("adw-compare-prf", KeySampler(adw_layout(params, "prf")), 2, z_prf, 3 * z_prf + 2),
        ("adw-compare-table", KeySampler(adw_layout(params, "table")), 2, z_table, 2),
    )
    rows, problems = [], []
    for idx, (name, sampler, kcol, zcol, expected_calls) in enumerate(targets):
        tally = _CallTally(1 << s)
        probe = sampler.layout(KeyDraws(key_stream(seed, _CALL_TAG, idx), tally))
        for x in range(d + 2):
            before = tally.calls
            probe.eval_int(x)
            if tally.calls - before != expected_calls:
                problems.append(f"{name}: {tally.calls - before} underlying calls per query, "
                                f"expected {expected_calls}")
                break
        res = run_game(sampler, ideal, dist, trials, seed)
        rows.append(_game_row(name, res, n=d, d=d, s=s, r=r, k=kcol, q=q, z=zcol))
    return rows, problems


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
