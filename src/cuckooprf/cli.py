"""Command line entry point for the experiment suite.

Every run is fully determined by its parameters and --seed: rerunning
with the same values reproduces the output byte for byte. Results go
to stdout or --out as CSV (default) or JSON with one fixed column set
across all experiments; hard-invariant failures are printed to stderr.

Exit codes: 0 all checks passed, 1 a hard check failed, 2 the
configuration violates a stated constraint or the output (--out or
stdout) cannot be written.

A flat JSON config file (--config) mirrors the flag names (master_seed
for --seed) and wins over flags on conflict, with a notice on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments
from .errors import ConfigurationError


def _add_common(sp, trials_default=None):
    sp.add_argument("--seed", type=int, default=2024,
                    help="master seed; fixes every derived random choice (default 2024)")
    if trials_default is not None:
        sp.add_argument("--trials", type=int, default=trials_default,
                        help="game trials per world")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv)")
    sp.add_argument("--config", default=None,
                    help="flat JSON config file; overrides flags on conflict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuckooprf",
        description="Seeded experiments for hash-combined PRF constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kwise-verify",
                        help="prove exact k-wise independence by full enumeration")
    sp.add_argument("--width", type=int, default=4, help="field width in bits (default 4)")
    sp.add_argument("--k", type=int, default=None,
                    help="independence to check (default: both 2 and 3)")
    _add_common(sp)

    sp = sub.add_parser("birthday",
                        help="collision attack against levin, pp, and adw extensions")
    sp.add_argument("--d", type=int, default=24, help="extended domain bits (default 24)")
    sp.add_argument("--s", type=int, default=12, help="underlying PRF domain bits (default 12)")
    sp.add_argument("--r", type=int, default=24, help="range bits (default 24)")
    sp.add_argument("--q", type=int, default=128, help="queries per trial (default 128)")
    sp.add_argument("--k", type=int, default=16, help="hash independence (default 16)")
    sp.add_argument("--c", type=int, default=1, help="adw hardness exponent (default 1)")
    _add_common(sp, trials_default=2000)

    sp = sub.add_parser("uniformity",
                        help="statistical distance of the pp output tuple from uniform")
    sp.add_argument("--d", type=int, default=8, help="extended domain bits (default 8)")
    sp.add_argument("--s", type=int, default=8, help="underlying PRF domain bits (default 8)")
    sp.add_argument("--r", type=int, default=2, help="range bits (default 2)")
    sp.add_argument("--k", type=int, default=8, help="hash independence (default 8)")
    sp.add_argument("--queries", type=int, default=4, help="fixed distinct queries (default 4)")
    sp.add_argument("--samples", type=int, default=1000000,
                    help="independent key samples (default 1000000)")
    _add_common(sp)

    sp = sub.add_parser("ggm-kat",
                        help="tree PRF known-answer vectors and prefix sharing")
    sp.add_argument("--pairs", type=int, default=100,
                    help="random input pairs for the prefix check (default 100)")
    _add_common(sp)

    sp = sub.add_parser("involution",
                        help="adaptive vs nonadaptive attack on a random involution")
    sp.add_argument("--n", type=int, default=10, help="domain bits (default 10)")
    _add_common(sp, trials_default=1000)

    sp = sub.add_parser("adaptive-transform",
                        help="query locality of the adaptive-security builders")
    sp.add_argument("--n", type=int, default=16, help="domain bits (default 16)")
    sp.add_argument("--q", type=int, default=64, help="query budget (default 64)")
    sp.add_argument("--k", type=int, default=12, help="hash independence (default 12)")
    sp.add_argument("--probes", type=int, default=10000,
                    help="adaptive probe queries (default 10000)")
    _add_common(sp)

    sp = sub.add_parser("adw-compare",
                        help="pp next to both adw variants: advantage and call cost")
    sp.add_argument("--d", type=int, default=24, help="extended domain bits (default 24)")
    sp.add_argument("--s", type=int, default=12, help="underlying PRF domain bits (default 12)")
    sp.add_argument("--r", type=int, default=24, help="range bits (default 24)")
    sp.add_argument("--q", type=int, default=128, help="queries per trial (default 128)")
    sp.add_argument("--k", type=int, default=16, help="pp hash independence (default 16)")
    sp.add_argument("--c", type=int, default=1, help="adw hardness exponent (default 1)")
    _add_common(sp, trials_default=500)

    return parser


def _options(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> argparse action for the options of one subcommand."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.option_strings}


def _check_config_value(key: str, val, action: argparse.Action):
    """Hold a config value to what argparse would accept for the flag."""
    if val is None:
        if action.default is None:
            return
        raise ConfigurationError(f"config key {key!r} must not be null")
    want = action.type or str
    if isinstance(val, bool) or not isinstance(val, want):
        raise ConfigurationError(f"config key {key!r} must be of type {want.__name__}, "
                                 f"got {type(val).__name__}")
    if action.choices is not None and val not in action.choices:
        raise ConfigurationError(f"config key {key!r} must be one of {list(action.choices)}")


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace):
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config file must hold a flat JSON object")
    options = _options(parser, args.command)
    for key, val in cfg.items():
        if key == "experiment":
            if val != args.command:
                raise ConfigurationError(
                    f"config is for experiment {val!r}, but subcommand is {args.command!r}"
                )
            continue
        dest = "seed" if key == "master_seed" else key
        if dest in ("config", "help") or dest not in options:
            raise ConfigurationError(f"unknown config key {key!r} for {args.command}")
        _check_config_value(key, val, options[dest])
        old = getattr(args, dest)
        if old != val:
            print(f"config file overrides --{dest}: {old} -> {val}", file=sys.stderr)
        setattr(args, dest, val)


def _dispatch(args: argparse.Namespace):
    cmd = args.command
    if cmd == "kwise-verify":
        ks = (2, 3) if args.k is None else (args.k,)
        return experiments.kwise_verify(args.width, ks, args.seed)
    if cmd == "birthday":
        return experiments.birthday(args.d, args.s, args.r, args.q, args.k, args.c,
                                    args.trials, args.seed)
    if cmd == "uniformity":
        return experiments.uniformity(args.d, args.s, args.r, args.k, args.queries,
                                      args.samples, args.seed)
    if cmd == "ggm-kat":
        return experiments.ggm_kat(args.pairs, args.seed)
    if cmd == "involution":
        return experiments.involution(args.n, args.trials, args.seed)
    if cmd == "adaptive-transform":
        return experiments.adaptive_transform(args.n, args.q, args.k, args.probes, args.seed)
    if cmd == "adw-compare":
        return experiments.adw_compare(args.d, args.s, args.r, args.q, args.k, args.c,
                                       args.trials, args.seed)
    raise ConfigurationError(f"unknown command {cmd!r}")


def _write_out(path: str, text: str):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write output file: {exc}") from exc


def _write_stdout(text: str):
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # The interpreter flushes stdout again at exit; point its file at
        # devnull so that flush cannot fail and print a second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ConfigurationError(f"cannot write output: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args)
        rows, problems = _dispatch(args)
        text = (experiments.rows_to_csv(rows) if args.format == "csv"
                else experiments.rows_to_json(rows))
        if args.out:
            _write_out(args.out, text)
        else:
            _write_stdout(text)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for msg in problems:
        print(f"assertion failed: {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
