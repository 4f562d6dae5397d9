"""Time one cold set-up in a fresh interpreter: import cuckooprf, then make
the workload's smallest call, which fills the lazy field tables and the
constant-multiplier cache that a cold CLI call pays for.

    python3 bench/setup_probe.py WORKLOAD SEED [UNTRACED_CALL_S]

Prints one JSON line. Without UNTRACED_CALL_S it holds import_s,
call_s and the host's reference time just before (hostspeed.py). With
it the call runs under the layer tracer instead, and the line holds the
call's counts and its layer times scaled to UNTRACED_CALL_S. run.py
puts the source tree on the path through PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from hostspeed import reference_s


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    reference = reference_s()
    start = perf_counter()
    import cuckooprf.cli  # noqa: F401  (timed: import is part of set-up)
    import_s = perf_counter() - start

    from workloads import WORKLOADS, call_cli
    w = WORKLOADS[name]
    if len(argv) < 3:
        result = call_cli(w.setup_argv(seed))
        out = {"import_s": import_s, "call_s": result.seconds, "reference_s": reference}
    else:
        import layertrace
        cost = layertrace.HookCost.measure()
        tracer = layertrace.Tracer()
        result = call_cli(w.setup_argv(seed), tracer.run)
        out = {"counts": dict(tracer.counts),
               "times": dict(tracer.times(float(argv[2]), cost))}
    if result.error is not None or result.exit_code != 0:
        print(f"set-up call failed: {result.error or result.stderr}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
