"""Per-layer time and call counts for calls into cuckooprf, from a profile hook.

Tracer.run installs a sys.setprofile hook for one call and charges the
time between Python call and return events to the running frame's
(layer, stage) bucket:

* the layer is the cuckooprf module the frame's code lives in. Frames of
  other code (numpy, the random module) inherit the layer of the frame
  that called them, so a layer's self time is the time in its own
  functions plus the library calls made directly from them;
* the stage is opened by the functions in STAGE_OF and inherited by
  everything they call, the innermost opener winning, so sampling,
  evaluation and deciding are told apart from outside the program.

A hook makes every call dearer, and call-heavy code more so than
numpy-heavy code. HookCost measures what one Python event and one C
call cost under the hook; times() takes that out of every bucket by its
event counts and then scales the buckets to the untraced wall time of
the same call. The layer and stage times are therefore estimates that
add up to the untraced time; the call counts are exact.

Nothing in the package is modified: the hook only reads frames.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import cuckooprf

PACKAGE_DIR = os.path.dirname(os.path.abspath(cuckooprf.__file__))

# Every cuckooprf module belongs to one layer; the CLI front end, the
# package's import-time code and the error types are part of the driver.
LAYERS = ("bits", "gf", "hashfam", "prfcore", "combine", "transform", "batch",
          "games", "experiments")
LAYER_OF_MODULE = {name: name for name in LAYERS}
LAYER_OF_MODULE.update({"cli": "experiments", "__init__": "experiments",
                        "errors": "experiments"})

OUTSIDE = "outside"

_BUILDERS = ("build_pp_domain_extension", "build_adaptive_from_nonadaptive",
             "build_adw_domain_extension", "build_adw_adaptive_from_nonadaptive",
             "build_prg_prf")

# (module, qualified name) -> stage opened by that function. Besides
# sample and eval, "verdict" is a distinguisher deciding and "sd" the
# statistical-distance estimator with its uniform baseline; together
# they are the decide stage.
STAGE_OF = {
    **{("transform", name): "sample" for name in _BUILDERS},
    ("transform", "lazy_random_sampler"): "sample",
    ("experiments", "levin_sampler.<locals>.sample"): "sample",
    ("batch", "PPTupleSampler.__call__"): "sample",
    ("batch", "PPTupleSampler._derive_matrix"): "sample",
    ("hashfam", "sample_kwise"): "sample",
    ("hashfam", "sample_table"): "sample",
    ("games", "sample_involution"): "sample",
    ("bits", "derive_seed"): "sample",
    ("batch", "batch_answers"): "eval",
    ("batch", "PPTupleSampler.batch_tuples"): "eval",
    ("prfcore", "Oracle.query"): "eval",
    ("games", "_QueryGuard.__call__"): "eval",
    ("games", "tuple_uniformity_sd"): "sd",
}
# Decision closures of the distinguishers, whatever function built them.
_VERDICT_NAMES = ("decide", "decide_batch")

# (module, qualified name) -> counter bumped on every call.
COUNTED = {
    ("bits", "BitString.__post_init__"): "bits.bitstring_new",
    ("bits", "derive_seed"): "bits.derive_seed_calls",
    ("gf", "FieldSpec.mul_int"): "gf.mul_calls",
    ("hashfam", "sample_kwise"): "hashfam.sample_calls",
    ("hashfam", "sample_table"): "hashfam.sample_calls",
    ("hashfam", "eval_kwise"): "hashfam.eval_calls",
    ("prfcore", "lazy_answer"): "prfcore.lazy_calls",
    ("prfcore", "LazyRandomOracle._answer"): "prfcore.lazy_answers",
    ("combine", "pp_eval"): "combine.evals",
    ("combine", "adw_eval"): "combine.evals",
    ("combine", "PPKey.__post_init__"): "combine.keys",
    ("combine", "ADWKey.__post_init__"): "combine.keys",
    **{("transform", name): "transform.builds" for name in _BUILDERS},
    ("batch", "_ConstMul.__init__"): "batch.const_mul_builds",
    ("batch", "const_mul"): "batch.const_mul_lookups",
    ("batch", "batch_answers"): "batch.batched_attempts",
    ("games", "run_game"): "games.scalar_games",
    ("games", "run_multi_game"): "games.scalar_games",
}
# Counted when batch_answers returns a matrix rather than None.
BATCHED = "batch.batched_worlds"
RNG_CONSTRUCTIONS = "stage.rng_constructions"

_RNG_INIT = random.Random.__init__.__code__


class Tracer:
    """Accumulates (layer, stage) buckets and call counts over every call
    made inside run(). A bucket is [seconds, Python events, C calls]."""

    def __init__(self):
        self.buckets: dict = {}
        self.counts: Counter = Counter()
        self._info: dict = {}
        self._batch_answers = None

    def _bucket(self, layer, stage):
        bucket = self.buckets.get((layer, stage))
        if bucket is None:
            bucket = self.buckets[(layer, stage)] = [0.0, 0, 0]
        return bucket

    def run(self, fn, *args):
        """Call fn(*args) with the hook installed; return its result."""
        info_of, classify, counts, bucket_of = self._info, self._classify, self.counts, self._bucket
        stack = []
        layer = stage = OUTSIDE
        cur = bucket_of(layer, stage)

        def hook(frame, event, arg):
            nonlocal layer, stage, cur, last
            if event != "call" and event != "return":
                if event == "c_call":
                    cur[2] += 1
                return
            cur[0] += perf_counter() - last
            cur[1] += 1
            if event == "call":
                code = frame.f_code
                info = info_of.get(code)
                if info is None:
                    info = info_of[code] = classify(frame)
                new_layer, new_stage, counter = info
                stack.append((layer, stage, cur))
                if new_layer is not None or new_stage is not None:
                    layer = new_layer or layer
                    stage = new_stage or stage
                    cur = bucket_of(layer, stage)
                if counter is not None:
                    counts[counter] += 1
            elif stack:
                layer, stage, cur = stack.pop()
                if arg is not None and frame.f_code is self._batch_answers:
                    counts[BATCHED] += 1
            last = perf_counter()

        last = perf_counter()
        sys.setprofile(hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    def _classify(self, frame):
        code = frame.f_code
        if code is _RNG_INIT:
            return None, "sample", RNG_CONSTRUCTIONS
        module, qualname = _locate(frame)
        if module is None:
            return None, None, None
        key = (module, qualname)
        if key == ("batch", "batch_answers"):
            self._batch_answers = code
        stage = STAGE_OF.get(key)
        if module == "games" and code.co_name in _VERDICT_NAMES:
            stage = "verdict"
        return LAYER_OF_MODULE.get(module, "experiments"), stage, COUNTED.get(key)

    def times(self, untraced_s: float, cost: "HookCost") -> Counter:
        """Seconds per "layer:<name>" and "stage:<name>", corrected for the
        hook and scaled to add up to untraced_s."""
        corrected = {key: max(0.0, t - events * cost.per_event - ccalls * cost.per_c_call)
                     for key, (t, events, ccalls) in self.buckets.items()}
        total = sum(corrected.values())
        scale = untraced_s / total if total > 0 else 0.0
        out = Counter()
        for (layer, stage), t in corrected.items():
            out["layer:" + layer] += t * scale
            out["stage:" + stage] += t * scale
        return out


def _locate(frame):
    """(module, qualified name) of a cuckooprf frame, or (None, None).

    Methods that dataclasses generate have no source file; they belong
    to the module of the class of their self argument.
    """
    code = frame.f_code
    if os.path.dirname(code.co_filename) == PACKAGE_DIR:
        return os.path.basename(code.co_filename)[:-3], code.co_qualname
    if code.co_filename == "<string>":
        owner = type(frame.f_locals.get("self"))
        parts = owner.__module__.split(".")
        if len(parts) == 2 and parts[0] == "cuckooprf":
            return parts[1], f"{owner.__qualname__}.{code.co_name}"
    return None, None


@dataclass(frozen=True)
class HookCost:
    """Seconds the hook adds to the traced clock per Python event and
    per C call, measured on loops of trivial calls."""

    per_event: float
    per_c_call: float

    @classmethod
    def measure(cls, n: int = 200_000) -> "HookCost":
        def python_calls():
            for _ in range(n):
                _noop()

        def c_calls():
            empty = ()
            for _ in range(n):
                len(empty)

        extra = []
        for loop in (python_calls, c_calls):
            start = perf_counter()
            loop()
            untraced = perf_counter() - start
            tracer = Tracer()
            tracer.run(loop)
            traced = sum(t for t, _, _ in tracer.buckets.values())
            extra.append(max(0.0, traced - untraced) / n)
        # a Python call is two events, a call and a return
        return cls(per_event=extra[0] / 2, per_c_call=extra[1])


def _noop():
    pass


# Derived from a unit's counts, not emitted themselves.
_INTERNAL_COUNTS = ("batch.batched_attempts", BATCHED, "games.scalar_games")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(counts, times) -> dict:
    """Per-layer metrics of one traced call, by name, from its counts and
    its times(). A ratio whose base is 0 reads 0.0; the base is emitted
    next to it."""
    counts, times = Counter(counts), Counter(times)
    m = {f"{layer}.self_s": times["layer:" + layer] for layer in LAYERS}
    for name in sorted(set(COUNTED.values()) | {RNG_CONSTRUCTIONS}):
        if name not in _INTERNAL_COUNTS:
            m[name] = counts[name]
    # every lazy_answer call is a memo miss of a lazy-random oracle
    answers, lookups = counts["prfcore.lazy_answers"], counts["batch.const_mul_lookups"]
    m["prfcore.memo_hit_frac"] = _share(answers - counts["prfcore.lazy_calls"], answers)
    m["batch.const_mul_hit_frac"] = _share(lookups - counts["batch.const_mul_builds"], lookups)
    worlds = counts["batch.batched_attempts"] + 2 * counts["games.scalar_games"]
    m["batch.worlds"] = worlds
    m["batch.batched_frac"] = _share(counts[BATCHED], worlds)
    m["games.decide_s"] = times["stage:verdict"]
    m["games.sd_s"] = times["stage:sd"]
    m["stage.sample_s"] = times["stage:sample"]
    m["stage.eval_s"] = times["stage:eval"]
    m["stage.decide_s"] = times["stage:verdict"] + times["stage:sd"]
    return m
