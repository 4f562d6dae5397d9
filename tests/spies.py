"""Call-recording and hand-written slots for the tests.

FunctionOracle wraps an int -> int function as an oracle, for keys
whose slots a test writes out by hand. InstrumentedOracle forwards eval_int to the slot it wraps (an oracle, a
hash key or any other slot) and records every query value, so a test
can count the calls a key makes and check where they land.
counting_sampler is an f_sampler that hands each builder instrumented
lazy-random oracles and keeps them; count_calls counts the calls of
one evaluation of a key a test built by hand. twin builds the one-row
numpy twin of a scalar adw key, and twin_answers answers a key's queries
from the inner values of the twin's evaluator.
"""

import dataclasses

import numpy as np

from cuckooprf import batch
from cuckooprf.combine import adw_inner_values
from cuckooprf.hashfam import RandomTable
from cuckooprf.prfcore import Oracle
from cuckooprf.transform import lazy_random_sampler


class FunctionOracle(Oracle):
    """Wrap a pure int -> int function as an oracle. It rejects a result
    that does not fit range_bits."""

    def __init__(self, fn, domain_bits: int, range_bits: int):
        super().__init__(domain_bits, range_bits)
        self._fn = fn

    def eval_int(self, x: int) -> int:
        y = self._fn(x)
        if not 0 <= y < 1 << self.range_bits:
            raise ValueError(f"wrapped function returned {y:#x}, not a {self.range_bits}-bit value")
        return y


class InstrumentedOracle(Oracle):
    """Forwarding wrapper that records call count and the query values."""

    def __init__(self, inner):
        super().__init__(inner.domain_bits, inner.range_bits)
        self.inner = inner
        self.calls = 0
        self.queries: list[int] = []

    def eval_int(self, x: int) -> int:
        self.calls += 1
        self.queries.append(x)
        return self.inner.eval_int(x)


def counting_sampler(seen: list):
    """An f_sampler that records each lazy-random oracle it draws, instrumented."""
    def f_sampler(rng, domain_bits, range_bits):
        seen.append(InstrumentedOracle(lazy_random_sampler(rng, domain_bits, range_bits)))
        return seen[-1]

    return f_sampler


def twin(key) -> batch._ADW:
    """The one-row numpy twin of an adw key whose hashes are k-wise keys,
    whose f1 and f2 are lazy-random (or instrumented ones), and whose
    bars each stack z like slots, as ColumnDraws.bar draws them: g's of
    one field and k, and tables of one length or padded views of
    lazy-random oracles of one shape."""
    ws = batch.Workspace()

    def hashes(*keys):
        coeffs = np.array([h.coeffs for h in keys], dtype=batch._uint(keys[0].width))
        return batch._Hashes(coeffs, keys[0].spec, keys[0].domain_bits,
                             keys[0].mask.bit_length(), ws)

    def lazy(oracles, view):
        seeds = np.array([getattr(o, "inner", o).seed for o in oracles], dtype=np.uint64)
        return batch._Lazy(seeds, view.domain_bits, view.range_bits, ws)

    def maps(bar):
        if isinstance(bar[0], RandomTable):
            return batch._Tables(np.array([m.entries for m in bar], dtype=np.uint64), ws)
        return lazy([m.f for m in bar], bar[0])

    bars = ((hashes(*key.gbar), maps(key.m1bar), maps(key.m2bar), maps(key.ybar)) if key.gbar
            else ((),) * 4)
    return batch._ADW(hashes(key.h1), hashes(key.h2), hashes(key.ell), *bars,
                      lazy([key.f1], key.f1), lazy([key.f2], key.f2))


def twin_answers(key, xs) -> list[int]:
    """The answers at xs read from the inner values that the evaluator of
    key's twin (batch._ADW.inner_at) gives: f1 and f2 of key asked once
    each at the two inner rows, XORed with the y row. The rows must be
    uint64 and equal adw_inner_values at each point."""
    rows = twin(key).inner_at(key.domain_bits)(np.array(xs, dtype=np.uint64))
    assert rows.dtype == np.uint64 and rows.shape == (3, 1, len(xs))
    inner = list(zip(*rows[:, 0].tolist()))
    assert inner == [adw_inner_values(key, x) for x in xs]
    return [key.f1.eval_int(a) ^ key.f2.eval_int(b) ^ y for a, b, y in inner]


def count_calls(evaluate, key, x: int) -> tuple[int, int]:
    """(underlying calls, hash calls) of evaluate(key, x) for an adw key
    (a pp key is one with no inner maps), counted on a copy of the key
    whose slots are InstrumentedOracles.

    The hashes are h1, h2, ell and each g_i; the underlying oracles
    are f1, f2 and every inner map that is not a RandomTable, which a
    lookup reaches without an underlying call."""
    hashes, fs = [], []

    def spy(slot, seen):
        if isinstance(slot, RandomTable):
            return slot
        seen.append(InstrumentedOracle(slot))
        return seen[-1]

    slots = {}
    for field in dataclasses.fields(key):
        value = getattr(key, field.name)
        seen = fs if field.name in ("f1", "f2", "m1bar", "m2bar", "ybar") else hashes
        slots[field.name] = (tuple(spy(v, seen) for v in value) if isinstance(value, tuple)
                             else spy(value, seen))
    evaluate(dataclasses.replace(key, **slots), x)
    return sum(f.calls for f in fs), sum(h.calls for h in hashes)
