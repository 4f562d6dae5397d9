"""Call-recording oracles for the tests.

InstrumentedOracle forwards eval_int to the oracle it wraps and records
every query value, so a test can count the underlying calls a builder
makes and check where they land. counting_sampler is an f_sampler that
hands each builder instrumented lazy-random oracles and keeps them.
"""

from cuckooprf.prfcore import Oracle
from cuckooprf.transform import lazy_random_sampler


class InstrumentedOracle(Oracle):
    """Forwarding wrapper that records call count and the query values."""

    def __init__(self, inner: Oracle):
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
