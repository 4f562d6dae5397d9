from cuckooprf.bits import BitString
from cuckooprf.prfcore import LazyRandomOracle
from spies import InstrumentedOracle


def test_instrumented_oracle_records_calls():
    o = InstrumentedOracle(LazyRandomOracle(1, 8, 8))
    xs = [BitString(v, 8) for v in (3, 7, 3)]
    for x in xs:
        o.query(x)
    assert o.calls == 3
    assert o.queries == [3, 7, 3]
    assert o.domain_bits == 8 and o.range_bits == 8
