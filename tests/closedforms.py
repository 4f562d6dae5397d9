"""Closed forms that the simulation tests compare against.

involution_count computes I(k), the number of involutions on k points,
exactly on ints via I(k) = I(k-1) + (k-1) I(k-2), so it is a reference
for the float ratio recurrence in games that does not share its
rounding. pp_formula writes the pp combiner out from a key's slots, so
adw_eval on a key with no inner maps is compared with no library
combiner.
"""

import math


def birthday_closed_form(q: int, bits: int) -> float:
    """Collision probability of q uniform draws from 2^bits values."""
    return 1.0 - math.exp(-q * (q - 1) / 2.0 ** (bits + 1))


def involution_count(k: int) -> int:
    """I(k): the involutions on k points, with I(0) = I(1) = 1."""
    counts = [1, 1]
    for j in range(2, k + 1):
        counts.append(counts[j - 1] + (j - 1) * counts[j - 2])
    return counts[k]


def expected_fixed_points(size: int) -> float:
    """Mean number of fixed points of a uniform involution on `size`
    points: each point is fixed in I(size-1) of the I(size) involutions."""
    return size * involution_count(size - 1) / involution_count(size)


def pp_formula(key, x: int) -> int:
    """f1(h1(x)) ^ f2(h2(x)) ^ ell(x), straight from the key's slots."""
    return (key.f1.eval_int(key.h1.eval_int(x)) ^ key.f2.eval_int(key.h2.eval_int(x))
            ^ key.ell.eval_int(x))
