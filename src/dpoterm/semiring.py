"""Exact arithmetic for the three well-founded commutative semirings.

Values are plain Python ints; the only floats that ever appear are the
two infinities (the tropical and arctic zero elements), for which
comparison against ints stays exact.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Union

Weight = Union[int, float]

POS_INF = float("inf")
NEG_INF = float("-inf")


class SemiringError(ValueError):
    """Illegal value or kind mismatch in a semiring operation."""


@dataclass(frozen=True)
class SemiringDescriptor:
    """A semiring (S, add, mul, zero, one) on the naturals, whose zero is
    0, +inf or -inf; one is also the least legal element weight. mul
    and add are unchecked, for values already known to be legal; min-plus
    and max-plus get a + (+-inf) = +-inf from float +."""

    kind: str
    strictly_monotonic: bool
    zero: Weight
    one: int
    mul: Callable[[Weight, Weight], Weight]
    add: Callable[[Weight, Weight], Weight]


ARITHMETIC = SemiringDescriptor("arithmetic", True, 0, 1, operator.mul, operator.add)
TROPICAL = SemiringDescriptor("tropical", False, POS_INF, 0, operator.add, min)
ARCTIC = SemiringDescriptor("arctic", False, NEG_INF, 0, operator.add, max)

SEMIRINGS = {s.kind: s for s in (ARITHMETIC, TROPICAL, ARCTIC)}


def is_value(k: SemiringDescriptor, a: Weight) -> bool:
    if isinstance(a, bool):
        return False
    if isinstance(a, int):
        return a >= 0
    # the infinite zero of tropical and arctic; arithmetic's zero is an int
    return not isinstance(k.zero, int) and a == k.zero


def _check(k: SemiringDescriptor, *vals: Weight) -> None:
    for a in vals:
        if not is_value(k, a):
            raise SemiringError(f"{a!r} is not a value of the {k.kind} semiring")


def s_mul(k: SemiringDescriptor, a: Weight, b: Weight) -> Weight:
    _check(k, a, b)
    return k.mul(a, b)


def s_cmp(k: SemiringDescriptor, a: Weight, b: Weight) -> int:
    """-1, 0 or 1; the order is total for all three semirings."""
    _check(k, a, b)
    if a < b:
        return -1
    return 0 if a == b else 1


def s_le(k: SemiringDescriptor, a: Weight, b: Weight) -> bool:
    return s_cmp(k, a, b) <= 0


def s_lt(k: SemiringDescriptor, a: Weight, b: Weight) -> bool:
    return s_cmp(k, a, b) < 0


def is_legal_element_weight(k: SemiringDescriptor, w: Weight) -> bool:
    """Legality for weighted-element weights: 1 <= w != 0.

    Arithmetic: positive naturals. Tropical/arctic: finite naturals
    (numeric 0 is the semiring 1 there; the excluded 0 is the infinity).
    """
    if not isinstance(w, int) or isinstance(w, bool):
        return False
    return w >= k.one
