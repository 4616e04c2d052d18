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
    kind: str
    strictly_monotonic: bool


ARITHMETIC = SemiringDescriptor("arithmetic", True)
TROPICAL = SemiringDescriptor("tropical", False)
ARCTIC = SemiringDescriptor("arctic", False)

SEMIRINGS = {s.kind: s for s in (ARITHMETIC, TROPICAL, ARCTIC)}


def zero(k: SemiringDescriptor) -> Weight:
    if k.kind == "arithmetic":
        return 0
    return POS_INF if k.kind == "tropical" else NEG_INF


def one(k: SemiringDescriptor) -> Weight:
    return 1 if k.kind == "arithmetic" else 0


def is_value(k: SemiringDescriptor, a: Weight) -> bool:
    if isinstance(a, bool):
        return False
    if isinstance(a, int):
        return a >= 0
    return (k.kind == "tropical" and a == POS_INF) or (
        k.kind == "arctic" and a == NEG_INF
    )


def _check(k: SemiringDescriptor, *vals: Weight) -> None:
    for a in vals:
        if not is_value(k, a):
            raise SemiringError(f"{a!r} is not a value of the {k.kind} semiring")


# (product, sum) per kind; min-plus and max-plus get the absorption
# a + (+-inf) = +-inf from float +
_PLAIN: dict[str, tuple[Callable, Callable]] = {
    "arithmetic": (operator.mul, operator.add),
    "tropical": (operator.add, min),
    "arctic": (operator.add, max),
}


def plain_ops(k: SemiringDescriptor) -> tuple[Callable, Callable]:
    """The semiring's (product, sum) on plain values, unchecked: for
    values already known to be legal, such as validated weights and
    their products."""
    return _PLAIN[k.kind]


def s_mul(k: SemiringDescriptor, a: Weight, b: Weight) -> Weight:
    _check(k, a, b)
    return _PLAIN[k.kind][0](a, b)


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
    return w >= 1 if k.kind == "arithmetic" else w >= 0

