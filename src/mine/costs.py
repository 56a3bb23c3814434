"""Extended-integer cost arithmetic: exact 64-bit integers plus a symbolic +infinity.

Costs are never floats and never wrap around; any intermediate sum leaving the
signed 64-bit range raises CostOverflowError.  INF absorbs addition and sits
above every finite value in the total order.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Union

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class CostOverflowError(ArithmeticError):
    """A finite cost computation left the signed 64-bit range."""


@total_ordering
class _PlusInfinity:
    """Singleton symbolic +infinity, absorbing under addition."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __add__(self, other):
        if isinstance(other, (int, _PlusInfinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __lt__(self, other):
        if isinstance(other, (int, _PlusInfinity)):
            return False
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, _PlusInfinity)

    def __hash__(self):
        return hash("mine.costs.INF")

    def __reduce__(self):
        return (_PlusInfinity, ())


INF = _PlusInfinity()

Cost = Union[int, _PlusInfinity]


def is_finite(c: Cost) -> bool:
    return not isinstance(c, _PlusInfinity)


def check_range(v: int) -> int:
    if not (I64_MIN <= v <= I64_MAX):
        raise CostOverflowError(f"cost {v} outside signed 64-bit range")
    return v


def ext_add(a: Cost, b: Cost) -> Cost:
    """Add two extended costs; INF absorbs, finite overflow raises."""
    if isinstance(a, _PlusInfinity) or isinstance(b, _PlusInfinity):
        return INF
    return check_range(a + b)
