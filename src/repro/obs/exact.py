"""Exact sums of simulated floats as plain ints at one shared exponent.

Every finite IEEE-754 double is a dyadic rational ``m * 2**e`` with
``e >= -1074`` (the subnormal floor), so ``x * 2**1074`` is an *integer*
for every one of them. The ledger and the lineage recorder therefore
accumulate simulated times and CPU samples as Python ints in units of
``2**-1074`` seconds: integer addition is exact and associative, needs no
gcd per step (as ``fractions.Fraction`` addition does), and a sum is
turned into a float only when a payload needs one — by int/int true
division, which CPython rounds correctly, so the float equals
``float(Fraction(total, ONE))`` bit for bit.
"""

from __future__ import annotations

from typing import Any

__all__ = ["FIXED_BITS", "ONE", "SHIFT", "to_fixed"]

#: Binary exponent shared by every fixed-point value: one unit is 2**-1074.
FIXED_BITS = 1074

#: The fixed-point value of 1.0.
ONE = 1 << FIXED_BITS

#: ``n << (SHIFT - d.bit_length())`` scales ``n / d`` (``d`` a power of
#: two, so ``d.bit_length() - 1`` is its exponent) to fixed point. Hot
#: loops inline this instead of calling :func:`to_fixed`.
SHIFT = FIXED_BITS + 1


def to_fixed(x: Any) -> int:
    """``x * 2**1074`` as an exact int, for a float or an int ``x``.

    Raises ``ValueError`` for a rational whose denominator is not a
    power of two (it has no exact fixed-point value) and for NaN;
    ``OverflowError`` for an infinity.
    """
    n, d = x.as_integer_ratio()
    if d & (d - 1):
        raise ValueError(f"{x!r} is not a dyadic rational")
    return n << (SHIFT - d.bit_length())
