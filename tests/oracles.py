"""Reference helpers the tests check the package against."""
from __future__ import annotations

from amdigraph.algebra import IntPoly


def evaluate(poly: IntPoly, x: int) -> int:
    """poly(x) by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc
