"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest
import sympy
from sympy.polys.fields import FracElement

from cmlink import complexes
from cmlink.poly import Ring


def former_coeff(ring, value):
    """`Ring.coeff` as it read text and sympy expressions through `sympify`,
    kept as the reference of the parser-based reader."""
    field = ring.field
    if field is None:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, sympy.Expr) and value.is_Rational:
            return Fraction(int(value.p), int(value.q))
        raise ValueError(f"cannot coerce {value!r} into QQ")
    if isinstance(value, FracElement) and value.field == field:
        return value
    if isinstance(value, (int, Fraction)):
        return field.ground_new(sympy.QQ(value.numerator, value.denominator))
    expr = sympy.sympify(value)
    bad = expr.free_symbols - set(field.symbols)
    if bad:
        raise ValueError(f"coefficient uses non-parameter symbols {bad}")
    element = field.from_expr(expr)
    return field.new(element.numer, element.denom)


@pytest.fixture(autouse=True)
def coefficients_read_as_before(monkeypatch):
    """Every coefficient text and sympy expression that a test passes to
    `Ring.coeff`, once accepted, is the element `former_coeff` gives."""
    reader = Ring.coeff

    def checked(ring, value):
        c = reader(ring, value)
        if isinstance(value, (str, sympy.Basic)):
            assert c == former_coeff(ring, value), value
        return c

    monkeypatch.setattr(Ring, "coeff", checked)


@pytest.fixture
def syzygy_steps(monkeypatch):
    """A list that gets the order of every syzygy step a resolution takes."""
    steps = []
    original = complexes.syzygy_matrix

    def counting(M, order):
        steps.append(order)
        return original(M, order)

    monkeypatch.setattr(complexes, "syzygy_matrix", counting)
    return steps
