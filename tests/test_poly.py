"""Polynomial arithmetic, orders, parsing and linear changes."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cmlink.poly import (
    GREVLEX,
    LEX,
    LinearChange,
    MonomialOrder,
    OriginPoleError,
    ParseError,
    Polynomial,
    Ring,
    RingMismatchError,
    SingularMatrixError,
    apply_linear_change,
    block_order,
    parse_ring_header,
)

R = Ring(("x", "y", "z"))
x, y, z = R.gens()


def test_parse_and_str_round_trip():
    for text in ["x^2 - 2*x*y + y^2", "1/2*x + 3", "-x*y*z", "0"]:
        p = R.poly(text)
        assert R.poly(str(p)) == p


def test_parse_rational_literals():
    assert R.poly("2/4") == R.constant(Fraction(1, 2))
    assert R.poly("3/2*x") == x.scale(Fraction(3, 2))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        R.poly("x + w")
    assert exc.value.column == 5
    with pytest.raises(ParseError):
        R.poly("x +")
    with pytest.raises(ParseError):
        R.poly("x^y")
    with pytest.raises(ParseError):
        R.poly("1/0")


def test_slash_only_between_integers():
    with pytest.raises(ParseError):
        R.poly("x/2")
    with pytest.raises(ParseError):
        R.poly("(x+1)/2")


def test_param_coefficients_round_trip_through_text(tmp_path):
    """A printed QQ(s) matrix is a valid matrix file: entries such as
    (-1/(s-1))*x and powers printed as s**2 read back equal."""
    from cmlink.cli import read_matrix_file
    from cmlink.modules import PolyMatrix

    U = Ring(("x", "y"), ("s",))
    c = U.coeff("1/(1-s)")
    xs, ys = U.gens()
    M = PolyMatrix(
        [[xs.scale(c), U.constant(c) + ys], [U.poly("s^2/(s+2)*x*y"), U.zero()]], U
    )
    assert "(-1/(s-1))*x" in M.to_text()
    path = tmp_path / "m.mat"
    path.write_text(U.header() + "\n" + M.to_text() + "\n")
    assert read_matrix_file(str(path)) == M
    with pytest.raises(ParseError):
        U.poly("x/(1-s)")
    with pytest.raises(ParseError):
        U.poly("1/(s-s)")


def test_arithmetic_basics():
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (p - p).is_zero()
    assert x * 0 == R.zero()


def test_ring_mismatch_raises():
    other = Ring(("x", "y"))
    with pytest.raises(RingMismatchError):
        x + other.var(0)


def test_grevlex_vs_lex_leading_term():
    p = R.poly("x*y^2 + x^2")
    # grevlex: x*y^2 has higher total degree
    assert p.leading_monomial(GREVLEX) == (1, 2, 0)
    # lex: x^2 wins on the first variable
    assert p.leading_monomial(LEX) == (2, 0, 0)


def test_grevlex_classic_comparison():
    # x*z < y^2 in grevlex on (x, y, z): same degree, z is "cheaper" reversed
    assert GREVLEX.desc_key((0, 2, 0)) < GREVLEX.desc_key((1, 0, 1))


def test_block_order_eliminates_front_variables():
    order = block_order(1)
    # any monomial containing x beats any x-free monomial
    assert order.desc_key((1, 0, 0)) < order.desc_key((0, 5, 5))


def reference_desc_key(order, exps):
    """The sort-key formulas of each order kind, written out independently."""

    def grevlex(e):
        return (-sum(e), tuple(reversed(e)))

    if order.kind == "grevlex":
        return grevlex(exps)
    if order.kind == "lex":
        return tuple(-e for e in exps)
    return (grevlex(exps[: order.block]), grevlex(exps[order.block :]))


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1), block_order(2)],
                         ids=["grevlex", "lex", "block1", "block2"])
def test_desc_key_matches_reference_formulas(order):
    rng = random.Random(29)
    for _ in range(300):
        n = rng.choice((3, 4))
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = a if rng.random() < 0.1 else tuple(rng.randint(0, 3) for _ in range(n))
        assert order.desc_key(a) == reference_desc_key(order, a)
        assert order.desc_key(b) == reference_desc_key(order, b)
        # a total order: equal keys only for equal monomials
        assert (order.desc_key(a) == order.desc_key(b)) == (a == b)


def test_order_key_values_are_pinned():
    assert GREVLEX.desc_key((1, 2, 0)) == (-3, (0, 2, 1))
    assert LEX.desc_key((1, 2, 0)) == (-1, -2, 0)
    assert block_order(1).desc_key((1, 2, 0)) == ((-1, (1,)), (-2, (0, 2)))
    assert block_order(2).desc_key((1, 2, 0)) == ((-3, (2, 1)), (0, (0,)))


def test_orders_are_plain_data():
    assert MonomialOrder("block", 2) == block_order(2) != block_order(1)
    assert hash(MonomialOrder("block", 2)) == hash(block_order(2))
    assert GREVLEX != LEX
    for bad in [("deglex",), ("block", 0)]:
        with pytest.raises(ValueError):
            MonomialOrder(*bad)


def test_param_ring_coefficients():
    S = Ring(("X", "Z"), ("Y",))
    p = S.poly("X^2 - Y*X^2")
    lead = p.coefficient_in(0, 2)
    assert lead.is_constant()
    assert S.coeff_at_origin(lead.constant_term()) == 1
    q = p.scale(1 / lead.constant_term())
    assert q.coefficient_in(0, 2) == S.one()


def test_param_ring_hash_agrees_with_equality():
    """Equal values hash alike: polynomials built two ways, and a constant and its number."""
    U = Ring(("x",), ("s",))
    a = U.constant("(s+1)**2")
    b = U.constant("s**2+2*s+1")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for ring in (R, U):
        for c in (0, 1, -2, Fraction(1, 2)):
            p = ring.constant(c)
            assert p == c
            assert hash(p) == hash(c)
            assert len({p, c}) == 1
        assert hash(ring.poly("2*x + 1")) == hash(ring.poly("1 + x*2"))
        assert len({hash(ring.poly(t)) for t in ("0", "1", "x", "2*x", "x^2")}) == 5
    assert U.constant("s") != 0 and U.constant("s") != 1


def test_param_ring_coefficients_are_canonical():
    """One coefficient built several ways gives one polynomial: equal, hash
    alike, one set element and one printed form, whatever the signs."""
    U = Ring(("x",), ("s", "t"))
    x_ = U.var("x")
    s_ = sympy.Symbol("s")
    s = U.coeff(s_)
    ways = [
        U.coeff(1 / (1 - s_)),
        U.coeff(-1 / (s_ - 1)),
        U.coeff(1) / (U.coeff(1) + -s),
    ]
    half, third = U.coeff(Fraction(1, 2)), U.coeff(Fraction(1, 3))
    ratio = (s * half) / (s * third + U.coeff(1))
    for group in (ways, [ratio, U.coeff("3*s/(2*s+6)")]):
        polys = [x_.scale(c) + U.constant(c) for c in group]
        assert all(p == polys[0] for p in polys)
        assert len({hash(p) for p in polys}) == 1
        assert len(set(polys)) == 1
        assert len({str(p) for p in polys}) == 1
    assert str(U.constant(ways[0])) == "(-1/(s-1))"


def test_coefficient_division_by_zero_raises_in_both_fields():
    for ring in (R, Ring(("x",), ("s", "t"))):
        a = ring.coeff(3)
        with pytest.raises(ZeroDivisionError):
            a / ring.coeff(0)
        with pytest.raises(ZeroDivisionError):
            a / (a + -a)


def test_coefficient_text_is_parsed_not_evaluated():
    """Text reaches the field through the ideal-file grammar, free of ring
    variables; a Python expression or a decimal is a ParseError."""
    U = Ring(("x",), ("s",))
    x_ = U.var("x")
    with pytest.raises(ParseError):
        U.coeff("(lambda: 7)()")
    with pytest.raises(ParseError):
        R.coeff("1.5")
    for ring, text in ((U, "s*x"), (U, "s + x^2"), (R, "y^0*x")):
        with pytest.raises(ValueError, match="involves a ring variable"):
            ring.coeff(text)
    with pytest.raises(ValueError, match="involves a ring variable"):
        x_ - "x"
    assert x_ + "1/(1-s)" == x_ + U.constant(U.coeff(1 / (1 - sympy.Symbol("s"))))
    assert R.constant(" -3/6 ") == R.constant(Fraction(-1, 2))
    with pytest.raises(ValueError, match="cannot coerce"):
        U.coeff(1.5)


def test_origin_pole_detection():
    S = Ring(("X",), ("Y",))
    c = 1 / S.coeff("Y")
    with pytest.raises(OriginPoleError):
        S.coeff_at_origin(c)


def test_substitute():
    p = x**2 + y
    q = p.substitute({0: y + z})
    assert q == (y + z) ** 2 + y


def test_linear_change_roundtrip():
    change = LinearChange([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    p = R.poly("z^2 - x^2*y")
    moved = apply_linear_change(p, change)
    # z = x' + z' inverts to z' = z - x
    inverse = LinearChange([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])
    back = apply_linear_change(moved, inverse)
    assert back == p


def test_linear_change_compose_matches_sequential():
    a = LinearChange([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = LinearChange([[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    p = R.poly("x*y + z^3")
    assert apply_linear_change(p, a.compose(b)) == apply_linear_change(
        apply_linear_change(p, a), b
    )


def test_singular_change_rejected():
    with pytest.raises(SingularMatrixError):
        LinearChange([[1, 1], [1, 1]])


def test_ring_header_round_trip():
    assert parse_ring_header("ring x,y,z over QQ") == R
    S = parse_ring_header("ring X,Z over QQ(Y)")
    assert S.variables == ("X", "Z") and S.params == ("Y",)
    with pytest.raises(ParseError):
        parse_ring_header("ring over QQ")


small_polys = st.builds(
    lambda coeffs: sum(
        (Polynomial(R, {e: Fraction(c)}) for e, c in coeffs if c), R.zero()
    ),
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
            ),
            st.integers(-5, 5),
        ),
        max_size=5,
    ),
)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=30, deadline=None)
@given(small_polys, small_polys)
def test_leading_term_multiplicative(a, b):
    if a.is_zero() or b.is_zero():
        return
    la, ca = a.leading_term(GREVLEX)
    lb, cb = b.leading_term(GREVLEX)
    lab, cab = (a * b).leading_term(GREVLEX)
    assert lab == tuple(u + v for u, v in zip(la, lb))
    assert cab == ca * cb
