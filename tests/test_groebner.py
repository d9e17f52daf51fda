"""Division, Buchberger, ideal operations and dimension counting."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cmlink import groebner
from cmlink.groebner import (
    GREVLEX,
    Ideal,
    buchberger,
    divide_exact,
    eliminate,
    ideal_codim,
    ideal_colon,
    ideal_intersect,
    ideal_member,
    ideal_sum,
    normal_form,
    s_polynomial,
)
from cmlink.poly import LEX, MonomialOrder, Polynomial, Ring

R = Ring(("x", "y", "z"))
x, y, z = R.gens()


def gens(*texts):
    return [R.poly(t) for t in texts]


def test_division_identity():
    f = R.poly("x^2*y + x*y^2 + y^2")
    divisors = gens("x*y - 1", "y^2 - 1")
    res = normal_form(f, divisors, GREVLEX)
    rebuilt = R.zero()
    for q, d in zip(res.quotients, divisors):
        rebuilt = rebuilt + q * d
    assert rebuilt + res.remainder == f
    # remainder has no term divisible by any divisor leading monomial
    for mono in res.remainder.terms:
        for d in divisors:
            lm = d.leading_monomial(GREVLEX)
            assert not all(m >= l for m, l in zip(mono, lm))


def test_s_polynomial_cancels_leads():
    f, g = gens("x^2*y - 1", "x*y^2 - x")
    s = s_polynomial(f, g, GREVLEX)
    # the common lead x^2*y^2 cancels
    assert s.leading_monomial(GREVLEX) != (2, 2, 0)


def test_buchberger_fixed_point():
    gb = buchberger(gens("x^2 + y", "x*y - z"), GREVLEX)
    again = buchberger(gb, GREVLEX)
    assert Ideal(gb).equals(Ideal(again))
    assert sorted(str(p) for p in gb) == sorted(str(p) for p in again)


def test_known_lex_groebner_basis():
    # classical example: twisted-cubic-style elimination
    S = Ring(("t", "x", "y", "z"))
    t, X, Y, Z = S.gens()
    gb = Ideal([X - t, Y - t**2, Z - t**3]).groebner_basis(LEX)
    low = eliminate(Ideal([X - t, Y - t**2, Z - t**3]), 1)
    assert Ideal(low.gens).equals(
        Ideal([S.poly("x^2 - y"), S.poly("x*y - z"), S.poly("y^2 - x*z")])
    )
    assert len(gb) >= 3


def test_membership():
    I = Ideal(gens("y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"))
    assert I.contains(R.poly("x^4 - x*y*z"))  # x*(x^3 - y*z) + ...
    assert not I.contains(x)
    assert ideal_member(R.poly("x*(y^2 - x*z)"), I)
    assert not ideal_member(y, I)


def test_unit_and_zero_ideals():
    assert Ideal([R.one()]).is_unit()
    assert Ideal(gens("x", "x + 1")).is_unit()
    assert Ideal([], R).is_zero()
    assert Ideal([R.zero()]).is_zero()


def test_intersect():
    I = Ideal(gens("x"))
    J = Ideal(gens("y"))
    K = ideal_intersect(I, J)
    assert K.equals(Ideal(gens("x*y")))


def test_colon_simple():
    I = Ideal(gens("x*y", "x*z"))
    Q = ideal_colon(I, Ideal(gens("x")))
    assert Q.equals(Ideal(gens("y", "z")))


def test_colon_curve_link():
    I = Ideal(gens("z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"))
    J = Ideal(gens("y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"))
    K = ideal_colon(I, J)
    expected = ideal_sum(I, Ideal(gens("x^3 - y*z", "y^2 - x*z")))
    assert K.equals(expected)
    # linkage is an involution here: I : (I : J) == J
    back = ideal_colon(I, K)
    assert back.equals(J)


def test_divide_exact():
    q = divide_exact(R.poly("x^2*y - x*y"), R.poly("x*y"))
    assert q == x - R.one()
    with pytest.raises(ArithmeticError):
        divide_exact(R.poly("x + 1"), x)


def test_codim():
    assert ideal_codim(Ideal(gens("x"))) == 1
    assert ideal_codim(Ideal(gens("x", "y"))) == 2
    assert ideal_codim(Ideal(gens("x", "y", "z"))) == 3
    assert ideal_codim(Ideal(gens("x*z", "y*z"))) == 1
    curve = Ideal(gens("y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"))
    assert ideal_codim(curve) == 2
    # sentinels: unit ideal -> n + 1, zero ideal -> 0
    assert ideal_codim(Ideal([R.one()])) == 4
    assert ideal_codim(Ideal([], R)) == 0


def test_groebner_cache_per_order():
    I = Ideal(gens("x^2 + y", "x*y - z"))
    g1 = I.groebner_basis(GREVLEX)
    g2 = I.groebner_basis(GREVLEX)
    assert g1 is g2
    g3 = I.groebner_basis(LEX)
    assert g3 is not g1


def test_equal_orders_share_the_cached_basis(monkeypatch):
    """An order built again from its kind is the same cache key: no second basis."""
    assert MonomialOrder("lex") == LEX
    assert hash(MonomialOrder("lex")) == hash(LEX)
    built = []
    original = groebner._reduced_basis  # `Ideal` calls modules._reduced_basis by this name

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, "_reduced_basis", counting)
    I = Ideal(gens("x^2 + y", "x*y - z"))
    gb = I.groebner_basis(LEX)
    assert len(built) == 1
    assert I.groebner_basis(MonomialOrder("lex")) is gb
    assert len(built) == 1


small_polys = st.builds(
    lambda coeffs: sum(
        (Polynomial(R, {e: Fraction(c)}) for e, c in coeffs if c), R.zero()
    ),
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
            ),
            st.integers(-4, 4),
        ),
        max_size=4,
    ),
)


@settings(max_examples=30, deadline=None)
@given(small_polys, st.lists(small_polys, min_size=1, max_size=3))
def test_division_identity_property(f, divisors):
    divisors = [d for d in divisors if not d.is_zero()]
    if not divisors:
        return
    res = normal_form(f, divisors, GREVLEX)
    rebuilt = sum((q * d for q, d in zip(res.quotients, divisors)), R.zero())
    assert rebuilt + res.remainder == f


@settings(max_examples=15, deadline=None)
@given(small_polys, small_polys)
def test_product_membership_property(f, g):
    if f.is_zero() or g.is_zero():
        return
    I = Ideal([f, g])
    assert I.contains(f * g)
    gb = I.groebner_basis(GREVLEX)
    rem = normal_form(f, gb, GREVLEX).remainder
    assert normal_form(f * g + f, gb, GREVLEX).remainder == rem


# -- differential test against sympy ------------------------------------------


def _sympy_basis(texts, order_name, order):
    """sympy's reduced Groebner basis over QQ, made monic and sorted like `buchberger`'s."""
    syms = sympy.symbols(R.variables)
    exprs = [sympy.sympify(t.replace("^", "**")) for t in texts]
    gb = []
    for p in sympy.groebner(exprs, *syms, order=order_name, domain="QQ").polys:
        g = Polynomial(R, {e: R.coeff(p.domain.to_sympy(c)) for e, c in p.terms()})
        gb.append(g.scale(1 / g.leading_term(order)[1]))
    return sorted(gb, key=lambda g: order.desc_key(g.leading_monomial(order)))


def _random_texts(rng):
    """2-3 generators in x, y, z of 2-3 terms, exponents <= 2, coefficients in ±{1,2,3}."""
    out = []
    for _ in range(rng.choice((2, 3))):
        terms = []
        for _ in range(rng.choice((2, 3))):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            exps = [rng.randint(0, 2) for _ in range(3)]
            terms.append("*".join([f"({c})"] + [f"{v}^{e}" for v, e in zip("xyz", exps) if e]))
        out.append(" + ".join(terms))
    return out


@pytest.mark.parametrize("order_name, order", [("lex", LEX), ("grevlex", GREVLEX)])
def test_buchberger_matches_sympy_on_seeded_inputs(order_name, order):
    for seed in range(40):
        texts = _random_texts(random.Random(seed))
        gb = buchberger([R.poly(t) for t in texts], order)
        expected = _sympy_basis(texts, order_name, order)
        assert [str(g) for g in gb] == [str(g) for g in expected], (seed, texts)


def test_lex_trinomial_basis_matches_sympy():
    texts = [
        "-3*x^2*y^2*z^2 - x^2*y^2*z + 2*y*z^2",
        "-2*x^2*y*z^2 - 2*x*y^2*z^2 + 3*y*z",
        "2*x^2*y*z^2 - 2*y^2*z^2 - 2*x*z",
    ]
    gb = buchberger([R.poly(t) for t in texts], LEX)
    expected = _sympy_basis(texts, "lex", LEX)
    assert [str(g) for g in gb] == [str(g) for g in expected]
    assert len(gb) == 3
