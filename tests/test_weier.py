"""Weierstrass preparation, extended Euclid, resultants and the recipe."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.euclidtools import dup_inner_subresultants
from sympy.polys.rings import PolyElement, PolyRing

from cmlink import weier
from cmlink.poly import LinearChange, Polynomial, Ring, _bareiss_det, apply_linear_change
from cmlink.weier import (
    CurrentRecipe,
    NotRegularError,
    RecipeError,
    WeierstrassForm,
    current_recipe,
    extended_euclid,
    resultant_sylvester,
    weierstrass_ready,
)

S = Ring(("X", "Z"), ("Y",))
U = Ring(("x",), ("s", "t"))
R1 = Ring(("x",))
R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
RS = Ring(("x", "y", "z"), ("s",))


def test_weierstrass_plain_power():
    f = R3.poly("x^3")
    wf = weierstrass_ready(f, 0)
    assert wf.degree == 3
    assert wf.weierstrass == f
    assert wf.unit == R3.one()


def test_weierstrass_with_unit():
    # (1 - Y) X^2 + 2 X Z + Z^2: unit coefficient 1 - Y, monic part follows
    f = S.poly("X^2 - Y*X^2 + 2*X*Z + Z^2")
    wf = weierstrass_ready(f, 0)
    assert wf.degree == 2
    assert wf.unit * wf.weierstrass == f
    assert wf.weierstrass.coefficient_in(0, 2) == S.one()
    # lower coefficients of the Weierstrass polynomial vanish at the origin
    for k in range(2):
        c = wf.weierstrass.coefficient_in(0, k)
        assert c.is_zero() or not c.constant_term_at_origin()


def test_weierstrass_rejections():
    with pytest.raises(ValueError):
        weierstrass_ready(R3.zero(), 0)
    with pytest.raises(ValueError):
        weierstrass_ready(R3.one() + R3.poly("x"), 0)  # nonzero at the origin
    with pytest.raises(NotRegularError):
        weierstrass_ready(R3.poly("y^2"), 0)  # no occurrence of x
    with pytest.raises(NotRegularError) as exc:
        weierstrass_ready(R3.poly("x^2*y"), 0)  # leading coeff vanishes at 0
    assert exc.value.witness is not None
    with pytest.raises(NotRegularError):
        weierstrass_ready(R3.poly("x^2 + x"), 0)  # lower coeff is a unit


def test_the_weierstrass_test_builds_only_the_leading_coefficient(monkeypatch):
    """Lower coefficients are read off f's terms; a coefficient polynomial is
    built only for the leading one, and for the witness of a failure."""
    built = []
    original = Polynomial.coefficient_in

    def recording(p, i, k):
        built.append((i, k))
        return original(p, i, k)

    monkeypatch.setattr(Polynomial, "coefficient_in", recording)
    f = RS.poly("(2+s)*x^3 + s*x^2 + x^2*y + (1/(1-s))*x*z^2 + y*z - s*y^2")
    assert weier._weierstrass_unit(f, 0) == (3, RS.coeff("2+s"))
    assert built == [(0, 3)]
    del built[:]
    f = RS.poly("(2+s)*x^3 + x^2*y + (3 + s)*x + y*z")
    with pytest.raises(NotRegularError, match="coefficient of x\\^1 does not vanish") as exc:
        weier._weierstrass_unit(f, 0)
    assert exc.value.witness == RS.poly("(3+s)/(2+s)")
    assert built == [(0, 3), (0, 1)]


def test_euclid_coprime_linear():
    P, Q = U.poly("x - s"), U.poly("x - t")
    g, a, b = extended_euclid(P, Q, 0)
    assert g.degree_in(0) == 0 and not g.is_zero()
    assert a * P + b * Q == g


def test_euclid_shared_factor():
    P = U.poly("(x - s)*(x + t)")
    Q = U.poly("(x - s)*(x - 1)")
    g, a, b = extended_euclid(P, Q, 0)
    assert g.degree_in(0) >= 1
    assert a * P + b * Q == g


def test_euclid_rational_case():
    P, Q = R3.poly("x^2 - 1"), R3.poly("x - 1")
    g, a, b = extended_euclid(P, Q, 0)
    assert a * P + b * Q == g
    assert g.degree_in(0) == 1  # gcd is a multiple of x - 1


def reference_euclid(P, Q, var):
    """The primitive PRS loop before the subresultant recurrence.

    It pseudo-divides over QQ[others] and strips the joint content of the
    remainder and both cofactors after every step.  Returns sympy
    expressions (g, a, b) with g = a*P + b*Q.
    """
    ring = P.ring
    x = sympy.Symbol(ring.variables[var])
    others = [v for i, v in enumerate(ring.variables) if i != var] + list(ring.params)
    dom = sympy.QQ[tuple(sympy.Symbol(n) for n in others)]
    nP, dP = sympy.fraction(sympy.together(P.to_sympy()))
    nQ, dQ = sympy.fraction(sympy.together(Q.to_sympy()))
    p1 = sympy.Poly(nP, x, domain=dom)
    p2 = sympy.Poly(nQ, x, domain=dom)
    one = sympy.Poly(1, x, domain=dom)
    zero = sympy.Poly(0, x, domain=dom)
    r0, r1 = p1, p2
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        if r0.degree() >= r1.degree():
            q, r = r0.pdiv(r1)  # alpha * r0 = q * r1 + r
            alpha = r1.rep.LC() ** (r0.degree() - r1.degree() + 1)
            s_next = s0.mul_ground(alpha) - q * s1
            t_next = t0.mul_ground(alpha) - q * t1
        else:
            q, r = zero, r0
            s_next, t_next = s0, t0
        cont = dom.zero
        for p in (r, s_next, t_next):
            for c in p.rep.to_list():
                cont = dom.gcd(cont, c)
        if cont and cont != dom.one:
            r = r.quo_ground(cont)
            s_next = s_next.quo_ground(cont)
            t_next = t_next.quo_ground(cont)
        r0, r1 = r1, r
        s0, s1 = s1, s_next
        t0, t1 = t1, t_next
    return r0.as_expr(), s0.as_expr() * dP, t0.as_expr() * dQ


def assert_matches_reference(P, Q, var=0):
    """extended_euclid(P, Q) is the reference triple times one rational
    number; returns the triple."""
    g, a, b = extended_euclid(P, Q, var)
    assert a * P + b * Q == g
    ref = reference_euclid(P, Q, var)
    lam = sympy.cancel(g.to_sympy() / ref[0])
    assert lam.is_Rational and lam != 0
    for new, old in zip((g, a, b), ref):
        assert sympy.cancel(new.to_sympy() - lam * old) == 0
    return g, a, b


def subresultant_degrees(P, Q, var=0):
    """Degrees of sympy's subresultant PRS of P, Q, after checking that the
    last remainder of the Euclid loop is its last element."""
    dom = weier._euclid_domain(P.ring, var)
    p1 = weier._cleared(P, var, dom)[0]
    p2 = weier._cleared(Q, var, dom)[0]
    prs, _ = dup_inner_subresultants(p1, p2, dom)
    g, s, t = weier._subresultant_euclid(p1, p2, dom)
    assert g == prs[-1]
    return [len(r) - 1 for r in prs]


def criterion_7_pairs():
    """The 100 seeded pairs over QQ(s,t) of the criterion-7 acceptance test."""
    rng = random.Random(7)

    def rand_poly(max_var_deg, max_par_deg, max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = (rng.randint(0, max_var_deg),)
            c = rng.randint(-3, 3)
            if not c:
                continue
            expr = sympy.Integer(c)
            for sym in sympy.symbols("s t"):
                expr *= sym ** rng.randint(0, max_par_deg)
            terms[e] = expr if e not in terms else terms[e] + expr
        return Polynomial(U, {k: U.coeff(v) for k, v in terms.items() if v != 0})

    pairs = []
    while len(pairs) < 100:
        if rng.random() < 0.3:
            common = rand_poly(2, 1, 2)
            P = rand_poly(2, 1, 2) * common
            Q = rand_poly(2, 1, 2) * common
        else:
            P = rand_poly(4, 2, 3)
            Q = rand_poly(4, 2, 3)
        if P.degree_in(0) >= 1 and Q.degree_in(0) >= 1:
            pairs.append((P, Q))
    return pairs


def random_pairs(ring, seed, count, deg=4):
    """Seeded pairs with small rational coefficients and no parameters."""
    rng = random.Random(seed)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = tuple(rng.randint(0, deg if i == 0 else 2) for i in range(ring.nvars))
            terms[e] = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        return Polynomial(ring, {e: c for e, c in terms.items() if c})

    pairs = []
    while len(pairs) < count:
        P, Q = rand_poly(), rand_poly()
        if not P.is_zero() and not Q.is_zero():
            pairs.append((P, Q))
    return pairs


@pytest.mark.parametrize(
    "pairs",
    [criterion_7_pairs, lambda: random_pairs(R2, 21, 20), lambda: random_pairs(R1, 11, 30)],
    ids=["criterion-7 over QQ(s,t)", "QQ[x,y]", "QQ[x]"],
)
def test_euclid_matches_primitive_prs_reference(pairs):
    for P, Q in pairs():
        assert_matches_reference(P, Q)
        subresultant_degrees(P, Q)


def test_euclid_edge_cases():
    # deg P < deg Q, and equal degrees
    assert_matches_reference(U.poly("x - s"), U.poly("x^3 + t*x - 1"))
    assert_matches_reference(U.poly("x^2 + s*x + 1"), U.poly("2*x^2 - t"))
    # Q divides P: (Q, 0, 1) up to one factor
    Q = U.poly("x - s")
    g, a, b = assert_matches_reference(U.poly("(x - s)*(x + t)"), Q)
    assert a.is_zero() and b.is_constant() and g == Q * b
    # a constant operand, first and second
    P = U.poly("s + t")
    g, a, b = assert_matches_reference(P, U.poly("x^2 - s"))
    assert b.is_zero() and a.is_constant() and g == P * a
    g, a, b = assert_matches_reference(R1.poly("x^2 - 1"), R1.poly("3"))
    assert g == R1.one() and a.is_zero() and b == R1.poly("1/3")


def test_euclid_abnormal_middle_step():
    # a remainder degree drop of 2 after the first step takes the
    # (-lc)^d / c^(d-1) update of c, which the next step's beta uses
    rng = random.Random(10)

    def rand_poly(deg):
        terms = {(deg, 0): Fraction(1)}
        for k in range(deg):
            for j in range(2):
                c = rng.choice((-1, 0, 0, 1))
                if c:
                    terms[(k, j)] = Fraction(c)
        return Polynomial(R2, terms)

    for _ in range(200):
        P, Q = rand_poly(5), rand_poly(4)
        degrees = subresultant_degrees(P, Q)
        if any(a - b > 1 for a, b in zip(degrees[1:-2], degrees[2:-1])):
            break
    assert degrees == [5, 4, 2, 1, 0]
    assert_matches_reference(P, Q)


def test_euclid_is_canonical():
    cases = criterion_7_pairs()[:20] + random_pairs(R2, 21, 10) + [
        (U.poly("x^2 + s*x + 1"), U.poly("2*x^2 - t")),
        (R1.poly("x^3 - 1/2*x"), R1.poly("2/3*x^2 + 1")),
    ]
    swapped = 0
    for P, Q in cases:
        g, a, b = extended_euclid(P, Q, 0)
        assert extended_euclid(P.scale(-3), Q, 0) == (g, a.scale(Fraction(-1, 3)), b)
        if P.degree_in(0) == Q.degree_in(0) and a.is_zero():
            continue  # associates, below
        assert extended_euclid(Q, P, 0) == (g, b, a)
        swapped += 1
    assert swapped >= 25
    # associates of equal degree: g comes from the second operand, a = 0
    P, Q = U.poly("3*s*t^2*x"), U.poly("s*t*x")
    assert extended_euclid(P, Q, 0) == (Q, U.zero(), U.one())
    assert extended_euclid(Q, P, 0) == (U.poly("s*t^2*x"), U.zero(), U.poly("1/3"))


def _pairs_with_parameter_denominators():
    """Ten criterion-7 pairs scaled by coefficients with parameter denominators."""
    dP, dQ = U.coeff("1/(s+1)"), U.coeff("(t-2)/(3*s*t+1)")
    return [(P.scale(dP), Q.scale(dQ)) for P, Q in criterion_7_pairs()[:10]]


def test_euclid_and_resultant_coefficients_are_canonical():
    # the Euclid and Sylvester outputs are built as integer numerators over 1
    # without field.new's cancel; each must be the canonical element that
    # field.new gives.  The denominator lcm is the QQ[params] element that
    # clearing multiplies by: every coefficient denominator divides it
    field = U.field

    def assert_canonical(c):
        canon = field.new(c.numer, c.denom)
        assert (c.numer, c.denom) == (canon.numer, canon.denom), c

    for P, Q in criterion_7_pairs() + _pairs_with_parameter_denominators():
        for p in (*extended_euclid(P, Q, 0), resultant_sylvester(P, Q, 0)):
            for c in p.terms.values():
                assert_canonical(c)
        for p in (P, Q):
            lcm = weier._param_denominator_lcm(p)
            assert lcm.ring == field.ring
            for c in p.terms.values():
                assert lcm.rem(c.denom) == 0, (lcm, c)
    p = U.poly("1/(2*s+2)*x + (t-2)/(3*s*t+1) + 1/(4*s^2+4*s)*x^2")
    s, t = field.ring.gens
    assert weier._param_denominator_lcm(p) == (4*s**2 + 4*s) * (3*s*t + 1)


def test_list_level_checks_reject_wrong_identities():
    cases = _pairs_with_parameter_denominators()[:3]
    for P, Q in cases + [(R3.poly("x^2 - 1/2*y"), R3.poly("x*z - 3"))]:
        g, a, b = extended_euclid(P, Q, 0)
        assert weier.bezout_holds(a, P, b, Q, g, 0)
        assert not weier.bezout_holds(a, P, b, Q, g.scale(2), 0)
        assert not weier.bezout_holds(a + Q, P, b, Q, g, 0)
    f = RS.poly("(1/(1+s))*x^2 + s*y")
    wf = weierstrass_ready(f, 0)
    assert wf.unit == RS.constant(RS.coeff("1/(1+s)"))
    with pytest.raises(ValueError):
        WeierstrassForm(f, wf.unit.scale(RS.coeff("s+2")), wf.weierstrass, wf.degree, 0)


def test_resultant_linear_pair():
    P, Q = U.poly("x - s"), U.poly("x - t")
    res = resultant_sylvester(P, Q, 0)
    # res vanishes exactly on s = t
    assert res == U.poly("t - s") or res == U.poly("s - t")


def test_resultant_vanishes_iff_common_factor():
    assert resultant_sylvester(R3.poly("x^2 - 1"), R3.poly("x - 1"), 0).is_zero()
    assert not resultant_sylvester(R3.poly("x^2 - 1"), R3.poly("x - 2"), 0).is_zero()
    with pytest.raises(ValueError):
        resultant_sylvester(R3.poly("y"), R3.poly("x"), 0)


def test_resultant_agrees_with_euclid_sample():
    rng = random.Random(9)
    for _ in range(10):
        coeffs = [
            [rng.randint(-2, 2) for _ in range(3)] for _ in range(2)
        ]
        P = U.poly("x^2") + U.poly("x").scale(coeffs[0][0]) + U.poly("s").scale(
            coeffs[0][1]
        ) + U.constant(Fraction(coeffs[0][2]))
        Q = U.poly("x^2") + U.poly("x*t").scale(coeffs[1][0]) + U.constant(
            Fraction(coeffs[1][1])
        )
        g, a, b = extended_euclid(P, Q, 0)
        res = resultant_sylvester(P, Q, 0)
        assert a * P + b * Q == g
        if g.degree_in(0) >= 1:
            assert res.is_zero()
        else:
            assert not res.is_zero()
            assert not g.is_zero()


def reference_sylvester_det(pc, qc, dom):
    """Fraction-free Bareiss determinant of the Sylvester matrix of two dense
    polynomials over dom, pc's rows first: `weier`'s Sylvester determinant
    before the subresultant PRS."""
    m, n = len(pc) - 1, len(qc) - 1
    size = m + n
    mat = [[dom.zero for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for k in range(m + 1):
            mat[i][i + k] = pc[k]
    for j in range(m):
        for k in range(n + 1):
            mat[n + j][j + k] = qc[k]
    # PolyElement.exquo divides once; the domain's exquo takes a remainder first
    return _bareiss_det(mat, dom.one, lambda c: not c, PolyElement.exquo)


def reference_domain(ring, var):
    """ZZ[others] built afresh, never from the Ring's memo."""
    names = [v for i, v in enumerate(ring.variables) if i != var] + list(ring.params)
    return sympy.ZZ[tuple(sympy.Symbol(n) for n in names)]


def reference_resultant(P, Q, var):
    """`resultant_sylvester(P, Q, var)` by `reference_sylvester_det` over
    `reference_domain`: the determinant over kP^n * kQ^m, with kP, kQ the
    scales that clear P and Q."""
    dom = reference_domain(P.ring, var)
    pc, num_p, den_p = weier._cleared(P, var, dom)
    qc, num_q, den_q = weier._cleared(Q, var, dom)
    m, n = len(pc) - 1, len(qc) - 1
    det = reference_sylvester_det(pc, qc, dom)
    return weier._from_poly_coeffs([det * (den_p**n * den_q**m)], P.ring, var,
                                   num_p**n * num_q**m)


RST = Ring(("x", "y"), ("s",))


def resultant_pairs(ring, var, seed, count, coeffs):
    """`count` seeded pairs of degrees 1-5 in `var`, cycling through all 25
    degree pairs; every fifth pair shares a factor of degree 1 or 2 in var.
    Coefficients are `coeffs(rng)`."""
    rng = random.Random(seed)

    def rand_poly(deg):
        lead = tuple(deg if i == var else rng.randint(0, 1) for i in range(ring.nvars))
        terms = {lead: coeffs(rng)}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, deg - 1) if i == var else rng.randint(0, 2)
                      for i in range(ring.nvars))
            terms[e] = coeffs(rng)
        return Polynomial(ring, {e: c for e, c in terms.items() if c})

    pairs = []
    for k in range(count):
        dp, dq = 1 + k % 5, 1 + k // 5 % 5
        if k % 5 == 4:
            dc = rng.randint(1, min(2, dp, dq))
            common = rand_poly(dc)
            P = (rand_poly(dp - dc) if dp > dc else ring.one()) * common
            Q = (rand_poly(dq - dc) if dq > dc else ring.one()) * common
        else:
            P, Q = rand_poly(dp), rand_poly(dq)
        assert (P.degree_in(var), Q.degree_in(var)) == (dp, dq)
        pairs.append((P, Q, k % 5 == 4))
    return pairs


def _rational(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _parameter_monomial(params):
    def coeff(rng):
        c = _rational(rng)
        for sym in params:
            c *= sym ** rng.randint(0, 1)
        return c
    return coeff


def _parameter_denominators(rng):
    s = sympy.Symbol("s")
    return _rational(rng) * s ** rng.randint(0, 1) / rng.choice((1, 1, s + 1, 2 * s - 3))


@pytest.mark.parametrize(
    "ring, var, seed, coeffs",
    [
        (R2, 0, 41, _rational),
        (R2, 1, 42, _rational),
        (U, 0, 43, _parameter_monomial(sympy.symbols("s t"))),
        (RST, 0, 44, _parameter_denominators),
        (RST, 1, 45, _parameter_denominators),
    ],
    ids=["QQ[x,y] in x", "QQ[x,y] in y", "QQ(s,t)[x]", "QQ(s)[x,y] in x", "QQ(s)[x,y] in y"],
)
def test_resultant_matches_the_bareiss_reference(ring, var, seed, coeffs):
    # 5 x 50 = 250 pairs; the determinants are compared on lists cleared
    # over the Ring's memoized domain and over a fresh one
    pairs = resultant_pairs(ring, var, seed, 50, lambda rng: ring.coeff(coeffs(rng)))
    dom, ref_dom = weier._euclid_domain(ring, var), reference_domain(ring, var)
    odd_swaps = 0
    for P, Q, shared in pairs:
        pc, qc = weier._cleared(P, var, dom)[0], weier._cleared(Q, var, dom)[0]
        det = reference_sylvester_det(weier._cleared(P, var, ref_dom)[0],
                                      weier._cleared(Q, var, ref_dom)[0], ref_dom)
        assert weier._sylvester_det(pc, qc, dom) == det
        res = resultant_sylvester(P, Q, var)
        assert res == reference_resultant(P, Q, var)
        assert res.is_zero() or not shared
        m, n = P.degree_in(var), Q.degree_in(var)
        odd_swaps += m < n and m * n % 2 == 1 and not res.is_zero()
    assert odd_swaps >= 2


def test_integer_rings_are_built_once_per_ring(monkeypatch):
    ring = Ring(("x", "y"), ("s",))
    assert weier._euclid_domain(ring, 0) is weier._euclid_domain(ring, 0)
    assert weier._euclid_domain(ring, 1) is not weier._euclid_domain(ring, 0)
    assert [str(g) for g in weier._euclid_domain(ring, 1).gens] == ["x", "s"]
    assert [str(g) for g in weier._euclid_domain(ring, 0).gens] == ["y", "s"]
    P = ring.poly("(1/(1+s))*x^3 - y*x + s")
    Q = ring.poly("(s/(2-s))*x^2 + x*y - 1")

    def both():
        return extended_euclid(P, Q, 0), resultant_sylvester(P, Q, 0)

    first = both()
    built = []
    original = PolyRing.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(PolyRing, "__new__", counting)
    assert both() == first
    assert built == []
    # a new Ring, equal to the first, builds its own domains
    twin = Ring(("x", "y"), ("s",))
    assert twin == ring and hash(twin) == hash(ring)
    dom = weier._euclid_domain(twin, 0)
    assert dom == weier._euclid_domain(ring, 0) and dom is not weier._euclid_domain(ring, 0)
    assert built


def test_recipe_linear_pair():
    R2 = Ring(("x", "y"))
    rec = current_recipe(R2.poly("x"), R2.poly("y"))
    assert rec.n1 == 1 and rec.n2 == 1
    assert rec.r2 == rec.ring.poly("y")
    assert rec.a * rec.g1 + rec.b * rec.g2 == rec.r2
    assert rec.gamma == 2
    assert rec.c1 == Fraction(math.factorial(2))
    assert rec.c2 == Fraction(2)


def test_recipe_pure_powers():
    R2 = Ring(("x", "y"))
    rec = current_recipe(R2.poly("x^2"), R2.poly("y^3"))
    assert rec.n1 == 2 and rec.n2 == 3
    assert rec.r2 == rec.ring.poly("y^3")
    assert rec.gamma == 4
    assert rec.c1 == Fraction(math.factorial(8))
    assert rec.c2 == Fraction(math.factorial(8), math.factorial(3))
    # g2 has no occurrence of the first variable, so no Sylvester audit
    assert rec.sylvester_ratio is None


def test_recipe_curve_complete_intersection():
    f1 = R3.poly("z^2 - x^2*y")
    f2 = R3.poly("x^4 - 2*x*y*z + y^3")
    rec = current_recipe(f1, f2)
    assert rec.n1 == 2
    assert rec.n2 == 8
    assert rec.gamma == 9
    assert rec.c1 == Fraction((-1) ** 18 * math.factorial(18))
    assert rec.c2 == -Fraction((-1) ** 8) * rec.c1 / math.factorial(8)
    # Bezout identity and independence from the first variable
    assert rec.a * rec.g1 + rec.b * rec.g2 == rec.r2
    assert not rec.r2.involves(0)
    # the Weierstrass forms reconstruct g1 and r2 up to their units
    assert rec.p1.coefficient_in(0, rec.n1) == rec.ring.one()
    assert rec.p2.coefficient_in(1, rec.n2) == rec.ring.one()


@pytest.mark.parametrize(
    "ring, f1, f2",
    [
        (R3, "z^2 - x^2*y", "x^4 - 2*x*y*z + y^3"),
        (R3, "z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"),
        (Ring(("x", "y"), ("s",)), "x^2 - s*y", "y^2 + x^3"),
        (Ring(("x", "y", "z"), ("s",)), "z^2 - x*y", "x^2 + (1/(1-s))*y^2 + z^3"),
    ],
    ids=["CI_SWAPPED", "curve CI", "QQ(s)", "QQ(s) denominators"],
)
def test_sylvester_ratio_is_the_exact_quotient(ring, f1, f2):
    rec = current_recipe(ring.poly(f1), ring.poly(f2))
    res = resultant_sylvester(rec.p1, rec.g2, 0)
    expected = sympy.cancel(res.to_sympy() / rec.r2.to_sympy())
    assert " " not in rec.sylvester_ratio
    assert sympy.cancel(sympy.sympify(rec.sylvester_ratio) - expected) == 0


def reference_weierstrass(f, var):
    """(u, P, N) with P = f/u scaled in the field and u*P == f checked on
    Polynomials; NotRegularError as in `weierstrass_ready`."""
    ring = f.ring
    n = f.degree_in(var)
    if n < 1:
        raise NotRegularError("no occurrence")
    lead = f.coefficient_in(var, n)
    if not lead.is_constant() or ring.coeff_at_origin(lead.constant_term()) == 0:
        raise NotRegularError("leading coefficient")
    u = lead.constant_term()
    p = f.scale(1 / u)
    if any(p.coefficient_in(var, k).constant_term_at_origin() != 0 for k in range(n)):
        raise NotRegularError("lower coefficient")
    assert ring.constant(u) * p == f
    return u, p, n


def reference_to_work(p, work):
    """p in `work`, which keeps p's first `work.nvars` variables: the bridge
    before the recipe built it from a cleared list.

    The work ring's parameters are p's other variables followed by p's
    parameters, so each coefficient is rebuilt in the field from exponent
    tuples.
    """
    ring, field, k = p.ring, work.field, work.nvars
    if field is None:
        return Polynomial(work, p.terms)
    pad = (0,) * (ring.nvars - k)
    out = {}
    for exps, c in p.terms.items():
        if ring.field is None:
            numer = {(): sympy.QQ(c.numerator, c.denominator)}
            denom = {(): sympy.QQ.one}
        else:
            numer, denom = c.numer, c.denom
        coeff = field.new(
            field.ring.from_dict({exps[k:] + m: q for m, q in numer.items()}),
            field.ring.from_dict({pad + m: q for m, q in denom.items()}),
        )
        key = exps[:k]
        if key in out:
            coeff = out[key] + coeff
        if not coeff:
            out.pop(key, None)
        else:
            out[key] = coeff
    return Polynomial(work, out)


@pytest.mark.parametrize("ring, f1, f2", [
    (R2, "x^2 - y^3", "3*x*y + (1/2)*y^2"),
    (R3, "z^2 - x^2*y", "x^4 - 2*x*y*z + y^3"),
    (RS, "(1/(1+s))*z^3 + x*y - s*x^2", "(2/(3-s^2))*y^2 + (1/5)*x*z"),
    (Ring(("x", "y", "z", "w"), ("s",)), "x*w - (s/(1+s))*y^2 + z*w^2",
     "(1/(1+s))*z^3 + (1/3)*x^2*y - s*w"),
], ids=["QQ[x,y]", "QQ[x,y,z]", "QQ(s)[x,y,z]", "QQ(s)[x,y,z,w]"])
def test_work_ring_bridge_matches_the_field_rebuild(ring, f1, f2):
    """g1, g2 built from their cleared lists equal the field rebuild, as values and as text."""
    work = weier._work_ring(ring)
    n = ring.nvars
    changes = list(weier._first_changes(n, random.Random(3), 4))
    changes += [first.compose(second) for first in changes[:2]
                for second in weier._second_changes(n, random.Random(5), 3)]
    for change in changes:
        for f in (ring.poly(f1), ring.poly(f2)):
            g = apply_linear_change(f, change)
            new, (coeffs, num, den) = weier._to_work(g, work)
            old = reference_to_work(g, work)
            assert new == old and str(new) == str(old)
            assert coeffs == weier._cleared(new, 0, weier._euclid_domain(work, 0))[0]


def reference_recipe(f1, f2, seed=0, max_tries=50):
    """`current_recipe` with its checks on Polynomials over the field.

    Euclid runs on P1 = g1/u and a is corrected by the unit afterwards; the
    Bezout identity is a Polynomial product, and the Sylvester ratio is a
    quotient of the resultant and r2 moved into QQ(variables, parameters).
    """
    ring = f1.ring
    work = weier._work_ring(ring)
    n = ring.nvars
    rng = random.Random(seed)
    attempts = 0
    found = None
    for first in weier._first_changes(n, rng, max_tries):
        if attempts >= max_tries or found is not None:
            break
        attempts += 1
        try:
            reference_weierstrass(reference_to_work(apply_linear_change(f1, first), work), 0)
        except NotRegularError:
            continue
        for second in weier._second_changes(n, rng, 8):
            if attempts >= max_tries:
                break
            attempts += 1
            change = first.compose(second)
            g1 = reference_to_work(apply_linear_change(f1, change), work)
            g2 = reference_to_work(apply_linear_change(f2, change), work)
            try:
                u, p1, n1 = reference_weierstrass(g1, 0)
                r2, a_raw, b = extended_euclid(p1, g2, 0)
                assert not r2.involves(0)
                _, p2, n2 = reference_weierstrass(r2, 1)
            except NotRegularError:
                continue
            found = first, second, change, g1, g2, p1, n1, r2, p2, n2, a_raw.scale(1 / u), b
            break
    first, second, change, g1, g2, p1, n1, r2, p2, n2, a, b = found
    assert a * g1 + b * g2 == r2
    ratio = None
    if g2.degree_in(0) >= 1:
        rational = Ring((), work.variables + work.params)
        res = reference_to_work(resultant_sylvester(p1, g2, 0), rational).constant_term()
        ratio = str(res / reference_to_work(r2, rational).constant_term()).replace(" ", "")
    gamma = n2 + 1
    c1 = Fraction((-1) ** (n1 * gamma) * math.factorial(n1 * gamma))
    return CurrentRecipe(work, first, second, change, g1, g2, p1, n1, r2, p2, n2, a, b,
                         gamma, c1, -Fraction((-1) ** n2) * c1 / math.factorial(n2), ratio)


@pytest.mark.parametrize(
    "ring, f1, f2",
    [
        (R3, "z^2 - x^2*y", "x^4 - 2*x*y*z + y^3"),
        (R3, "z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"),
        (R3, "x*y - z^2", "x^3 - y^2"),
        (R3, "x*z - y^2", "x^2 + z^3"),
        (R3, "x^3 - y*z", "y^3 - x*z"),
        (Ring(("x", "y"), ("s",)), "x^2 - s*y", "y^2 + x^3"),
        (RS, "z^2 - x*y", "x^2 + (1/(1-s))*y^2 + z^3"),
        (RS, "(2+s)*x^2 + y*z", "y^2 + x*z"),
        (RS, "(1/(1+s))*x^2 + y", "y^3 - z^2"),
        (RS, "(3/(2+s))*x^3 + y*z - x*z^2", "(1+s)*y^2 + x^2*z"),
        # g1's list has a content over the parameters, which P1's has not
        (R3, "(1+z)*(x^2 - y)", "y^2 + x*z"),
        (RS, "(1+s*z)*(x^2 - y*z)", "y^2 + s*x"),
        # under the identity r2 = y*z, whose leading coefficient in y vanishes at
        # the origin: the search retries the second change
        (R3, "x", "x + y*z"),
    ],
    ids=["CI_SWAPPED", "curve CI", "RECIPE_CIS[2]", "RECIPE_CIS[3]", "RECIPE_CIS[4]", "QQ(s)",
         "QQ(s) denominators", "QQ(s) unit", "QQ(s) unit denominator", "QQ(s) cubic",
         "content 1+z", "content 1+s*z", "second-stage retry"],
)
def test_recipe_matches_polynomial_level_reference(ring, f1, f2):
    f1, f2 = ring.poly(f1), ring.poly(f2)
    assert current_recipe(f1, f2).to_json() == reference_recipe(f1, f2).to_json()


def test_a_recipe_found_after_two_changes_applies_the_first_one_first():
    """y^2 + z^2 has no x, so the search takes the paper's shear first, and
    under it alone r2 is not regular in the second variable, so a second
    change mixes the last two.  The two changes do not commute."""
    f1, f2 = R3.poly("y^2 + z^2"), R3.poly("x*y + z^2")
    rec = current_recipe(f1, f2)
    first, second = rec.first_change, rec.second_change
    assert first == LinearChange(weier._PAPER_SHEAR)
    assert second == LinearChange([[1, 0, 0], [0, 1, 1], [0, -2, 0]])
    assert rec.change == first.compose(second) != second.compose(first)
    assert rec.to_json() == reference_recipe(f1, f2).to_json()


def test_recipe_search_reports_the_failures_when_it_runs_out_of_tries():
    with pytest.raises(RecipeError) as info:
        current_recipe(R3.poly("x"), R3.poly("x + y*z"), max_tries=2)
    assert str(info.value) == (
        "no regular coordinates found in 2 attempts; "
        "failures: ['second stage: leading coefficient in y vanishes at the origin']")


def test_recipe_constant_invariants():
    # C2 * N2! * (-1)^N2 == -C1 always
    R2 = Ring(("x", "y"))
    for f1, f2 in [("x", "y"), ("x^2", "y^3"), ("x^2 + y^3", "y^2")]:
        rec = current_recipe(R2.poly(f1), R2.poly(f2))
        assert rec.c2 * math.factorial(rec.n2) * (-1) ** rec.n2 == -rec.c1
        assert rec.gamma == rec.n2 + 1
        assert rec.a * rec.g1 + rec.b * rec.g2 == rec.r2


def test_recipe_rejects_non_complete_intersection():
    with pytest.raises(ValueError):
        current_recipe(R3.poly("x*y"), R3.poly("x*z"))


def test_recipe_json_shape():
    R2 = Ring(("x", "y"))
    rec = current_recipe(R2.poly("x"), R2.poly("y"))
    payload = json.loads(rec.to_json())
    expected_keys = [
        "ring",
        "first_change",
        "second_change",
        "change",
        "g1",
        "g2",
        "P1",
        "N1",
        "r2",
        "P2",
        "N2",
        "a",
        "b",
        "gamma",
        "C1",
        "C2",
        "sylvester_ratio",
    ]
    assert list(payload) == expected_keys
    assert payload["N1"] == 1 and payload["N2"] == 1
