"""Acceptance criteria: one test per criterion, one printed verdict line each.

All checks are exact (rational arithmetic, tolerance zero).
"""

import itertools
import random
from fractions import Fraction

import sympy

from cmlink.complexes import (
    KoszulComplex,
    free_resolution,
    is_cohen_macaulay,
    verify_exactness,
)
from cmlink.groebner import (
    GREVLEX,
    Ideal,
    buchberger,
    ideal_colon,
    ideal_member,
    ideal_sum,
    normal_form,
)
from cmlink.linkage import (
    comparison_morphism,
    det_transform_member,
    generic_ci,
    link_decomposition_check,
    membership_via_link,
)
from cmlink.modules import PolyMatrix, module_groebner, module_normal_form, syzygy_matrix
from cmlink.poly import Polynomial, Ring
from cmlink.weier import current_recipe, extended_euclid, resultant_sylvester
from test_weier import reference_resultant

R = Ring(("x", "y", "z"))
x, y, z = R.gens()

CURVE = ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]
CI = ["z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"]
CI_SWAPPED = ["z^2 - x^2*y", "x^4 - 2*x*y*z + y^3"]


def monomials_up_to(ring, max_deg):
    n = ring.nvars
    out = []
    for exps in itertools.product(range(max_deg + 1), repeat=n):
        if sum(exps) <= max_deg:
            out.append(Polynomial(ring, {exps: Fraction(1)}))
    return out


def random_polys(ring, count, max_deg, seed):
    rng = random.Random(seed)
    out = []
    n = ring.nvars
    while len(out) < count:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, max_deg) for _ in range(n))
            if sum(exps) > max_deg:
                continue
            c = rng.randint(-4, 4)
            if c:
                terms[exps] = Fraction(c)
        out.append(Polynomial(ring, terms) if terms else ring.zero())
    return out


def test_criterion_1_curve_resolution():
    J = Ideal.from_strings(R, CURVE)
    res = free_resolution(J, minimalize=True)
    assert res.ranks() == [1, 3, 2]
    assert res.length == 2
    assert res.minimal
    assert verify_exactness(res).exact
    cm, codim, _ = is_cohen_macaulay(J)
    assert cm and codim == 2
    print(
        "PASS criterion 1: curve resolution has ranks (1, 3, 2), is minimal "
        "and exact, Cohen-Macaulay of codim 2"
    )


def test_criterion_2_golden_matrices():
    from cmlink.complexes import FreeResolution
    from cmlink.linkage import ComplexMorphism

    phi1 = PolyMatrix.from_strings(R, [["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]])
    phi2 = PolyMatrix.from_strings(R, [["-z", "-x^2"], ["-y", "-z"], ["x", "y"]])
    E = FreeResolution([phi1, phi2], Ideal.from_strings(R, CURVE))
    assert verify_exactness(E).exact
    K = KoszulComplex([R.poly(t) for t in CI])
    a0 = PolyMatrix.from_strings(R, [["1"]])
    a1 = PolyMatrix.from_strings(R, [["0", "y"], ["0", "x"], ["-1", "0"]])
    a2 = PolyMatrix.from_strings(R, [["x^3 - y*z"], ["y^2 - x*z"]])
    morphism = ComplexMorphism(K, E, [a0, a1, a2])
    assert morphism.violation() is None
    print(
        "PASS criterion 2: golden resolution and lift matrices pass "
        "exactness and every commuting square verbatim"
    )


def test_criterion_3_colon_duality():
    I = Ideal.from_strings(R, CI)
    J = Ideal.from_strings(R, CURVE)
    K = ideal_colon(I, J)
    expected = ideal_sum(I, Ideal.from_strings(R, ["x^3 - y*z", "y^2 - x*z"]))
    assert K.equals(expected)
    assert ideal_colon(I, K).equals(J)
    print(
        "PASS criterion 3: I:J equals I + (x^3 - yz, y^2 - xz) and "
        "I:(I:J) equals J by double inclusion"
    )


def test_criterion_4_oracle_equivalence():
    J = Ideal.from_strings(R, CURVE)
    corpus = monomials_up_to(R, 6) + random_polys(R, 200, 5, seed=2024)
    assert len([m for m in corpus if True]) == 84 + 200

    fixtures = [Ideal.from_strings(R, CI)]
    fixtures += [generic_ci(J, 2, seed=k) for k in range(5)]
    E = free_resolution(J, minimalize=True)
    checked = 0
    for I in fixtures:
        K = KoszulComplex(list(I.gens))
        entries = comparison_morphism(K, E).top_entries()
        for g in corpus:
            assert membership_via_link(g, I, entries) == ideal_member(g, J)
            checked += 1
    print(
        f"PASS criterion 4: membership via linkage matches GB membership on "
        f"{checked} probes across {len(fixtures)} fixtures (100% agreement)"
    )


def test_criterion_5_det_law():
    R2 = Ring(("x", "y"))
    I = Ideal.from_strings(R2, ["x^2", "y^2"])
    J = Ideal.from_strings(R2, ["x", "y"])
    A = PolyMatrix.from_strings(R2, [["x", "0"], ["0", "y"]])
    corpus = monomials_up_to(R2, 6)
    assert len(corpus) == 28
    for g in corpus:
        assert det_transform_member(g, I, J, A) == ideal_member(g, J)
    print(
        "PASS criterion 5: det(A) transformation law matches GB membership "
        "on all 28 monomials of degree <= 6 in two variables"
    )


def test_criterion_6_pipeline_matches_reference():
    rec = current_recipe(R.poly(CI_SWAPPED[0]), R.poly(CI_SWAPPED[1]))
    assert rec.n1 == 2
    assert rec.n2 == 8
    # reference closed forms; the working ring's symbols are, in order,
    # (first variable, second variable | parameter) = (X, Z | Y)
    X, Zs, Y = sympy.symbols("x y z")
    g = 1 - Y
    F = (4 / g**2) * (1 - 2 / g) * Zs**3 + 2 * Y * (2 / g - 1) * Zs
    G = (1 / g**2) * (1 - 4 / g) * Zs**4 + (2 * Y / g) * Zs**2 + Y**3
    r2_ref = Zs**2 * F**2 / g - 2 * Zs * F * G / g + G**2
    b_ref = -(X + 2 * Zs / g) * F + G
    ratio = sympy.cancel(rec.r2.to_sympy() / r2_ref)
    # the ratio is a unit of the parameter ring: nonzero and free of X, Z
    assert ratio != 0
    assert X not in ratio.free_symbols and Zs not in ratio.free_symbols
    ratio_b = sympy.cancel(rec.b.to_sympy() / b_ref)
    assert sympy.simplify(ratio - ratio_b) == 0
    assert sympy.simplify(
        rec.a.to_sympy() * rec.g1.to_sympy()
        + rec.b.to_sympy() * rec.g2.to_sympy()
        - rec.r2.to_sympy()
    ) == 0
    print(
        "PASS criterion 6: pipeline reports N1 = 2, N2 = 8; r2 and b match "
        "the reference closed forms up to the same unit, exactly"
    )


def test_criterion_7_resultant_cross_oracle():
    U = Ring(("x",), ("s", "t"))
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
            key = e
            cur = terms.get(key)
            terms[key] = expr if cur is None else cur + expr
        terms = {k: v for k, v in terms.items() if v != 0}
        return Polynomial(U, {k: U.coeff(v) for k, v in terms.items()})

    agreed = 0
    pairs = 0
    while pairs < 100:
        if rng.random() < 0.3:
            common = rand_poly(2, 1, 2)
            P = rand_poly(2, 1, 2) * common
            Q = rand_poly(2, 1, 2) * common
        else:
            P = rand_poly(4, 2, 3)
            Q = rand_poly(4, 2, 3)
        if P.degree_in(0) < 1 or Q.degree_in(0) < 1:
            continue
        pairs += 1
        g, a, b = extended_euclid(P, Q, 0)
        assert a * P + b * Q == g
        res = resultant_sylvester(P, Q, 0)
        # the determinant by elimination, against the subresultant PRS
        assert res == reference_resultant(P, Q, 0)
        if g.degree_in(0) >= 1:
            # shared positive-degree factor: both oracles must vanish
            assert res.is_zero()
        else:
            assert not res.is_zero()
            assert not g.is_zero()
        agreed += 1
    assert agreed == 100
    print(
        "PASS criterion 7: extended Euclid and the Sylvester determinant "
        "agree on all 100 seeded pairs (vanishing iff a shared factor), and "
        "the subresultant resultant equals the Bareiss determinant on each"
    )


def test_criterion_8_property_suites():
    rng = random.Random(42)

    def rand_poly3(max_deg=2, max_terms=3):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_deg) for _ in range(3))
            c = rng.randint(-3, 3)
            if c:
                terms[e] = Fraction(c)
        return Polynomial(R, terms) if terms else R.one()

    # Buchberger fixed point
    for _ in range(5):
        gens = [rand_poly3() for _ in range(2)]
        gb = buchberger(gens, GREVLEX)
        assert sorted(map(str, gb)) == sorted(map(str, buchberger(gb, GREVLEX)))

    # division identity
    for _ in range(10):
        f = rand_poly3(3, 4)
        divisors = [d for d in (rand_poly3(), rand_poly3()) if not d.is_zero()]
        res = normal_form(f, divisors, GREVLEX)
        rebuilt = sum(
            (q * d for q, d in zip(res.quotients, divisors)), R.zero()
        )
        assert rebuilt + res.remainder == f

    # M * syz(M) == 0 plus bounded-degree kernel completeness on 2x3 matrices
    for _ in range(3):
        M = PolyMatrix([[rand_poly3(1, 2) for _ in range(3)] for _ in range(2)], R)
        S = syzygy_matrix(M)
        assert (M * S).is_zero()
        if S.ncols:
            basis, _ = module_groebner(S.columns(), GREVLEX)
            for _ in range(20):
                v = [rand_poly3(1, 2) for _ in range(3)]
                if all(p.is_zero() for p in M * v):
                    _, rem = module_normal_form(v, basis, GREVLEX)
                    assert all(p.is_zero() for p in rem)

    # psi psi = 0 for Koszul complexes up to p = 4
    for p in (2, 3, 4):
        f = [rand_poly3() for _ in range(p)]
        K = KoszulComplex(f)
        for a, b in zip(K.differentials, K.differentials[1:]):
            assert (a * b).is_zero()

    # J subset of I : (I : J) on random monomial pairs
    for _ in range(5):
        e1 = tuple(rng.randint(0, 2) for _ in range(3))
        e2 = tuple(rng.randint(0, 2) for _ in range(3))
        if not any(e1) or not any(e2):
            continue
        I = Ideal([Polynomial(R, {e1: Fraction(1)})])
        J = Ideal([Polynomial(R, {e2: Fraction(1)})])
        back = ideal_colon(I, ideal_colon(I, J))
        assert back.contains_ideal(J)

    # reports are byte-for-byte deterministic across two runs
    def link_report_bytes():
        I = Ideal.from_strings(R, CI)
        J = Ideal.from_strings(R, CURVE)
        K = KoszulComplex(list(I.gens))
        E = free_resolution(J, minimalize=True)
        a = comparison_morphism(K, E)
        return link_decomposition_check(I, J, a).to_json().encode()

    assert link_report_bytes() == link_report_bytes()
    rec = current_recipe(R.poly(CI_SWAPPED[0]), R.poly(CI_SWAPPED[1]))
    rec2 = current_recipe(R.poly(CI_SWAPPED[0]), R.poly(CI_SWAPPED[1]))
    assert rec.to_json().encode() == rec2.to_json().encode()

    print(
        "PASS criterion 8: property suites hold (Buchberger fixed point, "
        "division identity, syzygy annihilation and completeness, Koszul "
        "squares, double-colon containment, byte-identical reports)"
    )
