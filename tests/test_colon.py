"""Colon ideals and intersections against the t-trick they replaced, and against sympy.

`ideal_colon` and `ideal_intersect` read their ideals off one module basis
(`modules._quotient_ideal`).  `reference_intersect` and `reference_colon`
are the algorithms before it: the t-trick, which adds a variable t and
eliminates it from t*I + (1-t)*J under a block order, and a colon that
intersects I with (g) for each generator g of J, divides by g and
intersects the quotients pairwise.  Both return reduced bases, so the
generator lists must agree exactly.  sympy's `QQ.old_poly_ring` is a third
oracle, checked by containment both ways.
"""

import os
import random
import sys

import pytest
import sympy

from cmlink.groebner import (
    GREVLEX,
    Ideal,
    divide_exact,
    eliminate,
    ideal_colon,
    ideal_intersect,
)
from cmlink import modules
from cmlink.linkage import generic_ci
from cmlink.poly import LEX, Polynomial, Ring

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
ORDERS = [GREVLEX, LEX]
R = Ring(("x", "y", "z"))
QQ_S = Ring(("x", "y", "z"), ("s",))


# -- the t-trick, kept as the reference -----------------------------------------


def _extend_ring_front(ring, names):
    return Ring(tuple(names) + ring.variables, ring.params)


def _lift_front(p, big_ring, extra):
    pad = (0,) * extra
    return Polynomial(big_ring, {pad + e: c for e, c in p.terms.items()})


def _drop_front(p, small_ring, extra):
    terms = {}
    for e, c in p.terms.items():
        if any(e[:extra]):
            raise ValueError("polynomial still involves eliminated variables")
        terms[e[extra:]] = c
    return Polynomial(small_ring, terms)


def reference_intersect(I, J):
    """I ∩ J by the t-trick: eliminate t from t·I + (1−t)·J."""
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal([], ring)
    tname = "_t"
    while tname in ring.variables + ring.params:
        tname += "_"
    big = _extend_ring_front(ring, (tname,))
    t = big.var(0)
    one = big.one()
    gens = [t * _lift_front(g, big, 1) for g in I.gens]
    gens += [(one - t) * _lift_front(g, big, 1) for g in J.gens]
    elim = eliminate(Ideal(gens, big), 1)
    return Ideal([_drop_front(g, ring, 1) for g in elim.gens], ring)


def reference_colon(I, J, order=GREVLEX):
    """I : J as the intersection over generators g of J of (I ∩ (g))/g."""
    ring = I.ring
    result = None
    for g in J.gens:
        inter = reference_intersect(I, Ideal([g], ring))
        quot = Ideal([divide_exact(h, g, order) for h in inter.gens], ring)
        result = quot if result is None else reference_intersect(result, quot)
    return Ideal(result.groebner_basis(order), ring)


def _strings(ideal):
    return [str(g) for g in ideal.gens]


def _check_pair(ring, i_gens, j_gens):
    """The new colon under both orders, and the new intersection, equal the reference's."""
    I = Ideal([ring.poly(t) for t in i_gens], ring)
    J = Ideal([ring.poly(t) for t in j_gens], ring)
    for order in ORDERS:
        assert _strings(ideal_colon(I, J, order)) == _strings(reference_colon(I, J, order)), \
            (i_gens, j_gens, order)
    assert _strings(ideal_intersect(I, J)) == _strings(reference_intersect(I, J)), \
        (i_gens, j_gens)


# -- the linkage workload's pairs --------------------------------------------------


def _linkage_pairs():
    """(ring, I gens, J gens): CI and CURVE, and each J of the `linkage` workload
    at seeds 1 and 2 with its generic_ci(J, 2, seed=k), as the workload links them."""
    sys.path.insert(0, PERFBENCH)
    try:
        import inputs
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    pairs = [(R, inputs.CI, inputs.CURVE)]
    for seed in (1, 2):
        corpus = workloads._linkage_ideals(*workloads._seeds(seed, "linkage"))
        for k, (_, names, gens) in enumerate(corpus):
            ring = Ring(names)
            I = generic_ci(Ideal.from_strings(ring, gens), 2, seed=k)
            pairs.append((ring, [str(f) for f in I.gens], gens))
    return pairs


def test_colon_and_intersection_match_the_t_trick_on_the_linkage_pairs():
    """Both colons of each link, I : J and I : (I : J), and I ∩ J, as `link` computes them."""
    for ring, i_gens, j_gens in _linkage_pairs():
        _check_pair(ring, i_gens, j_gens)
        I = Ideal([ring.poly(t) for t in i_gens], ring)
        K = ideal_colon(I, Ideal([ring.poly(t) for t in j_gens], ring))
        _check_pair(ring, i_gens, _strings(K))


# -- seeded random pairs -------------------------------------------------------------


QQ_COEFFS = ["1", "-1", "2", "-3"]
QQ_S_COEFFS = ["1", "-2", "s", "(s+1)", "(1-2*s)", "1/(s+1)"]


def _random_poly(rng, coeffs):
    """1-3 terms in x, y, z of exponents at most 1, as a string, each coefficient parenthesized."""
    out = []
    for _ in range(rng.randint(1, 3)):
        exps = [rng.randint(0, 1) for _ in range(3)]
        mono = "".join(f"*{v}" for v, e in zip("xyz", exps) if e)
        out.append(f"({rng.choice(coeffs)}){mono}")
    return " + ".join(out)


def random_pair(seed, coeffs):
    """(I gens, J gens): I = (a1*b1, a2*b2) shares the factor b1 with J = (b1, c)."""
    rng = random.Random(f"colon:{seed}:{len(coeffs)}")
    a1, b1, a2, b2, c = (_random_poly(rng, coeffs) for _ in range(5))
    return [f"({a1})*({b1})", f"({a2})*({b2})"], [b1, c]


def _nonzero(ring, texts):
    return [t for t in texts if not ring.poly(t).is_zero()]


@pytest.mark.parametrize("ring, coeffs, count", [(R, QQ_COEFFS, 12), (QQ_S, QQ_S_COEFFS, 5)],
                         ids=["QQ", "QQ(s)"])
def test_colon_and_intersection_match_the_t_trick_on_seeded_pairs(ring, coeffs, count):
    nontrivial = 0
    for seed in range(count):
        i_gens, j_gens = random_pair(seed, coeffs)
        i_gens, j_gens = _nonzero(ring, i_gens), _nonzero(ring, j_gens)
        if not j_gens:
            continue
        _check_pair(ring, i_gens, j_gens)
        I = Ideal([ring.poly(t) for t in i_gens], ring)
        nontrivial += not ideal_colon(I, Ideal([ring.poly(t) for t in j_gens], ring)).equals(I)
    assert nontrivial  # some colon is larger than I


EDGE_PAIRS = {
    "zero-I": (R, [], ["x*y", "z - 1"]),
    "unit-I": (R, ["x + 1", "x"], ["x*y", "z^2"]),
    "unit-J": (R, ["x*y", "x*z"], ["y", "y + 1"]),
    "I=J": (R, ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"],
            ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]),
    "one-generator-J": (R, ["x*y", "x*z", "y^3"], ["x + y"]),
    "ring-with-_t": (Ring(("_t", "x", "_t_")), ["_t*x - _t_^2", "x^2"], ["_t", "_t_"]),
}


@pytest.mark.parametrize("label", list(EDGE_PAIRS))
def test_colon_and_intersection_match_the_t_trick_on_edge_cases(label):
    _check_pair(*EDGE_PAIRS[label])


def test_edge_cases_give_the_expected_ideals():
    ring, i_gens, j_gens = EDGE_PAIRS["zero-I"]
    I, J = Ideal([], ring), Ideal.from_strings(ring, j_gens)
    assert ideal_colon(I, J).is_zero() and ideal_intersect(I, J).is_zero()
    assert ideal_intersect(J, I).is_zero()
    ring, i_gens, j_gens = EDGE_PAIRS["unit-I"]
    I, J = Ideal.from_strings(ring, i_gens), Ideal.from_strings(ring, j_gens)
    assert _strings(ideal_colon(I, J)) == ["1"]
    assert ideal_intersect(I, J).equals(J)
    ring, i_gens, j_gens = EDGE_PAIRS["unit-J"]
    I, J = Ideal.from_strings(ring, i_gens), Ideal.from_strings(ring, j_gens)
    assert ideal_colon(I, J).equals(I) and ideal_intersect(I, J).equals(I)
    ring, i_gens, _ = EDGE_PAIRS["I=J"]
    I = Ideal.from_strings(ring, i_gens)
    assert _strings(ideal_colon(I, I)) == ["1"]
    assert ideal_intersect(I, I).equals(I)
    with pytest.raises(ValueError):
        ideal_colon(I, Ideal([], ring))


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex"])
def test_a_colon_and_an_intersection_hold_their_reduced_bases(order, monkeypatch):
    """The first membership test of either result runs no pair loop: the
    reduced basis it was computed as is cached on it, with its divisors."""
    curve = ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]
    I = Ideal.from_strings(R, ["z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"])
    J = Ideal.from_strings(R, curve)
    results = [(ideal_colon(I, J, order), order), (ideal_intersect(I, J), GREVLEX)]
    calls = []
    original = modules._groebner

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modules, "_groebner", counting)
    for K, cached in results:
        assert K.contains(K.gens[-1] * R.poly("x - z"), cached)
        assert not K.contains(R.poly("x"), cached)
        assert K.contains_products(K.gens[0], [R.poly("y"), R.poly("z^2")], cached)
    assert calls == []
    monkeypatch.undo()
    assert _strings(results[0][0]) == _strings(reference_colon(I, J, order))


# -- sympy's ideals as a third oracle ------------------------------------------------


def _sympy_ideal(ring, texts):
    syms = sympy.symbols(ring.variables)
    exprs = [sympy.sympify(t.replace("^", "**")) for t in texts]
    return sympy.QQ.old_poly_ring(*syms).ideal(*exprs)


def _same_ideal(ring, ours, theirs):
    """Containment both ways between an Ideal and a sympy ideal of the same ring."""
    syms = sympy.symbols(ring.variables)
    for g in ours.gens:
        assert theirs.contains(sympy.sympify(str(g).replace("^", "**"))), str(g)
    for g in theirs.gens:
        p = sympy.Poly(theirs.ring.to_sympy(g), *syms)
        assert ours.contains(Polynomial(ring, {e: ring.coeff(c) for e, c in p.terms()})), p


def test_sympy_agrees_on_the_documented_colon():
    ours = ideal_colon(Ideal.from_strings(R, ["x*y", "x*z"]), Ideal.from_strings(R, ["x"]))
    assert _strings(ours) == ["y", "z"]
    theirs = _sympy_ideal(R, ["x*y", "x*z"]).quotient(_sympy_ideal(R, ["x"]))
    _same_ideal(R, ours, theirs)


@pytest.mark.parametrize("seed", range(6))
def test_colon_and_intersection_match_sympy_on_seeded_pairs(seed):
    i_gens, j_gens = random_pair(seed, QQ_COEFFS)
    i_gens, j_gens = _nonzero(R, i_gens), _nonzero(R, j_gens)
    I, J = Ideal.from_strings(R, i_gens), Ideal.from_strings(R, j_gens)
    sI, sJ = _sympy_ideal(R, i_gens), _sympy_ideal(R, j_gens)
    _same_ideal(R, ideal_colon(I, J), sI.quotient(sJ))
    _same_ideal(R, ideal_intersect(I, J), sI.intersect(sJ))
