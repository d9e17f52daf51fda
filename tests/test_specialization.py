"""Answers over QQ(s) against the same computations over QQ at values of s.

The three QQ(s) ideals of the `params` workload, under grevlex and lex, with
20 seeded probes each, half of them members by construction.  At three seeded
rational values of s, chosen off every denominator and every leading
coefficient's numerator met, the reduced basis over QQ(s) specialized must be
the reduced basis over QQ of the specialized generators, element by element,
and each probe's membership verdict must be the verdict over QQ.

Specialization goes through sympy on printed text, so it shares none of
cmlink's QQ(params) numerator arithmetic.  An answer must agree at two of the
three values.  One disagreement marks a special value of s (where the basis
does not specialize) and is recorded as a test property, not a failure.  The
property goes on the test item directly: the `record_property` fixture warns
under a JUnit XML report of the default family, and warnings are errors here.
"""

import os
import random
import sys
from fractions import Fraction

import pytest
import sympy

from cmlink import GREVLEX, LEX, Ideal, Polynomial, Ring

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
try:
    import inputs
finally:
    del sys.path[0]

RS = Ring(inputs.XYZ, ("s",))
RQ = Ring(inputs.XYZ)
S = sympy.Symbol("s")
GENS = sympy.symbols(inputs.XYZ)
LOCALS = {str(g): g for g in (*GENS, S)}
FIELD = sympy.QQ.frac_field(S)
PROBES = 20
VALUES = 3


def _expr(text):
    return sympy.sympify(text.replace("^", "**"), locals=LOCALS)


def _at(expr, v):
    """The sympy expression `expr` at s = v, as a Poly over QQ."""
    return sympy.Poly(expr.subs(S, v), *GENS, domain=sympy.QQ)


def _poly_qq(p):
    """A sympy Poly over QQ as a cmlink polynomial over QQ."""
    return Polynomial(RQ, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})


def _as_sympy(p):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *GENS, domain=sympy.QQ)


def _random_text(rng, degree):
    """A sum of one to three terms of degree at most `degree` with QQ(s) coefficients."""
    text = ""
    for _ in range(rng.randint(1, 3)):
        c = rng.choice(["1", "2", "3", "s", "(s+1)", "2*s^2", "1/2", "(s-3)/5"])
        exps = [0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(3)] += 1
        mono = "*".join(f"{v}^{e}" for v, e in zip(inputs.XYZ, exps) if e)
        text += rng.choice([" + ", " - "]) + (f"{c}*{mono}" if mono else c)
    return text[1:]


def _probes(gens, rng):
    """PROBES texts: members sum(h_i * g_i) and random polynomials, alternating."""
    out = []
    for k in range(PROBES):
        if k % 2 == 0:
            out.append(" + ".join(f"({_random_text(rng, 1)})*({g})" for g in gens))
        else:
            out.append(_random_text(rng, 3))
    return out


def _poles_and_zeros(texts, order):
    """The polynomials in s whose roots the values of s avoid: every
    coefficient's denominator and every leading coefficient's numerator."""
    out = []
    for text in texts:
        p = sympy.Poly(_expr(text), *GENS, domain=FIELD)
        if not p.is_zero:
            out.append(sympy.fraction(p.LC(order=order.kind))[0])
            out.extend(sympy.fraction(c)[1] for c in p.coeffs())
    return out


def _values(avoid, seed):
    rng = random.Random(seed)
    values = []
    while len(values) < VALUES:
        v = sympy.Rational(rng.randint(-40, 40), rng.randint(1, 9))
        if v not in values and all(q.subs(S, v) != 0 for q in avoid):
            values.append(v)
    return values


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("k", range(len(inputs.PARAM_IDEALS)))
def test_answers_over_qq_s_specialize_to_the_answers_over_qq(k, order, request):
    gens = inputs.PARAM_IDEALS[k]
    rng = random.Random(f"specialize:{k}:{order.kind}")
    J = Ideal.from_strings(RS, gens)
    basis = [str(g) for g in J.groebner_basis(order)]
    probes = _probes(gens, rng)
    verdicts = [J.contains(RS.poly(t), order) for t in probes]
    assert verdicts[::2] == [True] * (PROBES // 2)
    values = _values(_poles_and_zeros(gens + basis + probes, order), f"values:{k}:{order.kind}")
    basis_exprs, probe_exprs = [_expr(g) for g in basis], [_expr(t) for t in probes]
    disagree = {"basis": [], **{f"probe {i}": [] for i in range(PROBES)}}
    for v in values:
        Jv = Ideal([_poly_qq(_at(_expr(g), v)) for g in gens], RQ)
        if [_at(g, v) for g in basis_exprs] != [_as_sympy(g) for g in Jv.groebner_basis(order)]:
            disagree["basis"].append(v)
        for i, (e, verdict) in enumerate(zip(probe_exprs, verdicts)):
            if Jv.contains(_poly_qq(_at(e, v)), order) != verdict:
                disagree[f"probe {i}"].append(v)
    for answer, where in disagree.items():
        assert len(where) <= 1, (answer, where, values)
        if where:
            request.node.user_properties.append(("special value", f"{answer} at s = {where[0]}"))
