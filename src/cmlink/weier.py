"""Weierstrass preparation, extended Euclid and the current recipe.

For a codimension-2 complete intersection (f1, f2) the pipeline moves to
coordinates in which f1 is regular in the first variable, factors it as
unit * P1 with P1 a Weierstrass polynomial, runs the extended Euclidean
algorithm of P1 and f2 in that variable over fraction-field coefficients,
and prepares the last remainder r2 = a f1 + b f2 in the second variable.
The emitted CurrentRecipe carries (P1, N1), (r2, P2, N2), the Bezout pair
(a, b) and the exact constants gamma, C1, C2.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .groebner import GREVLEX, Ideal, ideal_codim
from .poly import (
    LinearChange,
    Polynomial,
    Ring,
    SingularMatrixError,
    _bareiss_det,
    apply_linear_change,
)


class NotRegularError(ValueError):
    """f is not regular in the designated variable at the origin."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RecipeError(RuntimeError):
    """No coordinate change achieving Weierstrass position was found."""


@dataclass
class WeierstrassForm:
    original: Polynomial
    unit: Polynomial  # constant in the ring variables, invertible at the origin
    weierstrass: Polynomial  # monic of degree N in the designated variable
    degree: int
    var: int

    def __post_init__(self):
        if self.unit * self.weierstrass != self.original:
            raise ValueError("unit * P does not reproduce the original")


def weierstrass_ready(f, var):
    """Factor f = unit * P with P a Weierstrass polynomial in variable `var`.

    The leading coefficient in `var` must lie in the coefficient field and be
    invertible at the origin, and the lower coefficients of P must vanish at
    the origin; otherwise NotRegularError asks for a coordinate change.
    """
    ring = f.ring
    if f.is_zero():
        raise ValueError("cannot prepare the zero polynomial")
    if f.constant_term_at_origin() != 0:
        raise ValueError("polynomial does not vanish at the origin")
    n = f.degree_in(var)
    if n < 1:
        raise NotRegularError(
            f"no occurrence of {ring.variables[var]}", witness=f
        )
    lead = f.coefficient_in(var, n)
    if not lead.is_constant():
        raise NotRegularError(
            f"leading coefficient in {ring.variables[var]} involves other "
            "ring variables",
            witness=lead,
        )
    u = lead.constant_term()
    if ring.coeff_at_origin(u) == 0:
        raise NotRegularError(
            f"leading coefficient in {ring.variables[var]} vanishes at the "
            "origin",
            witness=lead,
        )
    p = f.scale(ring.coeff_div(ring.coeff(1), u))
    for k in range(n):
        low = p.coefficient_in(var, k)
        if low.constant_term_at_origin() != 0:
            raise NotRegularError(
                f"coefficient of {ring.variables[var]}^{k} does not vanish "
                "at the origin",
                witness=low,
            )
    return WeierstrassForm(f, ring.constant(u), p, n, var)


def _euclid_symbols(ring, var):
    """Euclid variable symbol and the other symbols: the remaining ring
    variables in order, then the parameters."""
    names = [v for i, v in enumerate(ring.variables) if i != var] + list(ring.params)
    return sympy.Symbol(ring.variables[var]), tuple(sympy.Symbol(n) for n in names)


def _domain_poly(p, var, xsym, dom):
    """p as a univariate sympy Poly in `xsym` over dom = QQ[other symbols].

    The coefficients of p must have constant denominators; dom is QQ when
    there are no other symbols.
    """
    ring = p.ring
    others = [i for i in range(ring.nvars) if i != var]
    acc = {}  # (degree in var,) -> {monomial in the other symbols -> QQ}
    for exps, c in p.terms.items():
        head = tuple(exps[i] for i in others)
        sub = acc.setdefault((exps[var],), {})
        if ring.field is None:
            sub[head] = sympy.QQ(c.numerator, c.denominator)
            continue
        if not c.denom.is_ground:
            raise ValueError(f"coefficient {c} has a parameter denominator")
        den = c.denom.LC
        for pm, q in c.numer.items():
            sub[head + pm] = q / den
    if dom == sympy.QQ:
        rep = {k: sub[()] for k, sub in acc.items()}
    else:
        rep = {k: dom.ring.from_dict(sub) for k, sub in acc.items()}
    return sympy.Poly.from_dict(rep, xsym, domain=dom)


def _from_poly_coeffs(coeff_list, ring, var):
    """Ring polynomial from descending coefficients in QQ[other symbols].

    Exponents of the other ring variables go back into the monomial; the
    parameter exponents build each coefficient's numerator in the ring's
    field.
    """
    deg = len(coeff_list) - 1
    others = [i for i in range(ring.nvars) if i != var]
    split = len(others)
    acc = {}  # ring exponents -> {parameter monomial -> QQ}
    for k, c in enumerate(coeff_list):
        for mono, q in c.terms():
            exps = [0] * ring.nvars
            exps[var] = deg - k
            for i, e in zip(others, mono):
                exps[i] = e
            acc.setdefault(tuple(exps), {})[mono[split:]] = q
    field = ring.field
    if field is None:
        terms = {
            key: Fraction(int(sub[()].numerator), int(sub[()].denominator))
            for key, sub in acc.items()
        }
    else:
        terms = {key: field.new(field.ring.from_dict(sub)) for key, sub in acc.items()}
    return Polynomial(ring, terms)


def extended_euclid(P, Q, var):
    """Last nonzero remainder g of P, Q in `var` with g = a*P + b*Q exactly.

    Divisions run over the fraction field of the remaining variables; all
    denominators are cleared at the end, so the returned triple consists of
    ring polynomials and the identity is exact in the ring.
    """
    ring = P.ring
    if P.ring != Q.ring:
        raise ValueError("operands in different rings")
    if P.is_zero() or Q.is_zero():
        raise ValueError("extended Euclid needs nonzero inputs")
    xsym, osyms = _euclid_symbols(ring, var)
    if not osyms:
        return _euclid_rational(P, Q, var, xsym)
    # fraction-free pseudo-remainder sequence over QQ[other symbols]: the
    # fraction field blows coefficients up badly, so stay polynomial and
    # strip the joint content of (remainder, cofactors) after every step.
    # Parameter denominators in the inputs are units; scale them away here
    # and fold them back into the cofactors at the end.
    dP = _param_denominator_lcm(P)
    dQ = _param_denominator_lcm(Q)
    Pc = P.scale(dP) if dP != 1 else P
    Qc = Q.scale(dQ) if dQ != 1 else Q
    dom = sympy.QQ[osyms]
    p1 = _domain_poly(Pc, var, xsym, dom)
    p2 = _domain_poly(Qc, var, xsym, dom)
    one = sympy.Poly(1, xsym, domain=dom)
    zero = sympy.Poly(0, xsym, domain=dom)
    r0, r1 = p1, p2
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        if r0.degree() >= r1.degree():
            q, r = r0.pdiv(r1)  # alpha * r0 = q * r1 + r
            # the leading coefficient as a domain element, not an Expr
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
    if not (s0 * p1 + t0 * p2 - r0).is_zero:
        raise ArithmeticError("Bezout identity failed in the Euclid loop")
    g, a, b = (_from_poly_coeffs(p.rep.to_list(), ring, var) for p in (r0, s0, t0))
    # g = a * (dP * P) + b * (dQ * Q), so rescale the cofactors
    if dP != 1:
        a = a.scale(dP)
    if dQ != 1:
        b = b.scale(dQ)
    return g, a, b


def _param_denominator_lcm(p):
    """Least common multiple over ZZ of the coefficient denominators of p,
    as a coefficient of its ring."""
    field = p.ring.field
    if field is None:
        return Fraction(1)
    zz = field.ring.clone(domain=sympy.ZZ)
    den = zz.one
    for d in {c.denom for c in p.terms.values()}:
        if d != 1:
            den = den.lcm(d.set_ring(zz))
    return field.new(den.set_ring(field.ring))


def _euclid_rational(P, Q, var, xsym):
    """Euclid for univariate polynomials over plain QQ."""
    ring = P.ring
    p1 = _domain_poly(P, var, xsym, sympy.QQ)
    p2 = _domain_poly(Q, var, xsym, sympy.QQ)
    one = sympy.Poly(1, xsym, domain=sympy.QQ)
    zero = sympy.Poly(0, xsym, domain=sympy.QQ)
    r0, r1 = p1, p2
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        q, r = r0.div(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not (s0 * p1 + t0 * p2 - r0).is_zero:
        raise ArithmeticError("Bezout identity failed in the Euclid loop")
    lists = [p.rep.to_list() if not p.is_zero else [] for p in (r0, s0, t0)]
    clear = 1
    for lst in lists:
        for c in lst:
            d = int(c.denominator)
            clear = clear * d // math.gcd(clear, d)
    out = []
    for lst in lists:
        deg = len(lst) - 1
        terms = {}
        for k, c in enumerate(lst):
            if not c:
                continue
            q = Fraction(int(c.numerator), int(c.denominator)) * clear
            exps = [0] * ring.nvars
            exps[var] = deg - k
            terms[tuple(exps)] = ring.coeff(q)
        out.append(Polynomial(ring, terms))
    g, a, b = out
    return g, a, b


def resultant_sylvester(P, Q, var):
    """Determinant of the Sylvester matrix of P, Q in `var` (P-block rows first).

    Fraction-free Bareiss elimination over QQ[remaining variables and
    parameters], after scaling the parameter denominators out of P and Q;
    the result is free of `var` and vanishes exactly when P and Q share a
    factor of positive degree in `var`.
    """
    ring = P.ring
    if P.ring != Q.ring:
        raise ValueError("operands in different rings")
    m = P.degree_in(var)
    n = Q.degree_in(var)
    if m < 1 or n < 1:
        raise ValueError("resultant needs positive degree in the variable")
    xsym, osyms = _euclid_symbols(ring, var)
    dom = sympy.QQ[osyms] if osyms else sympy.QQ
    # scaling P by dP scales its n rows, so the determinant by dP^n
    dP = _param_denominator_lcm(P)
    dQ = _param_denominator_lcm(Q)
    pc = _domain_poly(P.scale(dP), var, xsym, dom).rep.to_list()
    qc = _domain_poly(Q.scale(dQ), var, xsym, dom).rep.to_list()
    size = m + n
    mat = [[dom.zero for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for k in range(m + 1):
            mat[i][i + k] = pc[k]
    for j in range(m):
        for k in range(n + 1):
            mat[n + j][j + k] = qc[k]
    det = _bareiss_det(mat, dom.one, lambda c: not c, dom.exquo)
    if not osyms:
        return ring.constant(Fraction(int(det.numerator), int(det.denominator)))
    res = _from_poly_coeffs([det], ring, var)
    return res.scale(ring.coeff_div(ring.coeff(1), dP**n * dQ**m))


def _work_ring(ring):
    """Two working variables; everything else moves into the parameter block."""
    return Ring(ring.variables[:2], ring.variables[2:] + ring.params)


def _to_work(p, work):
    """Reinterpret p with variables 3..n as parameters.

    The work ring's parameters are those variables followed by p's
    parameters, so each coefficient is rebuilt from exponent tuples.
    """
    ring, field = p.ring, work.field
    if field is None:
        return Polynomial(work, p.terms)
    pad = (0,) * (ring.nvars - 2)
    out = {}
    for exps, c in p.terms.items():
        if ring.field is None:
            numer = {(): sympy.QQ(c.numerator, c.denominator)}
            denom = {(): sympy.QQ.one}
        else:
            numer, denom = c.numer, c.denom
        coeff = field.new(
            field.ring.from_dict({exps[2:] + m: q for m, q in numer.items()}),
            field.ring.from_dict({pad + m: q for m, q in denom.items()}),
        )
        key = exps[:2]
        if key in out:
            coeff = work.coeff_add(out[key], coeff)
        if work.coeff_is_zero(coeff):
            out.pop(key, None)
        else:
            out[key] = coeff
    return Polynomial(work, out)


def _fraction_str(q):
    return f"{q.numerator}/{q.denominator}"


def _change_entries(change):
    out = []
    for row in change.matrix:
        out.append(
            [int(v) if v.denominator == 1 else _fraction_str(v) for v in row]
        )
    return out


@dataclass
class CurrentRecipe:
    ring: Ring  # working ring: two variables over the remaining parameters
    first_change: LinearChange
    second_change: LinearChange
    change: LinearChange  # composition actually applied to f1, f2
    g1: Polynomial  # f1 after the change, in the working ring
    g2: Polynomial
    p1: Polynomial  # Weierstrass polynomial of g1 in the first variable
    n1: int
    r2: Polynomial  # last Euclid remainder; free of the first variable
    p2: Polynomial  # Weierstrass polynomial of r2 in the second variable
    n2: int
    a: Polynomial  # r2 = a*g1 + b*g2
    b: Polynomial
    gamma: int
    c1: Fraction
    c2: Fraction
    sylvester_ratio: str | None  # Sylvester determinant / r2, for auditing

    def to_json(self):
        return json.dumps(
            {
                "ring": self.ring.header(),
                "first_change": _change_entries(self.first_change),
                "second_change": _change_entries(self.second_change),
                "change": _change_entries(self.change),
                "g1": str(self.g1),
                "g2": str(self.g2),
                "P1": str(self.p1),
                "N1": self.n1,
                "r2": str(self.r2),
                "P2": str(self.p2),
                "N2": self.n2,
                "a": str(self.a),
                "b": str(self.b),
                "gamma": self.gamma,
                "C1": _fraction_str(self.c1),
                "C2": _fraction_str(self.c2),
                "sylvester_ratio": self.sylvester_ratio,
            },
            indent=2,
        )


# shear plus a swap putting the sheared variable second and the untouched
# one into the parameter block: old (x, y, z) -> (v0, v2, v0 + v1)
_PAPER_SHEAR = ((1, 0, 0), (0, 0, 1), (1, 1, 0))


def _first_changes(n, rng, limit):
    yield LinearChange.identity(n)
    if n == 3:
        yield LinearChange(_PAPER_SHEAR)
    for _ in range(limit):
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            yield LinearChange(rows)
        except SingularMatrixError:
            continue


def _second_changes(n, rng, limit):
    """Changes fixing the first variable and mixing the remaining ones."""
    yield LinearChange.identity(n)
    for _ in range(limit):
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = 1
        for i in range(1, n):
            for j in range(1, n):
                rows[i][j] = rng.randint(-2, 2)
        try:
            yield LinearChange(rows)
        except SingularMatrixError:
            continue


def _run_pipeline(f1, f2, change, work):
    """One attempt at the full preparation; raises NotRegularError on failure."""
    g1 = _to_work(apply_linear_change(f1, change), work)
    g2 = _to_work(apply_linear_change(f2, change), work)
    wf1 = weierstrass_ready(g1, 0)
    r2, a_raw, b = extended_euclid(wf1.weierstrass, g2, 0)
    if r2.is_zero():
        raise ValueError("Euclid collapsed to zero; inputs share a component")
    if r2.involves(0):
        raise ValueError(
            "inputs share a factor of positive degree in the first variable; "
            "not a codimension-2 complete intersection"
        )
    wf2 = weierstrass_ready(r2, 1)
    # r2 = a_raw * P1 + b * g2 and g1 = u * P1, so divide a_raw by the unit
    u = wf1.unit.constant_term()
    a = a_raw.scale(work.coeff_div(work.coeff(1), u))
    if a * g1 + b * g2 != r2:
        raise ArithmeticError("Bezout identity failed after unit correction")
    return g1, g2, wf1, wf2, r2, a, b


def current_recipe(f1, f2, seed=0, max_tries=50):
    """Full pipeline for a codimension-2 complete intersection (f1, f2).

    Searches coordinate changes deterministically from the seed: identity
    first, then a shear, then random integer changes; a second change mixes
    only the variables after the first.  gamma = N2 + 1 and
    C1 = (-1)^(N1 gamma) (N1 gamma)!, C2 = -(-1)^N2 C1 / N2!.
    """
    ring = f1.ring
    if f2.ring != ring:
        raise ValueError("inputs in different rings")
    if ring.nvars < 2:
        raise ValueError("need at least two variables")
    if ideal_codim(Ideal([f1, f2], ring), GREVLEX) != 2:
        raise ValueError("inputs are not a codimension-2 complete intersection")
    work = _work_ring(ring)
    n = ring.nvars
    rng = random.Random(seed)
    attempts = 0
    failures = []
    result = None
    for first in _first_changes(n, rng, max_tries):
        if attempts >= max_tries or result is not None:
            break
        attempts += 1
        # the first preparation is unaffected by second changes, so probe it
        # once per first change
        try:
            weierstrass_ready(_to_work(apply_linear_change(f1, first), work), 0)
        except NotRegularError as exc:
            failures.append(f"first stage: {exc}")
            continue
        for second in _second_changes(n, rng, 8):
            if attempts >= max_tries:
                break
            attempts += 1
            change = first.compose(second)
            try:
                g1, g2, wf1, wf2, r2, a, b = _run_pipeline(f1, f2, change, work)
            except NotRegularError as exc:
                failures.append(f"second stage: {exc}")
                continue
            result = (first, second, change, g1, g2, wf1, wf2, r2, a, b)
            break
    if result is None:
        raise RecipeError(
            f"no regular coordinates found in {attempts} attempts; "
            f"failures: {failures[-3:]}"
        )
    first, second, change, g1, g2, wf1, wf2, r2, a, b = result
    n1, n2 = wf1.degree, wf2.degree
    gamma = n2 + 1
    c1 = Fraction((-1) ** (n1 * gamma) * math.factorial(n1 * gamma))
    c2 = -Fraction((-1) ** n2) * c1 / math.factorial(n2)
    ratio = None
    if g2.degree_in(0) >= 1:
        res = resultant_sylvester(wf1.weierstrass, g2, 0)
        q = sympy.cancel(res.to_sympy() / r2.to_sympy())
        ratio = str(q).replace(" ", "")
    return CurrentRecipe(
        ring=work,
        first_change=first,
        second_change=second,
        change=change,
        g1=g1,
        g2=g2,
        p1=wf1.weierstrass,
        n1=n1,
        r2=r2,
        p2=wf2.weierstrass,
        n2=n2,
        a=a,
        b=b,
        gamma=gamma,
        c1=c1,
        c2=c2,
        sylvester_ratio=ratio,
    )
