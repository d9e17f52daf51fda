"""Weierstrass preparation, extended Euclid and the current recipe.

For a codimension-2 complete intersection (f1, f2) the pipeline moves to
coordinates in which f1 is regular in the first variable, factors it as
unit * P1 with P1 a Weierstrass polynomial, runs the extended Euclidean
algorithm of P1 and f2 in that variable, and prepares the last remainder
r2 = a f1 + b f2 in the second variable.  The emitted CurrentRecipe
carries (P1, N1), (r2, P2, N2), the Bezout pair (a, b) and the exact
constants gamma, C1, C2.

Euclid and the Sylvester determinant stay fraction-free: both scale their
operands to primitive polynomials over ZZ[others] (the remaining variables,
then the parameters).  Euclid runs Brown's subresultant recurrence there,
dividing every remainder and both cofactors by the same beta exactly, so no
gcd is taken inside the loop; one joint content and a sign at the end make
(g, a, b) canonical.  The determinant is a Bareiss elimination.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.densearith import dup_add, dup_mul, dup_mul_ground, dup_pdiv, dup_sub
from sympy.polys.densetools import dup_content

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
    p = f.scale(1 / u)
    for k in range(n):
        low = p.coefficient_in(var, k)
        if low.constant_term_at_origin() != 0:
            raise NotRegularError(
                f"coefficient of {ring.variables[var]}^{k} does not vanish "
                "at the origin",
                witness=low,
            )
    return WeierstrassForm(f, ring.constant(u), p, n, var)


def _euclid_domain(ring, var):
    """ZZ[others]: the other ring variables, then the parameters (or none)."""
    names = [v for i, v in enumerate(ring.variables) if i != var] + list(ring.params)
    return sympy.ZZ[tuple(sympy.Symbol(n) for n in names)]


def _integral_coeffs(p, var, dom):
    """p as a primitive polynomial in `var` over dom = ZZ[others], and the
    positive coefficient k of p's ring with that polynomial = k * p.

    The polynomial is the dense list of its coefficients, highest degree
    first.  k is the ZZ-lcm of the parameter denominators, times the lcm of
    the integer denominators left after that, over the integer content.
    """
    ring = p.ring
    dp = _param_denominator_lcm(p)
    if dp != 1:
        p = p.scale(dp)
    others = [i for i in range(ring.nvars) if i != var]
    acc = {}  # degree in var -> {monomial in the other symbols -> rational}
    for exps, c in p.terms.items():
        head = tuple(exps[i] for i in others)
        sub = acc.setdefault(exps[var], {})
        if ring.field is None:
            sub[head] = c
            continue
        if not c.denom.is_ground:
            raise ValueError(f"coefficient {c} has a parameter denominator")
        den = c.denom.LC
        for pm, q in c.numer.items():
            sub[head + pm] = q / den
    values = [q for sub in acc.values() for q in sub.values()]
    lcm = math.lcm(*(int(q.denominator) for q in values))
    content = math.gcd(*(int(q.numerator) for q in values))
    coeffs = [
        dom.ring.from_dict(
            {m: int(q.numerator) * (lcm // int(q.denominator)) // content
             for m, q in acc.get(k, {}).items()}
        )
        for k in range(max(acc), -1, -1)
    ]
    return coeffs, dp * ring.coeff(Fraction(lcm, content))


def _from_poly_coeffs(coeff_list, ring, var):
    """Ring polynomial from descending coefficients in ZZ[others].

    Exponents of the other ring variables go back into the monomial; the
    parameter exponents build each coefficient's numerator in the ring's
    field.
    """
    deg = len(coeff_list) - 1
    others = [i for i in range(ring.nvars) if i != var]
    split = len(others)
    acc = {}  # ring exponents -> {parameter monomial -> integer}
    for k, c in enumerate(coeff_list):
        for mono, q in c.terms():
            exps = [0] * ring.nvars
            exps[var] = deg - k
            for i, e in zip(others, mono):
                exps[i] = e
            acc.setdefault(tuple(exps), {})[mono[split:]] = q
    field = ring.field
    if field is None:
        terms = {key: Fraction(int(sub[()])) for key, sub in acc.items()}
    else:
        # an integer-coefficient numerator over 1 is already canonical (field.new
        # would return it unchanged), so skip new()'s cancel
        terms = {key: field.raw_new(field.ring.from_dict(sub)) for key, sub in acc.items()}
    return Polynomial(ring, terms)


def _exquo(f, c):
    """Exact quotient of a dense polynomial by c; raises if it is not exact."""
    return [a.exquo(c) for a in f]


def _cofactor_step(u0, u1, alpha, q, beta, dom):
    """(alpha * u0 - q * u1) / beta, exactly."""
    return _exquo(dup_sub(dup_mul_ground(u0, alpha, dom), dup_mul(q, u1, dom), dom), beta)


def extended_euclid(P, Q, var):
    """Last nonzero remainder g of P, Q in `var` with g = a*P + b*Q exactly.

    P and Q are scaled to primitive polynomials over ZZ[others], the other
    ring variables and the parameters, and run through Brown's subresultant
    PRS (Collins 1967; Brown 1978): each step pseudo-divides,
    lc(r1)^(d+1) r0 = q r1 + r with d = deg r0 - deg r1, and divides r and
    the cofactors lc(r1)^(d+1) s0 - q s1, lc(r1)^(d+1) t0 - q t1 by the
    same beta = -psi c^d.  Here psi is the previous leading coefficient
    (1 at first) and c (-1 at first) becomes (-lc(r1))^d / c^(d-1).  The
    divisions are exact, because the cofactors of a subresultant are
    minors of the Sylvester matrix; an inexact one raises.

    At the end (g, a, b) is divided by its joint content over ZZ[others],
    with the sign that makes the leading coefficient of g positive; the
    scales taken out of P and Q are folded back into a and b.  Unless P
    and Q are associates of equal degree (then g comes from Q and a = 0),
    the degree-bounded cofactors are unique up to a common factor, so the
    triple is canonical: swapping P and Q swaps a and b, and scaling P by
    a rational k divides a by k.
    """
    ring = P.ring
    if P.ring != Q.ring:
        raise ValueError("operands in different rings")
    if P.is_zero() or Q.is_zero():
        raise ValueError("extended Euclid needs nonzero inputs")
    dom = _euclid_domain(ring, var)
    p1, kP = _integral_coeffs(P, var, dom)
    p2, kQ = _integral_coeffs(Q, var, dom)
    g, s, t = _subresultant_euclid(p1, p2, dom)
    if dup_sub(dup_add(dup_mul(s, p1, dom), dup_mul(t, p2, dom), dom), g, dom):
        raise ArithmeticError("Bezout identity failed in the Euclid loop")
    cont = dom.gcd(dom.gcd(dup_content(g, dom), dup_content(s, dom)), dup_content(t, dom))
    if dom.is_negative(g[0]) != dom.is_negative(cont):
        cont = -cont
    g, a, b = (_from_poly_coeffs(_exquo(f, cont), ring, var) for f in (g, s, t))
    # g = a * (kP * P) + b * (kQ * Q), so rescale the cofactors
    return g, (a.scale(kP) if kP != 1 else a), (b.scale(kQ) if kQ != 1 else b)


def _subresultant_euclid(p1, p2, dom):
    """The loop of `extended_euclid` on dense polynomials over dom: the last
    remainder g of the subresultant PRS and (s, t) with g = s*p1 + t*p2."""
    r0, r1, s0, s1, t0, t1 = p1, p2, [dom.one], [], [], [dom.one]
    if len(r0) < len(r1):
        r0, r1, s0, s1, t0, t1 = r1, r0, s1, s0, t1, t0
    psi, c = dom.one, -dom.one
    while r1:
        d = len(r0) - len(r1)
        beta = -psi * c**d
        psi = r1[0]
        alpha = psi ** (d + 1)
        q, r = dup_pdiv(r0, r1, dom)  # alpha * r0 = q * r1 + r
        r0, r1 = r1, _exquo(r, beta)
        s0, s1 = s1, _cofactor_step(s0, s1, alpha, q, beta, dom)
        t0, t1 = t1, _cofactor_step(t0, t1, alpha, q, beta, dom)
        if d:  # an equal-degree first step keeps c = -1
            c = ((-psi) ** d).exquo(c ** (d - 1))
    return r0, s0, t0


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
    # canonical denominators have integer coefficients, so den is an integer
    # polynomial over 1, already canonical: skip field.new's cancel
    return field.raw_new(den.set_ring(field.ring))


def resultant_sylvester(P, Q, var):
    """Determinant of the Sylvester matrix of P, Q in `var` (P-block rows first).

    P and Q are scaled to primitive polynomials kP*P, kQ*Q over
    ZZ[remaining variables and parameters], as in `extended_euclid`, and
    the determinant is taken there by fraction-free Bareiss elimination,
    whose divisions are exact.  Scaling P scales its n rows, so the result
    is that determinant over kP^n * kQ^m.  It is free of `var` and vanishes
    exactly when P and Q share a factor of positive degree in `var`.
    """
    ring = P.ring
    if P.ring != Q.ring:
        raise ValueError("operands in different rings")
    m = P.degree_in(var)
    n = Q.degree_in(var)
    if m < 1 or n < 1:
        raise ValueError("resultant needs positive degree in the variable")
    dom = _euclid_domain(ring, var)
    pc, kP = _integral_coeffs(P, var, dom)
    qc, kQ = _integral_coeffs(Q, var, dom)
    size = m + n
    mat = [[dom.zero for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for k in range(m + 1):
            mat[i][i + k] = pc[k]
    for j in range(m):
        for k in range(n + 1):
            mat[n + j][j + k] = qc[k]
    det = _bareiss_det(mat, dom.one, lambda c: not c, dom.exquo)
    res = _from_poly_coeffs([det], ring, var)
    return res.scale(1 / (kP**n * kQ**m))


def _work_ring(ring):
    """Two working variables; everything else moves into the parameter block."""
    return Ring(ring.variables[:2], ring.variables[2:] + ring.params)


def _to_work(p, work):
    """Reinterpret p in `work`, which keeps p's first `work.nvars` variables.

    The work ring's parameters are p's other variables followed by p's
    parameters, so each coefficient is rebuilt from exponent tuples.
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
    a = a_raw.scale(1 / u)
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
        # both as elements of QQ(variables, parameters), a ring with no variables
        rational = Ring((), work.variables + work.params)
        ratio = _to_work(res, rational).constant_term() / _to_work(r2, rational).constant_term()
        ratio = str(ratio).replace(" ", "")
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
