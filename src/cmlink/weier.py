"""Weierstrass preparation, extended Euclid and the current recipe.

For a codimension-2 complete intersection (f1, f2) the pipeline moves to
coordinates in which f1 is regular in the first variable, factors it as
unit * P1 with P1 a Weierstrass polynomial, runs the extended Euclidean
algorithm of P1 and f2 in that variable, and prepares the last remainder
r2 = a f1 + b f2 in the second variable.  The emitted CurrentRecipe
carries (P1, N1), (r2, P2, N2), the Bezout pair (a, b) and the exact
constants gamma, C1, C2.

Everything between the inputs and the outputs runs on dense coefficient
lists over ZZ[others] (the remaining variables, then the parameters): a
polynomial is cleared to such a list and a scale num/den, with num in
ZZ[others] and den a positive integer.  A changed generator is cleared
once, in the input ring, and its working-ring polynomial is built from that
list (`_to_work`); the pipeline goes on with the list.  Euclid runs Brown's
subresultant recurrence there, dividing every remainder and one cofactor by
the same beta exactly, so no gcd is taken inside the loop; the other
cofactor is an exact division at the end, and one joint content and a sign
make (g, a, b) canonical.  The Sylvester determinant over the same lists
is the resultant of sympy's subresultant PRS, O((m+n)^2) steps against an
elimination's O((m+n)^3).  The recipe's checks stay exact and stay
on the lists too: `unit * P == f`, the Bezout identity a*g1 + b*g2 == r2
and the Sylvester ratio clear each side again and cross-multiply the
scales.  Field coefficients (QQ(params)) are made only for the polynomials
a caller gets back.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.densearith import dup_add, dup_exquo, dup_mul, dup_mul_ground, dup_pdiv, dup_sub
from sympy.polys.densetools import dup_content
from sympy.polys.euclidtools import dup_prs_resultant

from .groebner import GREVLEX, Ideal, ideal_codim
from .poly import (
    LinearChange,
    OriginPoleError,
    Polynomial,
    Ring,
    RingMismatchError,
    SingularMatrixError,
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
        if not _sum_of_products_is([(self.unit, self.weierstrass)], self.original, self.var):
            raise ValueError("unit * P does not reproduce the original")


def _weierstrass_unit(f, var):
    """Degree n and unit u of the factorization f = u * P of `weierstrass_ready`,
    after checking that it exists; P itself is not built."""
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
    for k in range(n):
        # P's coefficient of var^k is f's over u, and u has neither a zero
        # nor a pole at the origin: it vanishes there exactly when f's does
        low = f.coefficient_in(var, k)
        c = low.constant_term()
        try:
            at_origin = ring.coeff_at_origin(c)
        except OriginPoleError:
            at_origin = ring.coeff_at_origin(c / u)  # P's coefficient has the pole too
        if at_origin != 0:
            raise NotRegularError(
                f"coefficient of {ring.variables[var]}^{k} does not vanish "
                "at the origin",
                witness=low.scale(1 / u),
            )
    return n, u


def weierstrass_ready(f, var):
    """Factor f = unit * P with P a Weierstrass polynomial in variable `var`.

    The leading coefficient in `var` must lie in the coefficient field and be
    invertible at the origin, and the lower coefficients of P must vanish at
    the origin; otherwise NotRegularError asks for a coordinate change.
    """
    return _prepared(f, var, _cleared(f, var, _euclid_domain(f.ring, var))[0])


def _prepared(f, var, coeffs):
    """`weierstrass_ready(f, var)`, given f's cleared list `coeffs` (see `_cleared`)."""
    n, u = _weierstrass_unit(f, var)
    ring = f.ring
    # the cleared list is a multiple of f, so dividing it by its leading
    # entry (a multiple of u, free of the other variables) gives the monic P
    return WeierstrassForm(f, ring.constant(u), _from_poly_coeffs(coeffs, ring, var, coeffs[0]),
                           n, var)


def _euclid_domain(ring, var):
    """ZZ[others]: the other ring variables, then the parameters (or none),
    built once per Ring object and kept on it, as its field is."""
    if var not in ring._integer_rings:
        names = [v for i, v in enumerate(ring.variables) if i != var] + list(ring.params)
        ring._integer_rings[var] = sympy.ZZ[tuple(sympy.Symbol(n) for n in names)]
    return ring._integer_rings[var]


def _cleared(p, var, dom):
    """p as a dense polynomial in `var` over dom = ZZ[others], and its scale.

    Returns (coeffs, num, den) with coeffs = (num / den) * p.  coeffs lists
    the coefficients, highest degree first, with integer content 1.  num in
    dom is the ZZ-lcm of the parameter denominators (free of the other ring
    variables) times the lcm of the integer denominators left after that;
    den > 0 is the integer content.  The zero polynomial gives ([], 1, 1).
    """
    ring = p.ring
    if p.is_zero():
        return [], dom.one, 1
    others = [i for i in range(ring.nvars) if i != var]
    acc = {}  # degree in var -> {monomial in the other symbols -> rational}
    field = ring.field
    if field is None:
        for exps, c in p.terms.items():
            acc.setdefault(exps[var], {})[tuple(exps[i] for i in others)] = c
        dp = {(): 1}
    else:
        # multiply each numerator by dp / its denominator, a polynomial of
        # ZZ[params] because dp is their lcm there: no gcd is taken
        dp = _param_denominator_lcm(p).numer
        quotients = {dp: None}
        for exps, c in p.terms.items():
            numer = c.numer
            if c.denom not in quotients:
                quotients[c.denom] = dp.exquo(c.denom)
            mult = quotients[c.denom]
            if mult is not None:
                numer = numer * mult
            head = tuple(exps[i] for i in others)
            sub = acc.setdefault(exps[var], {})
            for pm, q in numer.items():
                sub[head + pm] = q
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
    pad = (0,) * len(others)
    num = dom.ring.from_dict({pad + m: int(q.numerator) * lcm for m, q in dp.items()})
    return coeffs, num, content


def _from_poly_coeffs(coeff_list, ring, var, den=1):
    """Ring polynomial from descending coefficients in ZZ[others], over den.

    Exponents of the other ring variables go back into the monomial; the
    parameter exponents build each coefficient's numerator in the ring's
    field.  den is a nonzero integer or an element of ZZ[others] free of the
    other ring variables; each coefficient is made canonical over it.
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
    if not isinstance(den, int) and den.is_ground:
        den = int(den.LC)
    if isinstance(den, int) and den < 0:
        den, acc = -den, {key: {m: -q for m, q in sub.items()} for key, sub in acc.items()}
    field = ring.field
    if field is None:
        return Polynomial(ring, {key: Fraction(int(sub[()]), den) for key, sub in acc.items()})
    fring = field.ring
    if not isinstance(den, int):
        den = fring.from_dict({m[split:]: q for m, q in den.items()})
        return Polynomial(ring, {key: field.new(fring.from_dict(sub), den)
                                 for key, sub in acc.items()})
    # an integer-coefficient numerator over a positive integer is canonical
    # once their common integer factor is gone, so skip field.new's cancel
    terms = {}
    for key, sub in acc.items():
        h = math.gcd(den, *sub.values())
        if h != 1:
            sub = {m: q // h for m, q in sub.items()}
        terms[key] = field.raw_new(fring.from_dict(sub),
                                   fring.one if den == h else fring.ground_new(den // h))
    return Polynomial(ring, terms)


def _sum_of_products_is(pairs, rhs, var):
    """sum of x*y over the (x, y) in `pairs` equals rhs, for polynomials of one ring.

    Each polynomial is cleared to its list X over ZZ[others] with x = X*den/num;
    multiplying through by rhs's num and every pair's nums leaves an identity
    of lists over ZZ[others], which is decided exactly.
    """
    ring = rhs.ring
    for x, y in pairs:
        if x.ring != ring or y.ring != ring:
            raise RingMismatchError(f"{x.ring!r} vs {y.ring!r} vs {ring!r}")
    dom = _euclid_domain(ring, var)
    pairs = [(_cleared(x, var, dom), _cleared(y, var, dom)) for x, y in pairs]
    rhs, num_r, den_r = _cleared(rhs, var, dom)
    nums = [x[1] * y[1] for x, y in pairs]
    lhs = []
    for i, ((xs, _, den_x), (ys, _, den_y)) in enumerate(pairs):
        mult = num_r * (den_x * den_y)
        for j, num in enumerate(nums):
            if j != i:
                mult *= num
        lhs = dup_add(lhs, dup_mul_ground(dup_mul(xs, ys, dom), mult, dom), dom)
    mult = dom.convert(den_r)
    for num in nums:
        mult *= num
    return not dup_sub(lhs, dup_mul_ground(rhs, mult, dom), dom)


def bezout_holds(a, P, b, Q, g, var):
    """a*P + b*Q == g, decided on cleared coefficient lists over ZZ[others]."""
    return _sum_of_products_is([(a, P), (b, Q)], g, var)


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
    Q's cofactor lc(r1)^(d+1) t0 - q t1 by the same beta = -psi c^d.  Here
    psi is the previous leading coefficient (1 at first) and c (-1 at
    first) becomes (-lc(r1))^d / c^(d-1).  The divisions are exact,
    because the cofactors of a subresultant are minors of the Sylvester
    matrix; an inexact one raises.  P's cofactor is (g - t Q) / P, exactly.

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
    p1, num_p, den_p = _cleared(P, var, dom)
    p2, num_q, den_q = _cleared(Q, var, dom)
    g, s, t = _euclid_lists(p1, p2, dom)
    # g = s * (num_p/den_p) P + t * (num_q/den_q) Q
    return (_from_poly_coeffs(g, ring, var),
            _from_poly_coeffs(dup_mul_ground(s, num_p, dom), ring, var, den_p),
            _from_poly_coeffs(dup_mul_ground(t, num_q, dom), ring, var, den_q))


def _euclid_lists(p1, p2, dom):
    """`extended_euclid` on dense polynomials over dom: (g, s, t) with
    g = s*p1 + t*p2, over their joint content with g's leading coefficient
    positive."""
    g, s, t = _subresultant_euclid(p1, p2, dom)
    cont = dup_content([*g, *s, *t], dom)  # one running gcd; it stops at a unit
    if dom.is_negative(g[0]) != dom.is_negative(cont):
        cont = -cont
    return [_exquo(f, cont) for f in (g, s, t)]


def _subresultant_euclid(p1, p2, dom):
    """The loop of `extended_euclid` on dense polynomials over dom: the last
    remainder g of the subresultant PRS and (s, t) with g = s*p1 + t*p2.

    Only t is carried through the loop.  s is (g - t*p2) / p1, and that
    division checks the Bezout identity: it raises unless it is exact.
    """
    r0, r1, t0, t1 = p1, p2, [], [dom.one]
    if len(r0) < len(r1):
        r0, r1, t0, t1 = r1, r0, t1, t0
    psi, c = dom.one, -dom.one
    while r1:
        d = len(r0) - len(r1)
        beta = -psi * c**d
        psi = r1[0]
        alpha = psi ** (d + 1)
        q, r = dup_pdiv(r0, r1, dom)  # alpha * r0 = q * r1 + r
        r0, r1 = r1, _exquo(r, beta)
        t0, t1 = t1, _cofactor_step(t0, t1, alpha, q, beta, dom)
        if d:  # an equal-degree first step keeps c = -1
            c = ((-psi) ** d).exquo(c ** (d - 1))
    return r0, dup_exquo(dup_sub(r0, dup_mul(t0, p2, dom), dom), p1, dom), t0


def _param_denominator_lcm(p):
    """Least common multiple over ZZ of the coefficient denominators of p, a
    polynomial over a parameter field, as a coefficient of its ring."""
    field = p.ring.field
    if None not in p.ring._integer_rings:  # ZZ[params], built once per Ring
        p.ring._integer_rings[None] = field.ring.clone(domain=sympy.ZZ)
    zz = p.ring._integer_rings[None]
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
    the determinant is taken there as the resultant of the subresultant
    PRS (`_sylvester_det`), in O((m+n)^2) exact pseudo-division steps.
    Scaling P scales its n rows, so the result is that determinant over
    kP^n * kQ^m.  It is free of `var` and vanishes exactly when P and Q
    share a factor of positive degree in `var`.
    """
    ring = P.ring
    if P.ring != Q.ring:
        raise ValueError("operands in different rings")
    m = P.degree_in(var)
    n = Q.degree_in(var)
    if m < 1 or n < 1:
        raise ValueError("resultant needs positive degree in the variable")
    dom = _euclid_domain(ring, var)
    pc, num_p, den_p = _cleared(P, var, dom)
    qc, num_q, den_q = _cleared(Q, var, dom)
    det = _sylvester_det(pc, qc, dom)
    # kP = num_p/den_p and kQ = num_q/den_q
    return _from_poly_coeffs([det * (den_p**n * den_q**m)], ring, var, num_p**n * num_q**m)


def _sylvester_det(pc, qc, dom):
    """Sylvester determinant of dense pc, qc over dom, pc's rows first, by sympy's
    PRS; it swaps them when deg pc < deg qc, a sign (-1)^(deg pc deg qc)."""
    m, n = len(pc) - 1, len(qc) - 1
    det = dup_prs_resultant(pc, qc, dom)[0]
    return -det if m < n and m * n % 2 else det


def _work_ring(ring):
    """Two working variables; everything else moves into the parameter block."""
    return Ring(ring.variables[:2], ring.variables[2:] + ring.params)


def _to_work(p, work):
    """(p in `work`, `_cleared` of p in its first variable): p is cleared once,
    over ZZ[others] of both rings, and its work-ring polynomial built from that."""
    coeffs, num, den = cleared = _cleared(p, 0, _euclid_domain(work, 0))
    return _from_poly_coeffs([c * den for c in coeffs], work, 0, num), cleared


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
    """One attempt at the full preparation; raises NotRegularError on failure.

    Returns g1, g2, their Weierstrass forms, r2, a, b and the Sylvester ratio.
    """
    g1, (p1, num_1, den_1) = _to_work(apply_linear_change(f1, change), work)
    g2, (p2, num_2, den_2) = _to_work(apply_linear_change(f2, change), work)
    wf1 = _prepared(g1, 0, p1)
    dom = _euclid_domain(work, 0)
    # P1 = g1/u is monic, so its primitive list is g1's over their content,
    # a divisor of the leading entry; Euclid on it is Euclid on P1
    content = _lead_content(p1, dom)
    if content != 1:
        p1 = _exquo(p1, content)
    g, s, t = _euclid_lists(p1, p2, dom)
    r2 = _from_poly_coeffs(g, work, 0)
    if r2.is_zero():
        raise ValueError("Euclid collapsed to zero; inputs share a component")
    if r2.involves(0):
        raise ValueError(
            "inputs share a factor of positive degree in the first variable; "
            "not a codimension-2 complete intersection"
        )
    wf2 = weierstrass_ready(r2, 1)
    # r2 = s*p1 + t*p2 with p1 = num_1/(den_1*content) g1 and p2 = num_2/den_2 g2
    a = _from_poly_coeffs(dup_mul_ground(s, num_1, dom), work, 0, content * den_1)
    b = _from_poly_coeffs(dup_mul_ground(t, num_2, dom), work, 0, den_2)
    if not bezout_holds(a, g1, b, g2, r2, 0):
        raise ArithmeticError("Bezout identity failed on the recipe's outputs")
    ratio = None
    if len(p2) > 1:
        ratio = _sylvester_ratio(p1, (p2, num_2, den_2), g[0], dom)
    return g1, g2, wf1, wf2, r2, a, b, ratio


def _lead_content(coeffs, dom):
    """Content over dom of a dense polynomial whose leading entry is free of
    the other ring variables; 1 when that entry is an integer."""
    c = coeffs[0]
    for f in coeffs[1:]:
        if c.is_ground:
            return dom.one
        if f:
            c = dom.gcd(c, f)
    return dom.one if c.is_ground else c


def _sylvester_ratio(p1, cleared_g2, r2_entry, dom):
    """res(P1, g2) / r2 in QQ(variables, parameters), as printed in the recipe.

    p1 is k * P1 with k its leading entry, because P1 is monic, and p2 is
    (num/den) * g2; so the Sylvester determinant of p1 and p2 (sympy's PRS,
    which shares no code with `_subresultant_euclid`) is k^n (num/den)^m
    res(P1, g2) with m, n the degrees of P1 and g2.  r2 is its single entry
    r2_entry.  Both are free of the first variable, so the quotient is made
    canonical once, in the fraction field of dom.
    """
    p2, num, den = cleared_g2
    m, n = len(p1) - 1, len(p2) - 1
    det = _sylvester_det(p1, p2, dom)
    ratio = dom.ring.to_field().new(det * den**m, r2_entry * p1[0] ** n * num**m)
    return str(ratio).replace(" ", "")


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
            _weierstrass_unit(_to_work(apply_linear_change(f1, first), work)[0], 0)
        except NotRegularError as exc:
            failures.append(f"first stage: {exc}")
            continue
        for second in _second_changes(n, rng, 8):
            if attempts >= max_tries:
                break
            attempts += 1
            change = first.compose(second)
            try:
                g1, g2, wf1, wf2, r2, a, b, ratio = _run_pipeline(f1, f2, change, work)
            except NotRegularError as exc:
                failures.append(f"second stage: {exc}")
                continue
            result = (first, second, change, g1, g2, wf1, wf2, r2, a, b, ratio)
            break
    if result is None:
        raise RecipeError(
            f"no regular coordinates found in {attempts} attempts; "
            f"failures: {failures[-3:]}"
        )
    first, second, change, g1, g2, wf1, wf2, r2, a, b, ratio = result
    n1, n2 = wf1.degree, wf2.degree
    gamma = n2 + 1
    c1 = Fraction((-1) ** (n1 * gamma) * math.factorial(n1 * gamma))
    c2 = -Fraction((-1) ** n2) * c1 / math.factorial(n2)
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
