"""Independent checks of cmlink's outputs, computed with sympy.

Each checker takes the inputs of one operation and what cmlink returned, and
raises CheckFailure when the output is wrong.  The reference values are
computed here, at run time and outside the timed passes: reduced Groebner
bases by `sympy.groebner`, membership by `GroebnerBasis.contains`, products
of differentials and Sylvester determinants by `sympy.Matrix` arithmetic on
matrices this module builds itself.  Nothing is compared with a stored copy
of an earlier cmlink output.
"""

from __future__ import annotations

import sympy


class CheckFailure(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


class SymRing:
    """sympy view of a cmlink ring: generator symbols plus parameter symbols."""

    def __init__(self, names, params=()):
        self.gens = tuple(sympy.Symbol(n) for n in names)
        self.params = tuple(sympy.Symbol(n) for n in params)
        self.locals = {str(s): s for s in (*self.gens, *self.params)}
        self.domain = (
            sympy.QQ.frac_field(*self.params) if self.params else sympy.QQ
        )

    def expr(self, text):
        return sympy.sympify(text.replace("^", "**"), locals=self.locals)

    def poly(self, text):
        e = self.expr(text) if isinstance(text, str) else text
        return sympy.Poly(sympy.cancel(e), *self.gens, domain=self.domain)

    def groebner(self, texts, order="grevlex"):
        exprs = [self.expr(t) if isinstance(t, str) else t for t in texts]
        return sympy.groebner(exprs, *self.gens, order=order, domain=self.domain)

    def monic_set(self, items):
        return {self.poly(t).monic() for t in items}

    def same_ideal(self, a, b):
        return set(self.groebner(a).exprs) == set(self.groebner(b).exprs)

    def is_zero(self, e):
        return sympy.cancel(sympy.expand(e)) == 0


# -- linkage -----------------------------------------------------------------


def check_gb(sr, gens, order, report):
    """The reduced basis equals sympy's, compared as sets of monic polynomials."""
    require(report.get("command") == "gb", "not a gb report")
    ref = sr.groebner(gens, order=order)
    got = sr.monic_set(report["groebner_basis"])
    require(
        got == sr.monic_set(ref.exprs),
        f"{order} basis differs from sympy.groebner: {report['groebner_basis']}",
    )


def check_link(sr, j_gens, i_gens, report, colon=None):
    """Linkage report: every h*g lies in I, and I : J = I + (top entries).

    `colon`, when given, is a known generating set of I : J modulo I.
    """
    require(report.get("ok") is True, f"link report not ok: {report.get('error')}")
    require(report["double_link_holds"] and report["decomposition_holds"],
            "link report flags a failed identity")
    require(sr.same_ideal(report["I"], i_gens), "report I differs from the input")
    require(sr.same_ideal(report["J"], j_gens), "report J differs from the input")
    gi = sr.groebner(i_gens)
    gj = sr.groebner(j_gens)
    for f in i_gens:
        require(gj.contains(sr.expr(f)), f"I is not inside J: {f}")
    tops = [sr.expr(h) for h in report["L_top_entries"]]
    require(any(not sr.is_zero(h) for h in tops), "all top entries vanish")
    for h in tops:
        for g in j_gens:
            require(gi.contains(sympy.expand(h * sr.expr(g))),
                    f"top entry {h} times {g} is not in I")
    require(sr.same_ideal(report["K_colon"], list(i_gens) + report["L_top_entries"]),
            "I : J differs from I + (top entries)")
    if colon is not None:
        require(sr.same_ideal(report["K_colon"], list(i_gens) + list(colon)),
                "I : J differs from the paper's I + (x^3 - yz, y^2 - xz)")


# -- membership --------------------------------------------------------------


def check_membership(verdicts, expected):
    """All verdicts equal the reference (True for constructed members)."""
    for method, verdict in verdicts.items():
        require(verdict is expected,
                f"{method} membership says {verdict}, reference says {expected}")


# -- resolution --------------------------------------------------------------


def parse_matrix(sr, text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    rows, cols = int(head[1]), int(head[2])
    entries = [[sr.expr(e) for e in ln.split(";")] for ln in lines[1:]]
    require(len(entries) == rows and all(len(r) == cols for r in entries),
            "differential text does not match its header")
    return sympy.Matrix(rows, cols, [e for r in entries for e in r])


def check_resolution(sr, gens, ranks, codim, report):
    require(report.get("command") == "resolve", "not a resolve report")
    require(report["ranks"] == ranks, f"ranks {report['ranks']}, expected {ranks}")
    require(report["exact"] is True, "resolution reported inexact")
    require(report["minimal"] is True, "resolution reported not minimal")
    require(report["cohen_macaulay"] is True, "ideal reported not Cohen-Macaulay")
    require(report["codim"] == codim, f"codim {report['codim']}, expected {codim}")
    mats = [parse_matrix(sr, t) for t in report["differentials"]]
    require([1] + [d.shape[1] for d in mats] == ranks, "differential shapes")
    origin = {g: 0 for g in sr.gens}
    for d in mats:
        require(all(e.subs(origin) == 0 for e in d), "a differential entry is a unit")
    for a, b in zip(mats, mats[1:]):
        prod = (a * b).applyfunc(sympy.expand)
        require(prod.is_zero_matrix, "d_k * d_(k+1) != 0")
    require(sr.same_ideal(list(mats[0]), gens), "d_1 does not generate the ideal")


# -- params ------------------------------------------------------------------


def _order_at_origin(sr, text, var, others):
    """Degree of the single term of text restricted to var (others and params = 0)."""
    zero = {s: 0 for s in (*others, *sr.params)}
    e = sympy.expand(sympy.cancel(sr.expr(text)).subs(zero))
    p = sympy.Poly(e, var)
    require(len(p.terms()) == 1, f"{text} is not c*{var}^N at the origin")
    return p.degree()


def check_recipe(report, expected_n=None):
    require(report.get("ok") is True, f"recipe failed: {report.get('error')}")
    head = report["ring"].split()
    names = head[1].split(",")
    params = head[3][3:-1].split(",") if head[3] != "QQ" else []
    sr = SymRing(names, [p for p in params if p])
    x, y = sr.gens[0], sr.gens[1]
    n1, n2 = report["N1"], report["N2"]
    if expected_n is not None:
        require((n1, n2) == expected_n, f"(N1, N2) = {(n1, n2)}, expected {expected_n}")
    g1, g2, a, b, r2 = (sr.expr(report[k]) for k in ("g1", "g2", "a", "b", "r2"))
    require(sr.is_zero(a * g1 + b * g2 - r2), "a*g1 + b*g2 != r2")
    require(x not in sympy.cancel(r2).free_symbols, "r2 involves the first variable")
    require(_order_at_origin(sr, report["g1"], x, sr.gens[1:]) == n1,
            "N1 is not the order of g1 in the first variable")
    require(_order_at_origin(sr, report["r2"], y, sr.gens[2:]) == n2,
            "N2 is not the order of r2 in the second variable")
    p1 = sympy.Poly(sympy.cancel(sr.expr(report["P1"])), x)
    p2 = sympy.Poly(sympy.cancel(sr.expr(report["P2"])), y)
    require(p1.degree() == n1 and p1.LC() == 1, "P1 is not monic of degree N1")
    require(p2.degree() == n2 and p2.LC() == 1, "P2 is not monic of degree N2")


PARAM_RING = (("x",), ("s", "t"))


def check_euclid(p_text, q_text, out):
    """g = a*P + b*Q, rechecked by sympy expand; g is nonzero."""
    sr = SymRing(*PARAM_RING)
    g, a, b = (sr.expr(t) for t in out)
    P, Q = sr.expr(p_text), sr.expr(q_text)
    require(not sr.is_zero(g), "Euclid returned g = 0")
    require(sr.is_zero(a * P + b * Q - g), "Bezout identity a*P + b*Q = g fails")


def sylvester(sr, p_text, q_text):
    """Sylvester matrix in the first generator, P-block rows first."""
    x = sr.gens[0]
    pc = sympy.Poly(sympy.cancel(sr.expr(p_text)), x).all_coeffs()
    qc = sympy.Poly(sympy.cancel(sr.expr(q_text)), x).all_coeffs()
    m, n = len(pc) - 1, len(qc) - 1
    M = sympy.zeros(m + n, m + n)
    for i in range(n):
        for k, c in enumerate(pc):
            M[i, i + k] = c
    for j in range(m):
        for k, c in enumerate(qc):
            M[n + j, j + k] = c
    return M


def check_resultant(p_text, q_text, out):
    sr = SymRing(*PARAM_RING)
    ref = sylvester(sr, p_text, q_text).det(method="domain-ge")
    require(sr.is_zero(sr.expr(out) - ref),
            "Sylvester determinant differs from sympy Matrix.det")
