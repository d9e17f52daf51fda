"""Multivariate division, reduced Groebner bases and the ideal toolkit.

A polynomial is a vector of one entry: division is `modules.module_normal_form`
and Buchberger's algorithm is the pair loop of `modules`, which skips pairs by
the coprime and chain criteria at rank 1.  Everything is deterministic: S-pairs
are selected by minimal lcm degree with a lexicographic tie-break on the lcm
monomial, and the reduced basis is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .modules import _groebner, _leading, _module_spair, module_normal_form
from .poly import (
    GREVLEX,
    Polynomial,
    Ring,
    RingMismatchError,
    block_order,
    monomial_divides,
)


@dataclass
class DivisionResult:
    """f = sum(quotients[i] * divisors[i]) + remainder."""

    quotients: list
    remainder: Polynomial


def normal_form(f, basis, order=GREVLEX):
    """Divide f by the list `basis`, returning quotients and remainder.

    No remainder term is divisible by any divisor's leading term; against a
    reduced Groebner basis the remainder is the canonical normal form.  Zero
    divisors are dropped, and the quotients follow the remaining ones.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        raise ValueError("division requires a nonempty basis")
    if any(g.ring != f.ring for g in basis):
        raise RingMismatchError("divisor in a different ring")
    quotients, rem = module_normal_form([f], [[g] for g in basis], order)
    return DivisionResult(quotients, rem[0])


def reduce_poly(f, basis, order=GREVLEX):
    if not basis:
        return f
    return normal_form(f, basis, order).remainder


def s_polynomial(f, g, order=GREVLEX):
    vecs = [[f], [g]]
    leads = [_leading(v, order) for v in vecs]
    return _module_spair(vecs, None, leads, 0, 1)[0][0]


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by `gens`, in descending order.

    The pair loop of `modules` on the generators as vectors of one entry,
    without representations.  Its basis is made reduced in one pass: drop
    each element whose leading monomial another's divides (the first of
    equal ones stays), then reduce each one left by the others.
    """
    gens = list(gens)
    if any(g.ring != gens[0].ring for g in gens):
        raise RingMismatchError("generators in different rings")
    vecs, _, leads = _groebner([[g] for g in gens], order, False)
    kept = []  # ascending, so a divisor of a leading monomial is met first
    for i in sorted(range(len(vecs)), key=lambda k: order.desc_key(leads[k][1]),
                    reverse=True):
        if not any(monomial_divides(leads[k][1], leads[i][1]) for k in kept):
            kept.append(i)
    basis = []
    for i in reversed(kept):
        others = [k for k in kept if k != i]
        _, rem = module_normal_form(vecs[i], [vecs[k] for k in others], order,
                                    [leads[k] for k in others])
        basis.append(rem[0])
    return basis


class Ideal:
    """Ideal given by generators.

    Reduced Groebner bases are cached per order in `_gb`, and
    `complexes.syzygy_resolution` and `complexes.minimal_resolution` cache
    the free resolutions per order in `_resolutions`.
    """

    def __init__(self, gens, ring=None):
        gens = list(gens)
        if ring is None:
            if not gens:
                raise ValueError("need a ring or at least one generator")
            ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generators in different rings")
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = {}
        self._resolutions = {}

    @classmethod
    def from_strings(cls, ring, texts):
        return cls([ring.poly(t) for t in texts], ring)

    def groebner_basis(self, order=GREVLEX):
        if order not in self._gb:
            self._gb[order] = buchberger(self.gens, order)
        return self._gb[order]

    def is_zero(self):
        return not self.gens

    def is_unit(self, order=GREVLEX):
        gb = self.groebner_basis(order)
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def contains(self, g, order=GREVLEX):
        if g.is_zero():
            return True
        gb = self.groebner_basis(order)
        if not gb:
            return False
        return reduce_poly(g, gb, order).is_zero()

    def contains_ideal(self, other, order=GREVLEX):
        return all(self.contains(g, order) for g in other.gens)

    def equals(self, other, order=GREVLEX):
        return self.contains_ideal(other, order) and other.contains_ideal(self, order)

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner})"


def ideal_member(g, I, order=GREVLEX):
    """Direct Groebner membership test: zero normal form against GB(I)."""
    return I.contains(g, order)


# -- ring moves used by elimination ------------------------------------------


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


def eliminate(I, k):
    """Generators of I intersected with the subring without the first k variables.

    The result is returned in the ambient ring; its generators contain none of
    the first k variables.
    """
    if k == 0:
        return Ideal(list(I.gens), I.ring)
    if k > I.ring.nvars:
        raise ValueError("cannot eliminate more variables than the ring has")
    gb = buchberger(I.gens, block_order(k)) if I.gens else []
    kept = [g for g in gb if not any(g.involves(i) for i in range(k))]
    return Ideal(kept, I.ring)


def ideal_intersect(I, J):
    """I ∩ J by the t-trick: eliminate t from t·I + (1−t)·J."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
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


def divide_exact(p, d, order=GREVLEX):
    """Exact quotient p/d; raises if the division leaves a remainder."""
    res = normal_form(p, [d], order)
    if not res.remainder.is_zero():
        raise ArithmeticError("inexact division where exactness was promised")
    return res.quotients[0]


def ideal_colon(I, J, order=GREVLEX):
    """Colon ideal I : J = { r | rJ ⊆ I }.

    Computed as the intersection over generators g of J of (I ∩ (g))/g.
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    if J.is_zero():
        raise ValueError("colon by the zero ideal")
    result = None
    for g in J.gens:
        inter = ideal_intersect(I, Ideal([g], ring))
        quot = Ideal([divide_exact(h, g, order) for h in inter.gens], ring)
        if I.is_zero() and not inter.gens:
            quot = Ideal([], ring)
        result = quot if result is None else ideal_intersect(result, quot)
    gb = result.groebner_basis(order)
    return Ideal(list(gb) if gb else [], ring)


def ideal_sum(I, J):
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    return Ideal(I.gens + J.gens, I.ring)


def ideal_codim(I, order=GREVLEX):
    """Codimension via the dimension of the leading-term ideal.

    Unit ideal reports the sentinel n+1; the zero ideal reports 0.
    """
    n = I.ring.nvars
    if I.is_zero():
        return 0
    gb = I.groebner_basis(order)
    if I.is_unit(order):
        return n + 1
    leads = [g.leading_monomial(order) for g in gb]
    dim = _monomial_dim(leads, n)
    return n - dim


def _monomial_dim(leads, n):
    """Krull dimension of k[x]/(monomials): largest independent variable set."""
    best = 0
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            if all(any(e[i] for i in range(n) if i not in inside) for e in leads):
                return size
        # no set of this size works; try smaller
    return best
