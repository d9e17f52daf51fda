"""Multivariate division, reduced Groebner bases and the ideal toolkit.

A polynomial is a vector of one entry: division is `modules.module_normal_form`
and Buchberger's algorithm is the pair loop of `modules`, which skips pairs by
the coprime and chain criteria at rank 1.  Colon ideals and intersections are
read off one module basis that carries no tail (`modules._quotient_ideal`),
where the loop skips pairs by the chain criterion too.  Everything is
deterministic: S-pairs are selected by minimal lcm degree with a
lexicographic tie-break on the lcm monomial, and the reduced basis is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .modules import (
    _quotient_ideal,
    _reduced_basis,
    _s_polynomial,
    divides_to_zero,
    module_normal_form,
    products_divide_to_zero,
)
from .poly import (
    GREVLEX,
    Polynomial,
    RingMismatchError,
    block_order,
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
    divisors are dropped, and the quotients follow the remaining ones; a
    basis with no nonzero element raises ValueError.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        raise ValueError("division requires a nonempty basis")
    if any(g.ring != f.ring for g in basis):
        raise RingMismatchError("divisor in a different ring")
    quotients, rem = module_normal_form([f], [[g] for g in basis], order)
    return DivisionResult(quotients, rem[0])


def s_polynomial(f, g, order=GREVLEX):
    """x^tf * f / lc(f) - x^tg * g / lc(g), the monomials taking both leads to their lcm.

    Built by the pair loop's S-vector builder (`modules._s_polynomial`).
    """
    if f.ring != g.ring:
        raise RingMismatchError("polynomials in different rings")
    return _s_polynomial(f, g, order)


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by `gens`, in descending order.

    The pair loop of `modules` on the generators as vectors of one entry,
    without representations, made reduced in one pass (`modules._reduced_basis`).
    """
    gens = list(gens)
    if any(g.ring != gens[0].ring for g in gens):
        raise RingMismatchError("generators in different rings")
    return _reduced_basis(gens, order)[0]


class Ideal:
    """Ideal given by generators.

    Reduced Groebner bases are cached per order in `_gb`, each with the
    divisors that `modules._reduced_basis` built with it, by which every
    membership test decides; `complexes.free_resolution` caches the free
    resolutions per order, and with and without minimalizing, in
    `_resolutions`.
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
        return self._basis(order)[0]

    def _basis(self, order):
        """(reduced Groebner basis, its divisors), built once per order."""
        cached = self._gb.get(order)
        if cached is None:
            cached = self._gb[order] = _reduced_basis(self.gens, order)
        return cached

    def is_zero(self):
        return not self.gens

    def is_unit(self, order=GREVLEX):
        gb = self.groebner_basis(order)
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def contains(self, g, order=GREVLEX):
        """Whether g lies in the ideal: its remainder by the reduced basis is zero.

        Decided by `modules.divides_to_zero`, which stops at the first
        remainder term (a remainder term is final, so that term alone shows
        g is not a member) and builds no quotient.  g must lie in the
        ideal's ring (RingMismatchError otherwise).
        """
        self._check_ring(g)
        if g.is_zero():
            return True
        return divides_to_zero([g], self._basis(order)[1])

    def contains_products(self, g, factors, order=GREVLEX):
        """Whether h * g lies in the ideal for every h in `factors` (True for none).

        g is cleared to numerators once, and each product is summed into one
        numerator dict for the decider (`modules.products_divide_to_zero`);
        no product Polynomial is built.  g and every factor must lie in the
        ideal's ring (RingMismatchError otherwise).
        """
        factors = list(factors)
        for p in [g, *factors]:
            self._check_ring(p)
        factors = [h for h in factors if not h.is_zero()]
        if g.is_zero() or not factors:
            return True
        return products_divide_to_zero(g, factors, self._basis(order)[1])

    def _check_ring(self, p):
        if p.ring != self.ring:
            raise RingMismatchError(f"polynomial in {p.ring!r}, ideal in {self.ring!r}")

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
    """I ∩ J, as its reduced grevlex basis.

    The ideal of h with h·1 ∈ I and h·1 ∈ J, read off one module basis
    (`modules._quotient_ideal`, SCA Lemma 2.8.2) with no extra variable.
    The ideal returned holds that basis (`_reduced_ideal`).
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    one = I.ring.one()
    gens = _quotient_ideal([one, one], [I.groebner_basis(GREVLEX), J.groebner_basis(GREVLEX)])
    return _reduced_ideal(gens, GREVLEX, I.ring)


def divide_exact(p, d, order=GREVLEX):
    """Exact quotient p/d; raises if the division leaves a remainder."""
    res = normal_form(p, [d], order)
    if not res.remainder.is_zero():
        raise ArithmeticError("inexact division where exactness was promised")
    return res.quotients[0]


def ideal_colon(I, J, order=GREVLEX):
    """Colon ideal I : J = { r | rJ ⊆ I }, as its reduced basis under `order`.

    The ideal of h with h·g ∈ I for every generator g of J, read off one
    module basis for all of J (`modules._quotient_ideal`, SCA Lemma 2.8.4).
    The ideal returned holds that basis (`_reduced_ideal`).
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    if J.is_zero():
        raise ValueError("colon by the zero ideal")
    gens = _quotient_ideal(J.gens, [I.groebner_basis(GREVLEX)] * len(J.gens))
    return _reduced_ideal(gens, order, I.ring)


def _reduced_ideal(gens, order, ring):
    """The Ideal generated by its reduced basis of `gens` under `order`.

    The basis and its divisors, as `modules._reduced_basis` built them, are
    cached on the ideal for `order`, so its first membership test runs no
    pair loop.
    """
    cached = _reduced_basis(gens, order)
    ideal = Ideal(cached[0], ring)
    ideal._gb[order] = cached
    return ideal


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
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            if all(any(e[i] for i in range(n) if i not in inside) for e in leads):
                return size
    return 0
