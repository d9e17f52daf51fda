"""Multivariate division, Buchberger's algorithm and the ideal toolkit.

Everything is deterministic: S-pairs are selected by minimal lcm degree with a
lexicographic tie-break on the lcm monomial, so the reduced basis returned for
a given generator list and order is always the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .poly import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    Ring,
    RingMismatchError,
    block_order,
    grevlex_order,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


@dataclass
class DivisionResult:
    """f = sum(quotients[i] * divisors[i]) + remainder."""

    quotients: list
    remainder: Polynomial


def normal_form(f, basis, order=GREVLEX):
    """Divide f by the list `basis`, returning quotients and remainder.

    No remainder term is divisible by any divisor's leading term; against a
    reduced Groebner basis the remainder is the canonical normal form.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        raise ValueError("division requires a nonempty basis")
    ring = f.ring
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("divisor in a different ring")
    leads = [g.leading_term(order) for g in basis]
    quotients = [ring.zero() for _ in basis]
    remainder = {}
    work = dict(f.terms)
    while work:
        exps = max(work, key=order.key)
        coeff = work.pop(exps)
        for i, (lm, lc) in enumerate(leads):
            if monomial_divides(lm, exps):
                t_exps = monomial_div(exps, lm)
                t_coeff = ring.coeff_div(coeff, lc)
                quotients[i] = quotients[i] + Polynomial(ring, {t_exps: t_coeff})
                sub = basis[i].term_mul(t_exps, t_coeff)
                for e, c in sub.terms.items():
                    if e == exps:
                        continue
                    if e in work:
                        s = ring.coeff_add(work[e], ring.coeff_neg(c))
                        if ring.coeff_is_zero(s):
                            del work[e]
                        else:
                            work[e] = s
                    else:
                        work[e] = ring.coeff_neg(c)
                break
        else:
            remainder[exps] = coeff
    return DivisionResult(quotients, Polynomial(ring, remainder))


def reduce_poly(f, basis, order=GREVLEX):
    if not basis:
        return f
    return normal_form(f, basis, order).remainder


def s_polynomial(f, g, order=GREVLEX):
    ring = f.ring
    lmf, lcf = f.leading_term(order)
    lmg, lcg = g.leading_term(order)
    lcm = monomial_lcm(lmf, lmg)
    tf = f.term_mul(monomial_div(lcm, lmf), ring.coeff_div(ring.coeff(1), lcf))
    tg = g.term_mul(monomial_div(lcm, lmg), ring.coeff_div(ring.coeff(1), lcg))
    return tf - tg


def _monic(f, order):
    return f.scale(f.ring.coeff_div(f.ring.coeff(1), f.leading_coeff(order)))


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Normal selection strategy (minimal lcm degree, lex tie-break on the lcm),
    with Buchberger's coprimality and chain criteria.
    """
    ring = None
    basis = []
    for g in gens:
        if ring is None:
            ring = g.ring
        elif g.ring != ring:
            raise RingMismatchError("generators in different rings")
        if not g.is_zero():
            basis.append(_monic(g, order))
    if not basis:
        return []
    basis = _interreduce(basis, order)

    def pair_key(i, j):
        lcm = monomial_lcm(basis[i].leading_monomial(order), basis[j].leading_monomial(order))
        return (sum(lcm), lcm, i, j)

    pairs = {(i, j) for i, j in combinations(range(len(basis)), 2)}
    done = set()
    while pairs:
        i, j = min(pairs, key=lambda p: pair_key(*p))
        pairs.discard((i, j))
        done.add((i, j))
        lmi = basis[i].leading_monomial(order)
        lmj = basis[j].leading_monomial(order)
        lcm = monomial_lcm(lmi, lmj)
        if lcm == monomial_mul(lmi, lmj):
            continue  # coprime leading terms
        if _chain_criterion(i, j, lcm, basis, order, done):
            continue
        rem = reduce_poly(s_polynomial(basis[i], basis[j], order), basis, order)
        if not rem.is_zero():
            basis.append(_monic(rem, order))
            k = len(basis) - 1
            pairs.update((m, k) for m in range(k))
    return _interreduce(basis, order)


def _chain_criterion(i, j, lcm, basis, order, done):
    for k in range(len(basis)):
        if k in (i, j):
            continue
        if not monomial_divides(basis[k].leading_monomial(order), lcm):
            continue
        a, b = min(i, k), max(i, k)
        c, d = min(j, k), max(j, k)
        if (a, b) in done and (c, d) in done:
            return True
    return False


def _interreduce(basis, order):
    """Fully reduce each element against the others, preserving the ideal."""
    basis = [_monic(g, order) for g in basis if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        basis.sort(key=lambda g: order.key(g.leading_monomial(order)))
        for idx in range(len(basis)):
            others = basis[:idx] + basis[idx + 1 :]
            if not others:
                continue
            red = reduce_poly(basis[idx], others, order)
            if red != basis[idx]:
                changed = True
                if red.is_zero():
                    basis = others
                else:
                    basis[idx] = _monic(red, order)
                break
    basis.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return basis


class Ideal:
    """Ideal given by generators.

    Reduced Groebner bases are cached per order in `_gb`, and
    `complexes.minimal_resolution` caches the minimal free resolution per
    order in `_resolutions`.
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
