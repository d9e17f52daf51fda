"""Free modules over the polynomial ring.

Matrices of polynomials, module Groebner bases, Schreyer-style syzygy
computation, and exact lifting of a vector through the image of a matrix.
Vectors are lists of polynomials.  Inside the division and pair loops a
monomial is one int (`_Packing`), packed when it enters the engine and
unpacked when an output `Polynomial` is built; a module term is an entry
position and such an int.  No other module sees a packed monomial.  A
coefficient is a numerator over one scale per vector; only `_unpacked`,
which builds the output Polynomials, makes a field coefficient.

The module order is position-over-term, the only one used: a lower position
wins, then the ring's `MonomialOrder` on exponents.  No object stands for
it; every function takes that monomial order as `order`.

The pair loop `_groebner` and the division `module_normal_form` are the only
Buchberger loop and division loop of the package: `groebner` runs ideals
through them as vectors of one entry (`_reduced_basis`), where the order is
the ring order and the loop skips pairs by the coprime and chain criteria; a
module basis that carries no tail skips pairs by the chain criterion too, as
the one behind colon ideals and intersections (`_quotient_ideal`) does.
The division is fraction-free: it works on numerators (integers over QQ,
polynomials in the parameters over QQ(params)) and divides by the primitive
numerator copy that each basis vector gets once, when it enters its basis
(`_divisor`); a basis is the list of its copies (`_Divisors`).  The
S-vectors of the pair loop and of the Schreyer kernel are built from two
such copies as numerators over one scale (`_spair`) and go to the inner
loop of the division (`_reduce`) without a `Polynomial` in between, and a
remainder that enters a basis gets its copy straight from the numerators
`_reduce` leaves.  Membership, a question that needs no quotient, is
decided by the same loop stopped at the first remainder term
(`divides_to_zero`, `products_divide_to_zero`).

Quotients, representations, syzygies and lifts come from that one loop too,
as extra entries (the tail) of each vector, after its own entries (the
head): column j of a matrix enters the pair loop as (col_j ; e_j), and a
vector v is divided by the basis vectors b_k as (v ; 0) by (b_k ; e_k).
Every step is linear and no vector leads in its tail, so the tail of each
vector the pair loop builds holds the combination of the columns that its
head is, the tail of a remainder by (b_k ; e_k) holds the quotients,
negated, and the tail of an S-vector whose head reduces to zero is a
Schreyer syzygy.  The pair loop alone records which pairs give syzygies,
and the kernel only reads that record (`_kernel_generators`): it reduces
no pair at rank > 1, and at rank 1 only the pairs a criterion skipped.

Monomials are packed into 8-bit fields first.  One rule meets a monomial
that does not fit (`_widening`): the step that met it widens the divisors
it works with in place and runs again, and nothing else is redone.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from fractions import Fraction

from .poly import (
    GREVLEX,
    Polynomial,
    RingMismatchError,
    _accumulate,
    _bareiss_det,
    monomial_lcm,
    monomial_mul,
)


class NotInImageError(ValueError):
    """The target vector is not in the image of the matrix."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(
            "vector is not in the image; nonzero remainder "
            + str([str(p) for p in remainder])
        )


class PolyMatrix:
    """Rectangular matrix of polynomials over a shared ring.

    A matrix is treated as immutable once built, like `Ideal`: the module
    Groebner basis of its columns and the generators of its kernel are
    computed at most once per monomial order and cached on it
    (`_module_basis`, `_kernel_generators`), so every caller that divides
    by the columns or reads the kernel shares them.  Build a new matrix
    rather than edit `rows` in place.
    """

    def __init__(self, rows, ring=None):
        rows = [list(r) for r in rows]
        if ring is None:
            if not rows or not rows[0]:
                raise ValueError("need a ring for an empty matrix")
            ring = rows[0][0].ring
        for r in rows:
            for p in r:
                if p.ring != ring:
                    raise RingMismatchError("matrix entries in different rings")
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix must be rectangular")
        self.rows = rows
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols
        self._bases = {}  # monomial order -> divisors of the module basis of the columns
        self._kernels = {}  # monomial order -> kernel generators

    @classmethod
    def zero(cls, ring, nrows, ncols):
        return cls([[ring.zero()] * ncols for _ in range(nrows)], ring)

    @classmethod
    def identity(cls, ring, n):
        return cls([_unit(ring, n, i) for i in range(n)], ring)

    @classmethod
    def from_strings(cls, ring, rows):
        return cls([[ring.poly(t) for t in r] for r in rows], ring)

    @classmethod
    def from_columns(cls, columns, ring=None):
        if ring is None and columns and columns[0]:
            ring = columns[0][0].ring
        nrows = len(columns[0]) if columns else 0
        return cls(
            [[columns[j][i] for j in range(len(columns))] for i in range(nrows)], ring
        )

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def entries(self):
        return [p for r in self.rows for p in r]

    def is_zero(self):
        return all(p.is_zero() for p in self.entries())

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            if other.ring != ring:
                raise RingMismatchError("matrices in different rings")
            cols = other.columns()
            return PolyMatrix([[_dot(ring, row, col) for col in cols] for row in self.rows],
                              ring)
        # vector (list of polynomials)
        if len(other) != self.ncols:
            raise ValueError("vector length must equal the column count")
        if any(p.ring != ring for p in other):
            raise RingMismatchError("vector entries in a different ring")
        return [_dot(ring, row, other) for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in r) for r in self.rows)
        return f"PolyMatrix[{body}]"

    def to_text(self):
        """`matrix r c` header plus one row per line, entries ';'-separated."""
        lines = [f"matrix {self.nrows} {self.ncols}"]
        for r in self.rows:
            lines.append("; ".join(str(p) for p in r))
        return "\n".join(lines)


def _dot(ring, row, col):
    """sum(a * b for a, b in zip(row, col)), summed in one term dict by `_accumulate`."""
    terms = {}
    for a, b in zip(row, col):
        if a.terms and b.terms:
            bterms = b.terms.items()
            for e, c in a.terms.items():
                _accumulate(terms, bterms, e, c)
    return Polynomial(ring, terms)


def det_bareiss(M):
    """Exact determinant of a square PolyMatrix by fraction-free elimination."""
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    from .groebner import divide_exact

    return _bareiss_det(M.rows, M.ring.one(), Polynomial.is_zero, divide_exact)


# -- module term order and division -------------------------------------------


def _check_ring(vectors, ring):
    """Raise RingMismatchError when an entry of one of the vectors lies outside `ring`."""
    if any(p.ring != ring for vec in vectors for p in vec):
        raise RingMismatchError(f"vector entry outside {ring!r}")


def _vec_is_zero(vec):
    return all(p.is_zero() for p in vec)


class _IntegerNumerators:
    """QQ coefficients as integer numerators over one positive denominator."""

    @staticmethod
    def clear(coeffs):
        """(numerators, d) with coeffs[k] == numerators[k] / d."""
        d = math.lcm(*(c.denominator for c in coeffs))
        if d == 1:
            return [c.numerator for c in coeffs], d
        return [c.numerator * (d // c.denominator) for c in coeffs], d

    @staticmethod
    def primitive(nums, lead):
        """The integers nums over their gcd, with `lead`, one of them, made positive."""
        g = math.gcd(*nums)
        return [n // g for n in nums] if lead > 0 else [n // -g for n in nums]

    @staticmethod
    def step(c, lead):
        """(factor, multiplier) of a reduction step; see `module_normal_form`."""
        if lead == 1:
            return None, c
        g = math.gcd(c, lead)
        if g == lead:
            return None, c // lead
        return lead // g, c // g

    @staticmethod
    def pair(lead_i, lead_j):
        """(lead_j/g, lead_i/g, lead_i*lead_j/g) with g = gcd; see `_spair`."""
        g = math.gcd(lead_i, lead_j)
        a = lead_j // g
        return a, lead_i // g, lead_i * a

    to_field = Fraction


class _PolynomialNumerators:
    """QQ(params) coefficients as numerators in QQ[params] over one denominator.

    The numerators are elements of `field.ring`, where every nonzero
    rational number is a unit.
    """

    def __init__(self, field):
        self.field = field

    def clear(self, coeffs):
        """(numerators, d) with coeffs[k] == numerators[k] / d."""
        factors = dict.fromkeys(c.denom for c in coeffs)
        if len(factors) == 1:  # one denominator, such as 1 for every coefficient
            return [c.numer for c in coeffs], next(iter(factors))
        d = self.field.ring.one
        for den in factors:
            if not den.is_one:
                d = den if d.is_one else d.lcm(den)
        for den in factors:
            factors[den] = d.exquo(den)
        return [c.numer * factors[c.denom] for c in coeffs], d

    @staticmethod
    def primitive(nums, lead):
        """The numerators nums over their gcd, with no common factor of positive degree.

        `lead` is one of nums; rational signs and factors are units here.
        """
        g = nums[0]
        for n in nums[1:]:
            if g.is_ground:
                return nums
            g = g.gcd(n)
        return nums if g.is_ground else [n.exquo(g) for n in nums]

    @staticmethod
    def step(c, lead):
        """(factor, multiplier) of a reduction step; see `module_normal_form`."""
        if lead.is_ground:
            return None, c.quo_ground(lead.LC)
        _, mult, factor = c.cofactors(lead)
        if factor.is_ground:
            return None, mult.quo_ground(factor.LC)
        return factor, mult

    @staticmethod
    def pair(lead_i, lead_j):
        """(lead_j/g, lead_i/g, lead_i*lead_j/g) with g = gcd; see `_spair`."""
        _, b, a = lead_i.cofactors(lead_j)
        return a, b, lead_i * a

    def to_field(self, c, d):
        return self.field.new(c, d)


def _numerators(ring):
    """The numerator arithmetic of the ring's coefficient field."""
    if ring.field is None:
        return _IntegerNumerators
    return _PolynomialNumerators(ring.field)


class _Overflow(Exception):
    """A monomial does not fit the fields of its packing; see `_widening`."""


class _Packing:
    """Exponent tuples of one order and ring size as ints of `width`-bit fields.

    Each field holds a value from 0 to `top` = 2^(width-1) - 1 under a guard
    bit, and the fields are laid out, most significant first, so that the
    ints compare as the monomials do under `order`:

    - lex: the exponents in order;
    - grevlex: the degree, then the complemented exponents top - e_i in
      reverse order;
    - block: the grevlex fields of the first block, then those of the rest.

    A packed int is linear in the exponents, `const + sum(e_i * weights[i])`,
    where `const` holds `top` in every complemented field.  So the product
    of two packed monomials is a + b - const, and b - a + const is the
    quotient b / a, whose guard bits are all clear exactly when a divides b.
    A product whose guard bits are not all clear has a field out of range
    (the lowest such field sets its own guard bit, and only the fields above
    it can take a borrow), and the engine raises `_Overflow`.  So does
    `pack`, unless every field is in range: `largest` (each exponent under
    lex, the degree under grevlex, each block's degree) is at most `top`.
    """

    def __init__(self, order, nvars, width=8):
        self.order = order
        self.nvars = nvars
        self.width = width
        top = self.top = (1 << (width - 1)) - 1
        if order.kind == "lex":
            fields = [((i,), False) for i in range(nvars)]
            self.largest = functools.partial(max, default=0)
        elif order.kind == "grevlex":
            fields = _grevlex_fields(range(nvars))
            self.largest = sum
        else:
            block = min(order.block, nvars)
            fields = _grevlex_fields(range(block)) + _grevlex_fields(range(block, nvars))
            self.largest = lambda exps: max(sum(exps[:block]), sum(exps[block:]))
        weights = [0] * nvars
        shifts = [0] * nvars
        const = guard = 0
        for k, (variables, complemented) in enumerate(reversed(fields)):
            shift = k * width
            guard |= (top + 1) << shift
            if complemented:
                const |= top << shift
            for i in variables:
                weights[i] += -(1 << shift) if complemented else 1 << shift
                if len(variables) == 1:  # holds e_i, or top - e_i when complemented
                    shifts[i] = shift
        self.weights = weights
        self.shifts = shifts
        self.const = const
        self.guard = guard

    def pack(self, exps):
        if self.largest(exps) > self.top:
            raise _Overflow
        return self.const + sum(map(operator.mul, exps, self.weights))

    def unpack(self, m):
        m ^= self.const  # top - v == top ^ v on a field value v in range
        top = self.top
        return tuple([(m >> s) & top for s in self.shifts])


_packing = functools.cache(_Packing)  # shared: one per (order, nvars, width), never changed


def _grevlex_fields(variables):
    """(variables, complemented) fields of a grevlex block, most significant first."""
    variables = tuple(variables)
    return [(variables, False)] + [((i,), True) for i in reversed(variables)]


class _Divisors(list):
    """The divisors of one basis, their monomials packed by `packing`.

    Cached with the basis it belongs to.  `widen` repacks every divisor at
    double the width in place, so every holder of the list sees the wider
    fields; `_widening` is its one caller.  A basis that carries tails also
    holds `syzygies`, the record of its S-pairs that the pair loop alone
    writes and `_kernel_generators` pops (see `_groebner`).
    """

    def __init__(self, packing, items=()):
        super().__init__(items)
        self.packing = packing
        self.syzygies = {}  # (i, j) -> (tail, scale, packing) or None; see `_groebner`

    def widen(self):
        old = self.packing
        new = _packing(old.order, old.nvars, 2 * old.width)

        def repack(m):
            return new.pack(old.unpack(m))

        self[:] = [(pos, exps, lead, repack(packed),
                    [tuple((repack(m), c) for m, c in row) for row in rows])
                   for pos, exps, lead, packed, rows in self]
        self.packing = new


def _widening(divisors, step, *args):
    """step(*args), widening `divisors` in place and running it again while it overflows.

    The one rule for a monomial too wide for its fields.  A step (packing an
    input vector, the chain criterion's lcm, an S-pair reduction, a division,
    a decision) reads the packing from `divisors` and starts from inputs that
    hold no packed monomial.  Its value does not depend on the width, so no
    step before it is redone; a packed value it returns is used at once.
    """
    while True:
        try:
            return step(*args)
        except _Overflow:
            divisors.widen()


def _divisors(basis, order):
    """Each nonzero basis vector as `module_normal_form` divides by it, in a `_Divisors`.

    See `_divisor`.  The packing starts at 8-bit fields, and each vector is
    cleared to numerators and packed as one step (`_widening`).  An empty
    basis gives an empty list.
    """
    if not basis:
        return []
    ring = basis[0][0].ring
    nums = _numerators(ring)
    divisors = _Divisors(_packing(order, ring.nvars))
    for vec in basis:
        work = _widening(divisors, _numerator_dicts, vec, nums, divisors)[0]
        divisors.append(_divisor(work, divisors.packing, nums))
    return divisors


def _divisor(values, packing, nums):
    """The divisor of the nonzero vector whose entry r has the packed numerators values[r].

    The numerators may be over any scale.  A divisor is (position, leading
    exponents, leading numerator, packed leading monomial, rows): rows[r]
    lists the (packed monomial, numerator) terms of entry r of the primitive
    part of the numerators (over QQ coprime integers with a positive leading
    one), whose leading coefficient is the leading numerator.  The leading
    term is the largest packed monomial of the first nonzero entry.
    """
    pos = next((r for r, terms in enumerate(values) if terms), None)
    if pos is None:
        raise ValueError("zero vector has no leading term")
    packed = max(values[pos])
    flat = nums.primitive([c for terms in values for c in terms.values()],
                          values[pos][packed])
    rows = []
    k = 0
    for terms in values:
        rows.append(tuple(zip(terms, flat[k:k + len(terms)])))
        k += len(terms)
    return pos, packing.unpack(packed), dict(rows[pos])[packed], packed, rows


def _unpacked(values, scale, packing, nums, ring):
    """The Polynomials values[r] / scale, values[r] a dict (packed monomial -> numerator).

    The one place where a numerator becomes a field coefficient.
    """
    unpack = packing.unpack
    to_field = nums.to_field
    return [Polynomial(ring, {unpack(m): to_field(c, scale) for m, c in terms.items()})
            for terms in values]


def _unit(ring, n, j):
    """The j-th unit vector of length n, the tail a vector starts with; see `_groebner`."""
    zero = ring.zero()
    return [ring.one() if k == j else zero for k in range(n)]


def module_normal_form(vec, basis, order):
    """Divide a vector by module basis vectors; returns (quotients, remainder).

    The module order is position-over-term over the monomial order `order`.
    A zero basis vector raises ValueError, and an entry outside the basis's
    ring RingMismatchError.  The quotients are read off a tail: (vec ; 0) is
    divided by the vectors (b_k ; e_k), whose leading terms are those of the
    b_k, and the tail of the remainder is -sum(q_k * e_k), the quotients
    negated.

    The loop is fraction-free.  The working vector is held as numerators,
    one dict per entry, over one scale for the whole vector: ints over QQ,
    elements of QQ[params] (`field.ring`) over QQ(params).  It divides by
    the primitive numerator copy that each divisor carries.  A step on a
    pending numerator C, against a divisor whose copy has the leading
    numerator L, takes g = gcd(C, L).  When L/g is not a unit (over
    QQ[params] every nonzero rational is one) it multiplies the pending
    numerators and the scale by L/g; then it subtracts (C/g) * x^t * copy,
    or (C/L) * x^t * copy when L/g is a unit.  No step divides in the
    field.  A step that scales the pending numerators scales the remainder
    terms found so far too, so the remainder is numerators over the final
    scale, and each of its terms becomes `Fraction(C, scale)` or
    `field.new(C, scale)` only when the output is built (`_unpacked`).

    The values are those of field arithmetic, and so are the steps:
    scaling the working vector makes no term vanish or appear, so the same
    terms are reduced in the same order.  `Fraction` and `field.new` both
    return the canonical form of a value (lowest terms; over QQ(params) a
    jointly primitive integer numerator and denominator, the denominator's
    leading coefficient positive), so the quotients and the remainder are
    the same Fractions and FracElements as field arithmetic gives, and
    print the same.

    Monomials are packed ints (`_Packing`), whose order is the monomial
    order.  Each entry's pending terms sit in a dict (packed monomial ->
    numerator) and in a heap of negated packed monomials, so the greatest
    pending monomial is popped without comparing tuples.  A monomial that
    cancels leaves its heap item behind; popping an item whose monomial is
    no longer in the dict skips it (lazy deletion).  A monomial that
    cancels and comes back is pushed again, and no duplicate guard is
    needed: once a monomial is processed only strictly smaller ones enter
    its entry, so a later copy of it always finds it gone.  The reduction
    steps are those of taking the dict's maximum every time.  The division
    is one step of `_widening`.

    This front part builds the divisors; `_divide` runs `_remainder`, which
    clears the vector's denominators (`_numerator_dicts`), and the loop
    itself is `_reduce`, which the pair loop feeds its S-vectors as
    numerators directly.  A
    caller that only asks whether the remainder is zero calls
    `divides_to_zero` instead, the same loop stopped at the first remainder
    term.
    """
    if any(map(_vec_is_zero, basis)):
        raise ValueError("zero vector has no leading term")
    if not basis:
        return [], list(vec)
    ring = basis[0][0].ring
    _check_ring([vec, *basis], ring)
    n = len(basis)
    divisors = _divisors([list(b) + _unit(ring, n, k) for k, b in enumerate(basis)], order)
    rem = _divide(list(vec) + [ring.zero()] * n, divisors)
    head = len(vec)
    return [-p for p in rem[head:]], rem[:head]


def _divide(vec, divisors):
    """The remainder of `vec` by `divisors`, as Polynomials; see `module_normal_form`.

    An empty list of divisors leaves the vector as its own remainder.
    """
    if not divisors:
        return list(vec)
    ring = vec[0].ring
    rem = _widening(divisors, _remainder, vec, divisors)
    return _unpacked(*rem, divisors.packing, _numerators(ring), ring)


def _remainder(vec, divisors, decide=False):
    """`_reduce` on the Polynomial vector `vec`, packed first by `_numerator_dicts`.

    The one division step of `_divide`, `divides_to_zero` and
    `prune_redundant_columns`, run by `_widening`: (remainder, scale) as
    `_reduce` returns them, or with `decide` only whether the remainder is
    zero.
    """
    nums = _numerators(vec[0].ring)
    work, scale = _numerator_dicts(vec, nums, divisors)
    return _reduce(work, scale, divisors, nums, decide)


def _numerator_dicts(vec, nums, divisors):
    """(work, scale) with entry r of the Polynomial vector equal to work[r][m] / scale.

    The one packer of a Polynomial vector: work[r] is a new dict (monomial
    packed by `divisors.packing` -> numerator) per entry, as `_reduce` and
    `_divisor` take it.
    """
    numer, scale = nums.clear([c for p in vec for c in p.terms.values()])
    numer = iter(numer)
    pack = divisors.packing.pack
    # zip stops at the end of p.terms before it draws from `numer`
    return [dict(zip(map(pack, p.terms), numer)) for p in vec], scale


def divides_to_zero(vec, divisors):
    """Whether `_divide(vec, divisors)` leaves a zero remainder.

    The membership decider: `_reduce` in its deciding mode, which returns at
    the first remainder term and builds no quotient or remainder.  An empty
    list of divisors leaves every nonzero vector as its own remainder.
    """
    if not divisors:
        return _vec_is_zero(vec)
    return _widening(divisors, _remainder, vec, divisors, True)


def products_divide_to_zero(f, factors, divisors):
    """Whether h * f divides to zero by the rank-1 `divisors` for every h in `factors`.

    f is cleared to numerators once; each product is summed from the two
    numerator dicts into one dict and handed to the decider of
    `divides_to_zero`, so no product Polynomial is built.  The product's
    scale is that of f times that of h, and does not change the verdict.
    """
    if not divisors:
        return f.is_zero() or all(h.is_zero() for h in factors)
    nums = _numerators(f.ring)

    def run():
        packing = divisors.packing
        const, guard = packing.const, packing.guard
        (f_terms,), _ = _numerator_dicts([f], nums, divisors)
        f_terms = f_terms.items()
        for h in factors:
            (h_terms,), _ = _numerator_dicts([h], nums, divisors)
            work = {}
            for e, c in h_terms.items():
                _add_multiple(work, f_terms, e - const, c, guard)
            if not _reduce([work], None, divisors, nums, decide=True):
                return False
        return True

    return _widening(divisors, run)


def _reduce(work, scale, divisors, nums, decide=False):
    """The division loop of `module_normal_form` on a vector held as numerators.

    The vector is work[r][m] / scale: work[r] is the dict (packed monomial
    -> numerator, packed by `divisors.packing`) of entry r, and is used up.
    Returns (remainder, scale), the remainder in the same form over the
    scale the loop ends at, which `_unpacked` turns into Polynomials and
    `_divisor` into a divisor.  A divisor may have more entries than the
    vector (the tails of `_module_basis`), and only its first len(work)
    are read, so a head is divided on its own.  Raises `_Overflow` when a
    product does not fit the packing.

    With `decide` it only answers whether the remainder is zero: it returns
    False when the first term lands in the remainder and True when the loop
    ends without one.  It does not read `scale`.  Stopping early is exact,
    because a remainder term is final.  The steps after it subtract
    multiples x^t * copy whose terms in its entry lie at or below the
    pending monomial they reduce, and every pending monomial is strictly
    smaller than the remainder term; the other steps touch only later
    entries.  So the remainder is nonzero exactly when a term reaches it.
    Scaling only multiplies the whole vector by a nonzero factor, which
    does not decide whether a term is zero.
    """
    packing = divisors.packing
    const, guard = packing.const, packing.guard
    step = nums.step
    by_pos = [[] for _ in work]
    for lpos, _, lead, lm, rows in divisors:
        by_pos[lpos].append((lm, lead, rows))
    # an entry that no divisor leads (a tail) needs no heap: its terms all
    # land in the remainder when it is reached
    heaps = []
    for terms, candidates in zip(work, by_pos):
        heap = None
        if candidates:
            heap = [-m for m in terms]
            heapq.heapify(heap)
        heaps.append(heap)
    remainder = [{} for _ in work]
    n = len(work)
    # a divisor leading at `pos` is zero above `pos`, so once an entry is
    # reduced no later step touches it again
    for pos, terms in enumerate(work):
        heap = heaps[pos]
        candidates = by_pos[pos]
        if heap is None:
            if terms:
                if decide:
                    return False
                remainder[pos] = terms
            continue
        while heap:
            m = -heapq.heappop(heap)
            c = terms.pop(m, None)
            if c is None:
                continue  # cancelled after it was pushed
            for lm, lead, rows in candidates:
                t = m - lm + const
                if not t & guard:  # lm divides m, and t is the quotient
                    factor, mult = step(c, lead)
                    if factor is not None:
                        if not decide:
                            scale *= factor
                        # the remainder found so far and every pending term
                        for w in remainder[:pos + 1] + work[pos:]:
                            for k in w:
                                w[k] *= factor
                    mult = -mult
                    t -= const
                    for r in range(pos, n):
                        if rows[r]:
                            _add_multiple(work[r], rows[r], t, mult, guard, heaps[r],
                                          m if r == pos else None)
                    break
            else:
                if decide:
                    return False
                remainder[pos][m] = c
    if decide:
        return True
    return remainder, scale


def _add_multiple(terms, row, shift, mult, guard, heap=None, skip=None):
    """terms += mult * x^t * row in place, leaving out the product term `skip`.

    `row` is a sequence of (packed monomial, numerator) and `shift` is
    x^t packed less the packing's constant, so a product is one addition.
    A monomial new to `terms` is pushed onto `heap`, negated, when one is
    given.  Raises `_Overflow` on a product that sets a guard bit.
    """
    for e, v in row:
        m = e + shift
        if m == skip:
            continue
        if m & guard:
            raise _Overflow
        c = v * mult
        if m in terms:
            s = terms[m] + c
            if not s:
                del terms[m]
            else:
                terms[m] = s
        else:
            terms[m] = c
            if heap is not None:
                heapq.heappush(heap, -m)


def module_groebner(columns, order=GREVLEX):
    """Module Groebner basis of the given vectors, with representations.

    The module order is position-over-term over the monomial order `order`.
    Returns (basis, reps) where each basis vector equals
    sum(reps[k][j] * columns[j]).  The pair loop is `_groebner`, the one
    Buchberger loop of the package; `groebner.buchberger` runs it on
    vectors of one entry.  A basis vector and its rep are the numerator
    copy of a divisor of the loop over its leading numerator.  Entries in
    different rings raise RingMismatchError.
    """
    _check_ring(columns, next((p.ring for col in columns for p in col), None))
    divisors = _groebner(columns, order, True)
    if not divisors:
        return [], []
    ring = columns[0][0].ring
    nums = _numerators(ring)
    nrows = len(columns[0])
    vecs = [_unpacked(map(dict, rows), lead, divisors.packing, nums, ring)
            for _, _, lead, _, rows in divisors]
    return [v[:nrows] for v in vecs], [v[nrows:] for v in vecs]


def _groebner(columns, order, track_reps):
    """The `_Divisors` of a module Groebner basis of the given vectors.

    Each divisor (see `_divisor`) is built once, as its vector enters the
    basis, and no other form of the basis is kept.

    With `track_reps`, column j enters as (col_j ; e_j): its nrows entries
    (the head), then the j-th unit vector of length len(columns) (the
    tail).  Every vector the loop builds is then a combination of these, so
    its tail is the representation of its head by the columns.  Leading
    terms lie in the head, since no vector with a zero head enters, so the
    pairs, the criteria and the basis are those of the columns alone, and
    the divisors divide a head as well as a vector with its tail.

    S-pairs are taken from a heap by lcm degree, then the lcm, then the
    pair's indices.  A pair is skipped by the chain criterion when some
    basis element's leading monomial divides the lcm and both its pairs with
    the two (same-position pairs, as all pairs are) have been taken, and at
    rank 1 also when its leading monomials are coprime.  The chain criterion
    applies whenever no tail is carried: such a basis is only ever divided
    by, and a full remainder by any Groebner basis of a module is its unique
    normal form.  With tails at higher rank every same-position pair is
    reduced, so the unreduced basis and every syzygy read from it stay as they are.

    Each S-vector is built from the two divisors as numerators over one
    scale (`_spair`) and divided by `_reduce` directly, once, head and tail
    together.  A remainder whose head is nonzero adds a basis vector: its
    numerators become its divisor, and no Polynomial is built.

    With tails the loop alone keeps the record of the Schreyer syzygies,
    `divisors.syzygies[i, j]` for a same-position pair, that
    `_kernel_generators` reads: the tail of the remainder of a pair whose
    head reduces to zero; None for a pair that a criterion skips (at rank
    1 only), which the kernel reduces by the final basis; nothing for a
    pair that added a vector, whose syzygy is zero.  The basis only ever
    grows at its end and `_reduce` tries divisors in list order, so on an
    S-vector the final basis takes the same steps as the basis of its time,
    up to the leading term of its remainder r.  A recorded tail is thus what
    the final basis leaves.  When r added a vector, the working vector W at
    that term loses r by one step by r's own divisor, and W - r repeats the
    earlier steps and leaves nothing, head or tail.
    Packing an input column, the chain criterion and each S-pair reduction
    are steps of `_widening`; the pair heap holds exponent tuples, which
    widening leaves alone.
    """
    nonzero = [j for j, col in enumerate(columns) if not _vec_is_zero(col)]
    if not nonzero:
        return []
    ring = columns[nonzero[0]][0].ring
    nrows = len(columns[nonzero[0]])
    rank1 = nrows == 1
    nums = _numerators(ring)
    divisors = _Divisors(_packing(order, ring.nvars))
    pairs = []  # heap of (sum(lcm), lcm, i, j) over same-position i < j
    taken = []  # taken[k]: the partners of basis element k in the pairs taken so far

    def add(values):  # values[r]: the packed numerators of entry r
        j = len(divisors)
        divisors.append(_divisor(values, divisors.packing, nums))
        taken.append(set())
        pos, exps = divisors[j][:2]
        for i in range(j):
            if divisors[i][0] == pos:
                lcm = monomial_lcm(divisors[i][1], exps)
                heapq.heappush(pairs, (sum(lcm), lcm, i, j))

    for j in nonzero:
        col = list(columns[j])
        if track_reps:
            col += _unit(ring, len(columns), j)
        add(_widening(divisors, _numerator_dicts, col, nums, divisors)[0])
    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        if rank1 or not track_reps:
            taken[i].add(j)
            taken[j].add(i)
            coprime = rank1 and lcm == monomial_mul(divisors[i][1], divisors[j][1])
            if coprime or _widening(divisors, _chain_criterion, taken[i] & taken[j], lcm,
                                    divisors):
                if track_reps:
                    divisors.syzygies[i, j] = None
                continue
        rem, scale = _widening(divisors, _reduce_spair, divisors, i, j, nums)
        if any(rem[:nrows]):
            add(rem)
        elif track_reps:
            divisors.syzygies[i, j] = rem[nrows:], scale, divisors.packing
    return divisors


def _reduced_basis(gens, order):
    """(reduced Groebner basis, its divisors) of the ideal generated by `gens`.

    The pair loop on the generators as vectors of one entry, without reps.
    Drop each element whose leading monomial another's divides (the first of
    equal ones stays), then reduce the tail of each one left by the divisors
    of all of them, one `_widening` step each.  No tail monomial is divisible
    by its own leading one, and a remainder by a Groebner basis is the same
    for every basis of the ideal, so the divisor built from the remainder's
    numerators replaces the old one at once.  The basis descends by leading
    monomial, and the divisors follow it.
    """
    divisors = _groebner([[g] for g in gens], order, False)
    if not divisors:
        return [], divisors
    ring = gens[0].ring
    nums = _numerators(ring)
    packing = divisors.packing
    const, guard = packing.const, packing.guard
    kept = []  # ascending, so a divisor of a leading monomial is met first
    for d in sorted(divisors, key=operator.itemgetter(3)):
        if all((d[3] - k[3] + const) & guard for k in kept):
            kept.append(d)
    reduced = _Divisors(packing, kept[::-1])

    def reduce_tail(i):
        # the tail of the primitive copy over its leading numerator, reduced,
        # after the leading term, whose numerator is the scale: a monic vector
        _, _, lead, packed, (row,) = reduced[i]
        (rem,), scale = _reduce([{m: c for m, c in row if m != packed}], lead, reduced, nums)
        return [{packed: scale, **rem}], scale

    basis = []
    for i in range(len(reduced)):
        values, scale = _widening(reduced, reduce_tail, i)
        reduced[i] = _divisor(values, reduced.packing, nums)
        basis.append(_unpacked(values, scale, reduced.packing, nums, ring)[0])
    return basis, reduced


def _chain_criterion(partners, lcm, divisors):
    """Some k in `partners`, taken with both elements of the pair, has a lead dividing lcm.

    divisors[k][3] is the packed leading monomial of basis element k; `lcm`
    is an exponent tuple, packed here when there is a partner to test
    (`_Overflow` when it does not fit).
    """
    if not partners:
        return False
    packing = divisors.packing
    lcm = packing.pack(lcm) + packing.const
    guard = packing.guard
    return any(not (lcm - divisors[k][3]) & guard for k in partners)


def _spair(divisors, i, j, nums):
    """S-vector of the vectors behind divisors i and j (same leading position).

    Returns (work, scale): the S-vector x^ti * v_i / c_i - x^tj * v_j / c_j
    of the two vectors, whose leading coefficients are c_i and c_j, is
    work[r][m] / scale in entry r (m packed by `divisors.packing`), and
    x^ti, x^tj take both leading monomials to their lcm.  With the
    primitive copies B_i, B_j of the divisors and their leading numerators
    L_i, L_j, v_i / c_i = B_i / L_i, so over g = gcd(L_i, L_j) the
    numerators are (L_j/g) * x^ti * B_i - (L_i/g) * x^tj * B_j, built
    straight into one dict per entry, and the scale is L_i * L_j / g.  The
    value is exactly the field S-vector, so `_reduce` gives the same
    remainder as on that vector.  Raises `_Overflow` when the lcm or a
    product does not fit the packing.
    """
    pos, ei, lead_i, pi, rows_i = divisors[i]
    pos_j, ej, lead_j, pj, rows_j = divisors[j]
    assert pos == pos_j
    packing = divisors.packing
    guard = packing.guard
    lcm = packing.pack(monomial_lcm(ei, ej))
    a, b, scale = nums.pair(lead_i, lead_j)
    b = -b
    work = []
    for row_i, row_j in zip(rows_i, rows_j):
        terms = {}
        _add_multiple(terms, row_i, lcm - pi, a, guard)
        _add_multiple(terms, row_j, lcm - pj, b, guard)
        work.append(terms)
    return work, scale


def _reduce_spair(divisors, i, j, nums):
    """`_reduce` on the S-vector of divisors i and j."""
    work, scale = _spair(divisors, i, j, nums)
    return _reduce(work, scale, divisors, nums)


def _s_polynomial(f, g, order):
    """The S-polynomial of `groebner.s_polynomial`: `_spair` on the divisors of f and g."""
    nums = _numerators(f.ring)
    divisors = _divisors([[f], [g]], order)

    def run():
        work, scale = _spair(divisors, 0, 1, nums)
        return _unpacked(work, scale, divisors.packing, nums, f.ring)[0]

    return _widening(divisors, run)


def _module_basis(M, order):
    """The divisors of the module basis of the columns of M, built once per order and cached on M.

    They are the divisors of the vectors (basis ; rep) of `module_groebner`
    (see `_divisor`), built by the pair loop as each vector entered the
    basis.  The graded pruning that chose the columns of M
    (`prune_redundant_columns`, on heads alone, with more divisors in a
    copy), the syzygies of M (`_kernel_generators`), its exactness check
    (`verify_exactness`, on heads alone) and lifts through it
    (`image_lifter`) all divide by this one basis.
    """
    cached = M._bases.get(order)
    if cached is None:
        cached = M._bases[order] = _groebner(M.columns(), order, True)
    return cached


def _quotient_ideal(vec, bases):
    """Generators of the ideal of h with h * vec[k] in (bases[k]) for every k.

    Greuel & Pfister, SCA Lemmas 2.8.2 and 2.8.4: with m = len(vec), the
    vectors of the module basis of (vec ; 1) and f * e_k, f in bases[k],
    that lead at position m vanish above it, and their entries m generate
    the ideal.  The basis carries no tail and is built under grevlex, whatever
    order the caller wants; reduced grevlex bases as `bases` keep it small.
    """
    ring = vec[0].ring
    m = len(vec)
    zero = ring.zero()
    columns = [list(vec) + [ring.one()]]
    for k, basis in enumerate(bases):
        columns += [[f if r == k else zero for r in range(m + 1)] for f in basis]
    divisors = _groebner(columns, GREVLEX, False)
    nums = _numerators(ring)
    return [_unpacked([dict(rows[m])], lead, divisors.packing, nums, ring)[0]
            for pos, _, lead, _, rows in divisors if pos == m]


def _kernel_generators(M, order):
    """Columns generating the kernel of M, before pruning; cached on M per order.

    Schreyer's construction on the basis of `_module_basis`: the syzygies
    of its same-position S-pairs, read in (i, j) order off the record the
    pair loop left in `divisors.syzygies` (`_groebner`), and e_j for each
    zero column j.  A recorded tail is taken as it is; a pair recorded
    without one, skipped at rank 1 by a criterion, is reduced here by the
    final basis, its head to zero by Schreyer's theorem; a pair that added
    a vector has the zero syzygy and no record.  The record is popped, so
    the cached basis keeps none.  Every nonzero column is a basis vector up
    to scale, with tail e_j, so these syzygies generate the kernel together
    with the e_j.  Zero and duplicate columns are dropped.  The list is
    shared by every caller; do not modify it.
    """
    kernel = M._kernels.get(order)
    if kernel is not None:
        return kernel
    ring = M.ring
    nrows = M.nrows
    divisors = _module_basis(M, order)
    nums = _numerators(ring)
    syz_cols = []
    for i, j in sorted(divisors.syzygies):
        syzygy = divisors.syzygies.pop((i, j))
        if syzygy is None:
            rem, scale = _widening(divisors, _reduce_spair, divisors, i, j, nums)
            if any(rem[:nrows]):
                raise AssertionError("S-pair of a Groebner basis failed to reduce to zero")
            syzygy = rem[nrows:], scale, divisors.packing
        syz_cols.append(_unpacked(*syzygy, nums, ring))
    syz_cols += [_unit(ring, M.ncols, j) for j, col in enumerate(M.columns())
                 if _vec_is_zero(col)]
    kept = {}  # drop zero columns and duplicates; the first of equal ones stays
    for col in syz_cols:
        if not _vec_is_zero(col):
            kept.setdefault(tuple(col), col)
    kernel = M._kernels[order] = list(kept.values())
    return kernel


def syzygy_matrix(M, order=GREVLEX):
    """Matrix whose columns generate the kernel of M (as column combinations).

    The generators of `_kernel_generators`, with every column that lies in
    the submodule spanned by the others pruned away by
    `prune_redundant_columns`: degree by degree when the generators are
    homogeneous (as the Schreyer syzygies of a homogeneous matrix are), by
    the greedy one-basis-per-column loop otherwise.  A graded step builds
    one module basis per differential: pruning divides by the basis that
    the next step reads.
    """
    if M.is_zero():
        return PolyMatrix.identity(M.ring, M.ncols)
    kernel = _kernel_generators(M, order)
    if not kernel:
        return PolyMatrix.zero(M.ring, M.ncols, 0)
    return prune_redundant_columns(kernel, order)


def prune_redundant_columns(columns, order=GREVLEX):
    """The PolyMatrix of the columns left after dropping those in the span of the rest.

    `columns` is a nonempty list of vectors of one length.  The module
    order is position-over-term over the monomial order `order`.  Zero
    columns go first.  When every column is homogeneous for one choice of
    row shifts (see `_column_degrees`), columns are pruned degree by
    degree: a degree-d column is kept exactly when `_reduce` leaves it a
    nonzero remainder by the divisors of the module basis of the columns
    kept below degree d and the remainders of the degree-d columns kept
    before it, and its remainder joins them.  A degree-d divisor leads at a
    monomial of degree d, so a step by one is a row operation, and the
    divisors are a Groebner basis in degree d, whose full remainders are
    the same for every such basis.  That basis is `_module_basis` of the
    matrix of the columns kept so far, rebuilt only after a degree keeps a
    column; the remainders join a copy of its divisors, so the cached basis
    never changes.  When the last degree keeps nothing, that matrix is
    returned with its basis, the one the next syzygy step reads: one module
    Groebner basis per differential, and no field coefficient.  Otherwise
    `_greedy_prune` tests every column against a basis of all the others.
    Both keep the same columns on graded input: a degree-d column can only
    be written with columns of degree at most d, the degree-d ones with
    constant coefficients, so removing the last redundant column first
    keeps exactly the columns independent of the ones before them.
    """
    ring = columns[0][0].ring
    cols = [c for c in columns if not _vec_is_zero(c)]
    if not cols:
        return PolyMatrix.zero(ring, len(columns[0]), 0)
    degrees = _column_degrees(cols)
    if degrees is None:
        return PolyMatrix.from_columns(_greedy_prune(cols, order), ring)
    nums = _numerators(ring)
    keep = [False] * len(cols)
    kept = None  # the PolyMatrix of the columns kept below degree d
    for d in sorted(set(degrees)):
        if kept is None:
            basis = _Divisors(_packing(order, ring.nvars))
        else:
            basis = _module_basis(kept, order)
        divisors = _Divisors(basis.packing, basis)
        for j, col in enumerate(cols):
            if degrees[j] == d:
                rem = _widening(divisors, _remainder, col, divisors)[0]
                if any(rem):
                    divisors.append(_divisor(rem, divisors.packing, nums))
                    keep[j] = True
        if len(divisors) > len(basis):
            kept = PolyMatrix.from_columns([c for c, k in zip(cols, keep) if k], ring)
    return kept


def _column_degrees(cols):
    """Degree of each nonzero column under row shifts solved from them, or None.

    Looks for shifts a_i with deg(col[i]) + a_i the same over the nonzero
    entries of every column; that common value is the column's degree.  The
    shifts are propagated over the rows by a depth-first search, with one
    free offset (zero) for each set of rows that columns connect.  None when
    an entry is not homogeneous or no such shifts exist.
    """
    entry_degrees = []
    for col in cols:
        degs = {}
        for i, p in enumerate(col):
            if p.terms:
                found = {sum(e) for e in p.terms}
                if len(found) != 1:
                    return None
                degs[i] = found.pop()
        entry_degrees.append(degs)
    nrows = len(cols[0])
    edges = [[] for _ in range(nrows)]  # row -> [(row, a_row - a_this)]
    for degs in entry_degrees:
        first, *rest = degs
        for i in rest:
            edges[first].append((i, degs[first] - degs[i]))
            edges[i].append((first, degs[i] - degs[first]))
    shift = [None] * nrows
    for root in range(nrows):
        if shift[root] is not None:
            continue
        shift[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for k, diff in edges[i]:
                if shift[k] is None:
                    shift[k] = shift[i] + diff
                    stack.append(k)
                elif shift[k] != shift[i] + diff:
                    return None
    degrees = []
    for degs in entry_degrees:
        i = next(iter(degs))
        degrees.append(degs[i] + shift[i])
    return degrees


def _greedy_prune(cols, order):
    """Drop redundant nonzero columns from the last one back, one basis per column.

    The reference for `prune_redundant_columns`, and its path for columns
    that are not homogeneous.
    """
    idx = len(cols) - 1
    while idx >= 0 and len(cols) > 1:
        others = cols[:idx] + cols[idx + 1 :]
        divisors = _groebner(others, order, False)
        if divides_to_zero(cols[idx], divisors):
            cols = others
            idx = min(idx, len(cols)) - 1
        else:
            idx -= 1
    return cols


def image_lifter(M, order=GREVLEX):
    """A function lift(b) that solves M x = b exactly.

    lift(b) raises NotInImageError with the remainder if b is not in the
    image, and RingMismatchError if an entry of b lies outside M's ring.
    All calls divide by the module Groebner basis of the columns of M that
    `_module_basis` caches on M, fetched at the first nonzero b: a
    differential whose syzygies were computed (every differential of a
    resolution) is lifted through with no new basis, and any other matrix
    costs one basis however many vectors are lifted.  (b ; 0) is divided by
    the vectors (basis ; rep), which leaves (remainder ; -x).
    """
    ring = M.ring

    def lift(b):
        if len(b) != M.nrows:
            raise ValueError("vector length must equal the row count")
        _check_ring([b], ring)
        if _vec_is_zero(b):
            return [ring.zero()] * M.ncols
        divisors = _module_basis(M, order)
        rem = _divide(list(b) + [ring.zero()] * M.ncols, divisors)
        if not _vec_is_zero(rem[:M.nrows]):
            raise NotInImageError(rem[:M.nrows])
        return [-p for p in rem[M.nrows:]]

    return lift


def lift_through(b, M, order=GREVLEX):
    """Solve M x = b exactly; raises NotInImageError with the remainder if unsolvable.

    The one-vector case of `image_lifter`.
    """
    return image_lifter(M, order)(b)
