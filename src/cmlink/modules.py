"""Free modules over the polynomial ring.

Matrices of polynomials, module Groebner bases, Schreyer-style syzygy
computation, and exact lifting of a vector through the image of a matrix.
Vectors are lists of polynomials; internally module terms are keyed by
(position, exponent tuple).

The module order is position-over-term, the only one used: a lower position
wins, then the ring's `MonomialOrder` on exponents.  No object stands for
it; every function takes that monomial order as `order`.

The pair loop `_groebner` and the division `module_normal_form` are the only
Buchberger loop and division loop of the package: `groebner` runs ideals
through them as vectors of one entry, where the order is the ring order and
the loop skips pairs by the coprime and chain criteria.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from .poly import (
    GREVLEX,
    Polynomial,
    RingMismatchError,
    _bareiss_det,
    monomial_div,
    monomial_divides,
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
        self._bases = {}  # monomial order -> (basis, reps, leads) of the columns
        self._kernels = {}  # monomial order -> kernel generators

    @classmethod
    def zero(cls, ring, nrows, ncols):
        return cls([[ring.zero()] * ncols for _ in range(nrows)], ring)

    @classmethod
    def identity(cls, ring, n):
        return cls(
            [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)],
            ring,
        )

    @classmethod
    def from_strings(cls, ring, rows):
        return cls([[ring.poly(t) for t in r] for r in rows], ring)

    @classmethod
    def from_columns(cls, columns, ring=None):
        if ring is None:
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

    def transpose(self):
        return PolyMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.ring,
        )

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            return PolyMatrix(
                [
                    [
                        sum(
                            (self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)),
                            self.ring.zero(),
                        )
                        for j in range(other.ncols)
                    ]
                    for i in range(self.nrows)
                ],
                self.ring,
            )
        # vector (list of polynomials)
        if len(other) != self.ncols:
            raise ValueError("vector length must equal the column count")
        return [
            sum((self.rows[i][k] * other[k] for k in range(self.ncols)), self.ring.zero())
            for i in range(self.nrows)
        ]

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


def det_bareiss(M):
    """Exact determinant of a square PolyMatrix by fraction-free elimination."""
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    from .groebner import divide_exact

    return _bareiss_det(M.rows, M.ring.one(), Polynomial.is_zero, divide_exact)


# -- module term order and division -------------------------------------------


def _leading(vec, order):
    """(position, exponents, coefficient) of the leading term of a nonzero vector.

    Under position-over-term the leading term is the ring-order maximum of
    the first nonzero entry.
    """
    for pos, p in enumerate(vec):
        if p.terms:
            exps = min(p.terms, key=order.desc_key)
            return pos, exps, p.terms[exps]
    raise ValueError("zero vector has no leading term")


def _vec_is_zero(vec):
    return all(p.is_zero() for p in vec)


def _combine(vec, coeffs, vectors):
    """vec - sum(coeffs[k] * vectors[k]) over the nonzero coeffs[k]."""
    for ck, wk in zip(coeffs, vectors):
        if not ck.is_zero():
            vec = [a - ck * b for a, b in zip(vec, wk)]
    return vec


def module_normal_form(vec, basis, order, leads=None):
    """Divide a vector by module basis vectors; returns (quotients, remainder).

    The module order is position-over-term over the monomial order `order`.
    `leads` are the leading terms of `basis` as `_leading` gives them;
    callers that divide many vectors by one basis pass them in once.

    Each entry's pending terms sit in a dict (monomial -> coefficient) and
    in a heap of (order.desc_key(m), m), so the greatest pending monomial is
    popped without re-keying the others; a monomial is keyed once, when it
    enters the dict.  A monomial that cancels leaves its heap item behind;
    popping an item whose monomial is no longer in the dict skips it (lazy
    deletion).  A monomial that cancels and comes back is pushed again, and
    no duplicate guard is needed: once a monomial is processed only strictly
    smaller ones enter its entry, so a later copy of it always finds it gone.
    The reduction steps are those of taking the dict's maximum every time.
    """
    ring = vec[0].ring
    if leads is None:
        leads = [_leading(w, order) for w in basis]
    key = order.desc_key
    quotients = [{} for _ in basis]
    remainder = [{} for _ in vec]
    work = [dict(p.terms) for p in vec]
    heaps = []
    for terms in work:
        heap = [(key(m), m) for m in terms]
        heapq.heapify(heap)
        heaps.append(heap)
    # a basis vector leading at `pos` is zero above `pos`, so once an entry
    # is reduced no later step touches it again
    for pos, terms in enumerate(work):
        heap = heaps[pos]
        while heap:
            exps = heapq.heappop(heap)[1]
            coeff = terms.pop(exps, None)
            if coeff is None:
                continue  # cancelled after it was pushed
            for i, (lpos, lexps, lcoeff) in enumerate(leads):
                if lpos == pos and monomial_divides(lexps, exps):
                    t_exps = monomial_div(exps, lexps)
                    t_coeff = coeff / lcoeff
                    # the leading exponents at `pos` strictly decrease, so t_exps is new
                    quotients[i][t_exps] = t_coeff
                    for r in range(pos, len(work)):
                        _dict_sub_term(work[r], heaps[r], key, basis[i][r], t_exps,
                                       t_coeff, exps if r == pos else None)
                    break
            else:
                remainder[pos][exps] = coeff
    return ([Polynomial(ring, q) for q in quotients],
            [Polynomial(ring, r) for r in remainder])


def _dict_sub_term(terms, heap, key, q, t_exps, t_coeff, skip):
    """terms -= (t_coeff * x^t_exps) * q in place, leaving out the product term `skip`.

    A monomial new to `terms` is pushed onto `heap` as (key(m), m).
    """
    for e, v in q.terms.items():
        m = monomial_mul(e, t_exps)
        if m == skip:
            continue
        c = -(v * t_coeff)
        if m in terms:
            s = terms[m] + c
            if not s:
                del terms[m]
            else:
                terms[m] = s
        else:
            terms[m] = c
            heapq.heappush(heap, (key(m), m))


def module_groebner(columns, order=GREVLEX):
    """Module Groebner basis of the given vectors, with representations.

    The module order is position-over-term over the monomial order `order`.
    Returns (basis, reps) where each basis vector equals
    sum(reps[k][j] * columns[j]).  The pair loop is `_groebner`, the one
    Buchberger loop of the package; `groebner.buchberger` runs it on
    vectors of one entry.
    """
    basis, reps, _ = _groebner(columns, order, True)
    return basis, reps


def _groebner(columns, order, track_reps):
    """(basis, reps, leads) of the given vectors; reps is None unless tracked.

    S-pairs are taken from a heap by lcm degree, then the lcm, then the
    pair's indices.  On vectors of one entry (polynomials) a pair is skipped
    when its leading monomials are coprime or, by the chain criterion, when
    some basis element's leading monomial divides the lcm and both its
    pairs with the two have been taken.  At higher rank every same-position
    pair is reduced, so the unreduced basis, and every syzygy read from it,
    stays as it is.
    """
    nonzero = [j for j, col in enumerate(columns) if not _vec_is_zero(col)]
    if not nonzero:
        return [], [] if track_reps else None, []
    ring = columns[nonzero[0]][0].ring
    units = PolyMatrix.identity(ring, len(columns)).rows if track_reps else None
    rank1 = len(columns[nonzero[0]]) == 1
    basis = []
    reps = [] if track_reps else None
    leads = []
    pairs = []  # heap of (sum(lcm), lcm, i, j) over same-position i < j
    taken = set()

    def add(vec, rep):
        lead = _leading(vec, order)
        inv = 1 / lead[2]
        j = len(basis)
        basis.append([p.scale(inv) for p in vec])
        if track_reps:
            reps.append([p.scale(inv) for p in rep])
        leads.append(_leading(basis[j], order))
        for i in range(j):
            if leads[i][0] == lead[0]:
                lcm = monomial_lcm(leads[i][1], lead[1])
                heapq.heappush(pairs, (sum(lcm), lcm, i, j))

    for j in nonzero:
        add(columns[j], units[j] if track_reps else None)
    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        if rank1:
            taken.add((i, j))
            if lcm == monomial_mul(leads[i][1], leads[j][1]) or _chain_criterion(
                    i, j, lcm, leads, taken):
                continue
        svec, srep = _module_spair(basis, reps, leads, i, j)
        q, rem = module_normal_form(svec, basis, order, leads)
        if not _vec_is_zero(rem):
            add(rem, _combine(srep, q, reps) if track_reps else None)
    return basis, reps, leads


def _chain_criterion(i, j, lcm, leads, taken):
    """Some k, with a leading monomial dividing lcm, has had its pairs with i and j taken."""
    return any(
        k not in (i, j) and monomial_divides(lk, lcm)
        and (min(i, k), max(i, k)) in taken and (min(j, k), max(j, k)) in taken
        for k, (_, lk, _) in enumerate(leads)
    )


def _module_spair(basis, reps, leads, i, j):
    """S-vector of basis[i], basis[j] (same leading position) and its rep.

    The rep is None when `reps` is.
    """
    pi, ei, ci = leads[i]
    pj, ej, cj = leads[j]
    assert pi == pj
    lcm = monomial_lcm(ei, ej)
    ti = monomial_div(lcm, ei)
    tj = monomial_div(lcm, ej)
    ci = 1 / ci
    cj = 1 / cj

    def sub(a, b):
        if b.is_zero():
            return a.term_mul(ti, ci)
        if a.is_zero():
            return -b.term_mul(tj, cj)
        return a.term_mul(ti, ci) - b.term_mul(tj, cj)

    return ([sub(a, b) for a, b in zip(basis[i], basis[j])],
            None if reps is None else [sub(a, b) for a, b in zip(reps[i], reps[j])])


def _module_basis(M, order):
    """(basis, reps, leads) of the columns of M, built once per order and cached on M.

    The basis comes from `module_groebner`, with representations; `leads`
    are its leading terms as `_leading` gives them.  The syzygies of M
    (`_kernel_generators`), its exactness check (`verify_exactness`) and
    lifts through it (`image_lifter`) all divide by this one basis.
    """
    cached = M._bases.get(order)
    if cached is None:
        basis, reps = module_groebner(M.columns(), order)
        cached = M._bases[order] = (basis, reps, [_leading(w, order) for w in basis])
    return cached


def _kernel_generators(M, order):
    """Columns generating the kernel of M, before pruning; cached on M per order.

    Schreyer's construction on the basis of `_module_basis`: syzygies of the
    module GB from all same-position S-pair reductions, mapped back through
    the GB representations, together with the columns of I - P*Q expressing
    the redundancy of the input columns.  Zero and duplicate columns are
    dropped.  The list is shared by every caller; do not modify it.
    """
    kernel = M._kernels.get(order)
    if kernel is None:
        kernel = M._kernels[order] = _schreyer_kernel(M, order)
    return kernel


def _schreyer_kernel(M, order):
    """The kernel generators of `_kernel_generators`, computed without the cache."""
    ring = M.ring
    if M.is_zero():
        return PolyMatrix.identity(ring, M.ncols).columns()
    cols = M.columns()
    basis, reps, leads = _module_basis(M, order)
    m = len(cols)

    syz_cols = []
    # Schreyer: every same-position S-pair of the final GB reduces to zero
    for i, j in combinations(range(len(basis)), 2):
        if leads[i][0] != leads[j][0]:
            continue
        svec, srep = _module_spair(basis, reps, leads, i, j)
        q, rem = module_normal_form(svec, basis, order, leads)
        if not _vec_is_zero(rem):
            raise AssertionError("S-pair of a Groebner basis failed to reduce to zero")
        syz_cols.append(_combine(srep, q, reps))

    # columns of I - P*Q: each input column re-expressed through the GB
    for j, col in enumerate(cols):
        unit = [ring.zero()] * m
        unit[j] = ring.one()
        if _vec_is_zero(col):
            syz_cols.append(unit)
            continue
        q, rem = module_normal_form(col, basis, order, leads)
        if not _vec_is_zero(rem):
            raise AssertionError("input column failed to reduce against its own GB")
        syz_cols.append(_combine(unit, q, reps))

    # drop zero columns and duplicates, deterministically
    seen = set()
    kept = []
    for col in syz_cols:
        if _vec_is_zero(col):
            continue
        key = tuple(col)
        if key in seen:
            continue
        seen.add(key)
        kept.append(col)
    return kept


def syzygy_matrix(M, order=GREVLEX):
    """Matrix whose columns generate the kernel of M (as column combinations).

    The generators of `_kernel_generators`, with every column that lies in
    the submodule spanned by the others pruned away by
    `prune_redundant_columns`: degree by degree when the generators are
    homogeneous (as the Schreyer syzygies of a homogeneous matrix are), by
    the greedy one-basis-per-column loop otherwise.
    """
    if M.is_zero():
        return PolyMatrix.identity(M.ring, M.ncols)
    kept = prune_redundant_columns(_kernel_generators(M, order), order)
    if not kept:
        return PolyMatrix.zero(M.ring, M.ncols, 0)
    return PolyMatrix.from_columns(kept, M.ring)


def prune_redundant_columns(columns, order=GREVLEX):
    """Drop columns lying in the submodule generated by the remaining ones.

    The module order is position-over-term over the monomial order `order`.
    Zero columns go first.  When every column is homogeneous for one choice
    of row shifts (see `_column_degrees`), columns are pruned degree by
    degree: a column of degree d is kept exactly when its normal form
    modulo the columns kept below degree d lies outside the field span of
    the normal forms of the degree-d columns before it.  That needs one
    module Groebner basis per degree.  Otherwise `_greedy_prune` tests
    every column against a basis of all the others.  Both keep the same
    columns on graded input: a degree-d column can only be written with
    columns of degree at most d, the degree-d ones with constant
    coefficients, so removing the last redundant column first keeps exactly
    the columns independent of the ones before them.
    """
    cols = [c for c in columns if not _vec_is_zero(c)]
    if not cols:
        return cols
    degrees = _column_degrees(cols)
    if degrees is None:
        return _greedy_prune(cols, order)
    keep = [False] * len(cols)
    for d in sorted(set(degrees)):
        below = [c for c, e, k in zip(cols, degrees, keep) if k and e < d]
        basis, _, leads = _groebner(below, order, False)
        pivots = []  # (key, row): rows in echelon form, each zero at earlier keys
        for j, col in enumerate(cols):
            if degrees[j] != d:
                continue
            _, rem = module_normal_form(col, basis, order, leads)
            row = {(pos, e): c for pos, p in enumerate(rem) for e, c in p.terms.items()}
            for key, prow in pivots:
                if key in row:
                    _row_sub(row, prow, row[key] / prow[key])
            if row:
                pivots.append((min(row), row))
                keep[j] = True
    return [c for c, k in zip(cols, keep) if k]


def _row_sub(row, prow, factor):
    """row -= factor * prow in place, dropping entries that cancel."""
    for key, c in prow.items():
        t = -(factor * c)
        if key in row:
            s = row[key] + t
            if not s:
                del row[key]
            else:
                row[key] = s
        else:
            row[key] = t


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
        basis, _, leads = _groebner(others, order, False)
        _, rem = module_normal_form(cols[idx], basis, order, leads)
        if _vec_is_zero(rem):
            cols = others
            idx = min(idx, len(cols)) - 1
        else:
            idx -= 1
    return cols


def image_lifter(M, order=GREVLEX):
    """A function lift(b) that solves M x = b exactly.

    lift(b) raises NotInImageError with the remainder if b is not in the
    image.  All calls divide by the module Groebner basis of the columns of
    M that `_module_basis` caches on M, fetched at the first nonzero b: a
    differential whose syzygies were computed (every differential of a
    resolution) is lifted through with no new basis, and any other matrix
    costs one basis however many vectors are lifted.
    """
    ring = M.ring

    def lift(b):
        if len(b) != M.nrows:
            raise ValueError("vector length must equal the row count")
        if _vec_is_zero(b):
            return [ring.zero()] * M.ncols
        basis, reps, leads = _module_basis(M, order)
        q, rem = module_normal_form(b, basis, order, leads)
        if not _vec_is_zero(rem):
            raise NotInImageError(rem)
        x = [ring.zero()] * M.ncols
        for qk, rk in zip(q, reps):
            if not qk.is_zero():
                x = [a + qk * c for a, c in zip(x, rk)]
        return x

    return lift


def lift_through(b, M, order=GREVLEX):
    """Solve M x = b exactly; raises NotInImageError with the remainder if unsolvable.

    The one-vector case of `image_lifter`.
    """
    return image_lifter(M, order)(b)
