"""Chain complexes of free modules.

Koszul complexes by contraction, free resolutions by iterated syzygies with
unit-entry pruning, degreewise exactness verification, and the
Cohen-Macaulay test (resolution length against codimension).

Every complex checks d_k * d_{k+1} == 0 when it is built.  `free_resolution`
is the one way to a resolution: it caches both the unpruned and the
minimal resolution on the ideal, per monomial order, and derives the
minimal one from the unpruned one.

Each syzygy step keeps a generating set of the kernel free of redundant
columns (`modules.syzygy_matrix`).  For a homogeneous ideal every step is
graded, and the columns are chosen degree by degree, dividing by the module
basis of the columns kept below each degree: the basis the next step reads,
so a graded step builds one module Groebner basis per differential.
Otherwise each column is tested against a basis of all the others.  Both
rules keep the same columns on graded input.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations

from .groebner import GREVLEX, ideal_codim
from .modules import (
    PolyMatrix,
    _kernel_generators,
    _module_basis,
    divides_to_zero,
    syzygy_matrix,
)


class ComplexError(ValueError):
    pass


class ChainComplex:
    """Differentials d_1, ..., d_l with cols(d_k) == rows(d_{k+1}).

    Module ranks are rows(d_1), cols(d_1), cols(d_2), ...  The constructor
    checks d_k * d_{k+1} == 0 and raises ComplexError if it fails.
    """

    def __init__(self, differentials):
        diffs = list(differentials)
        if not diffs:
            raise ComplexError("a complex needs at least one differential")
        ring = diffs[0].ring
        for a, b in zip(diffs, diffs[1:]):
            if a.ncols != b.nrows:
                raise ComplexError("differential shapes do not chain")
            if not (a * b).is_zero():
                raise ComplexError("d_k * d_{k+1} != 0")
        self.differentials = diffs
        self.ring = ring

    @property
    def length(self):
        return len(self.differentials)

    def ranks(self):
        out = [self.differentials[0].nrows]
        for d in self.differentials:
            out.append(d.ncols)
        return out

    def to_json(self):
        return json.dumps(
            {
                "ring": self.ring.header(),
                "ranks": self.ranks(),
                "differentials": [d.to_text() for d in self.differentials],
            },
            indent=2,
        )

    def __repr__(self):
        return f"ChainComplex(ranks={self.ranks()})"


class KoszulComplex(ChainComplex):
    """Koszul complex of a tuple f: differentials by contraction with sum f_i e_i*."""

    def __init__(self, tuple_f):
        f = list(tuple_f)
        if not f:
            raise ComplexError("empty tuple")
        ring = f[0].ring
        if any(g.is_zero() for g in f):
            raise ComplexError("zero entry in the tuple")
        p = len(f)
        diffs = []
        for k in range(1, p + 1):
            rows_idx = list(combinations(range(p), k - 1))
            cols_idx = list(combinations(range(p), k))
            row_pos = {s: i for i, s in enumerate(rows_idx)}
            mat = [[ring.zero() for _ in cols_idx] for _ in rows_idx]
            for cj, subset in enumerate(cols_idx):
                for j, elem in enumerate(subset):
                    rest = subset[:j] + subset[j + 1 :]
                    mat[row_pos[rest]][cj] = -f[elem] if j % 2 else f[elem]
            diffs.append(PolyMatrix(mat, ring))
        super().__init__(diffs)
        self.tuple_f = f


class FreeResolution(ChainComplex):
    def __init__(self, differentials, ideal):
        super().__init__(differentials)
        if self.differentials[0].nrows != 1:
            raise ComplexError("rank of the augmentation module must be 1")
        self.ideal = ideal

    @cached_property
    def minimal(self):
        """No entry has a nonzero constant term at the origin (parameters set to
        0 too); computed on first read, which raises OriginPoleError at a pole."""
        return all(
            p.constant_term_at_origin() == 0 for d in self.differentials for p in d.entries()
        )


def free_resolution(J, minimalize=True, order=GREVLEX):
    """Free resolution of the cyclic quotient by J, cached on J.

    d_1 is the row of generators; each next differential generates the kernel
    of the previous one.  At most nvars + 1 differentials are built, and
    ComplexError is raised past that.  With `minimalize`, constant (hence
    invertible) entries are pivoted away (`_prune_units`) until no
    differential entry has a nonzero constant term.

    Both resolutions are cached in `J._resolutions[(order, minimalize)]`.
    The minimal one is derived from the cached unpruned one, and is that
    same object when nothing is pruned (graded input with a minimal set of
    generators), so the syzygy loop runs once per ideal and order whichever
    is asked for first.
    """
    cache = J._resolutions
    full = cache.get((order, False))
    if full is None:
        full = cache[(order, False)] = FreeResolution(_syzygy_differentials(J, order), J)
    if not minimalize:
        return full
    res = cache.get((order, True))
    if res is None:
        diffs = _prune_units(full.differentials)
        res = full if diffs is full.differentials else FreeResolution(diffs, J)
        cache[(order, True)] = res
    return res


def _syzygy_differentials(J, order):
    """The differentials of J's resolution by iterated syzygies, unpruned."""
    if J.is_zero():
        raise ComplexError("zero ideal has no finite free resolution of this form")
    if J.is_unit(order):
        raise ComplexError("unit ideal is not a proper ideal")
    diffs = [PolyMatrix([list(J.gens)], J.ring)]
    cap = J.ring.nvars + 1
    while True:
        syz = syzygy_matrix(diffs[-1], order)
        if syz.ncols == 0:
            return diffs
        diffs.append(syz)
        if len(diffs) > cap:
            raise ComplexError(
                "resolution exceeded the Hilbert syzygy bound; this is a bug"
            )


def _prune_units(diffs):
    """Remove rank-trivial summands by pivoting on constant entries.

    Pivoting is restricted to entries that are nonzero constants (units of the
    polynomial ring).  A unit u at (i, j) of d_k splits off a trivial summand
    (the elimination lemma): d_k becomes d_k - col_j * row_i / u without row
    i and column j, d_{k+1} loses row j and d_{k-1} loses column i, and the
    complex property is preserved.  With no such entry (the case on graded
    input with a minimal set of generators) the input list itself is
    returned, so the differentials keep the bases and kernels cached on them.
    """
    ring = diffs[0].ring
    mats = [[list(r) for r in d.rows] for d in diffs]

    def find_pivot():
        for k, m in enumerate(mats):
            for i, row in enumerate(m):
                for j, p in enumerate(row):
                    if not p.is_zero() and p.is_constant():
                        return k, i, j
        return None

    hit = find_pivot()
    if hit is None:
        return diffs
    while hit is not None:
        k, i, j = hit
        m = mats[k]
        uinv = 1 / m[i][j].constant_term()
        # row i over u, indexed as the rows are once column j is gone
        pivot_row = [(c - (c > j), p.scale(uinv)) for c, p in enumerate(m.pop(i))
                     if c != j and not p.is_zero()]
        for row in m:
            a = row.pop(j)
            if not a.is_zero():
                for c, factor in pivot_row:
                    row[c] = row[c] - a * factor
        if k + 1 < len(mats):
            del mats[k + 1][j]
        if k > 0:
            for row in mats[k - 1]:
                del row[i]
        # drop empty trailing differentials
        while mats and (not mats[-1] or not mats[-1][0]):
            mats.pop()
        hit = find_pivot()
    out = []
    for m in mats:
        if not m or not m[0]:
            break
        out.append(PolyMatrix(m, ring))
    return out


class ExactnessReport:
    def __init__(self, failures):
        self.failures = failures  # list of (degree, reason, witness)

    @property
    def exact(self):
        return not self.failures

    def to_json(self):
        return json.dumps(
            {
                "exact": self.exact,
                "failures": [
                    {
                        "degree": deg,
                        "reason": reason,
                        "witness": [str(p) for p in witness],
                    }
                    for deg, reason, witness in self.failures
                ],
            },
            indent=2,
        )


def verify_exactness(C, order=GREVLEX):
    """Check ker(d_k) == im(d_{k+1}) for k = 1..length.

    im(d_{k+1}) lies in ker(d_k) because C checked d_k * d_{k+1} == 0 when
    it was built.  For the other inclusion, ker(d_k) is taken as the
    unpruned Schreyer generators of the kernel, a superset of the columns
    `syzygy_matrix` keeps, and each of them must divide to a zero remainder
    by the module Groebner basis of d_{k+1}.  At the top degree the next
    image is zero, so the last differential must be injective.  Failures
    are report content, not exceptions.

    The kernel generators and the bases are those cached on the matrices
    (`modules._kernel_generators`, `modules._module_basis`): on a resolution
    built by `free_resolution` they were computed by its syzygy steps, and
    this check builds none again.  Every membership is still tested.
    """
    failures = []
    diffs = C.differentials
    for k in range(1, len(diffs) + 1):
        kernel = _kernel_generators(diffs[k - 1], order)
        if k == len(diffs):
            if kernel:
                failures.append((k, "kernel of the last differential is nonzero", kernel[0]))
            continue
        divisors = _module_basis(diffs[k], order)
        for v in kernel:
            if not divides_to_zero(v, divisors):
                failures.append((k, "kernel vector not in the image", v))
                break
    return ExactnessReport(failures)


def is_cohen_macaulay(J, order=GREVLEX):
    """(flag, codim, minimal resolution length)."""
    codim = ideal_codim(J, order)
    res = free_resolution(J, order=order)
    return res.length == codim, codim, res.length
