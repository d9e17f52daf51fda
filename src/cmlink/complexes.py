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
                    sign = -1 if j % 2 else 1
                    entry = f[elem] if sign > 0 else -f[elem]
                    mat[row_pos[rest]][cj] = mat[row_pos[rest]][cj] + entry
            diffs.append(PolyMatrix(mat, ring))
        super().__init__(diffs)
        self.tuple_f = f

    @property
    def p(self):
        return len(self.tuple_f)


class FreeResolution(ChainComplex):
    def __init__(self, differentials, ideal, minimal):
        super().__init__(differentials)
        if self.differentials[0].nrows != 1:
            raise ComplexError("rank of the augmentation module must be 1")
        self.ideal = ideal
        self.minimal = minimal


def free_resolution(J, minimalize=True, order=GREVLEX):
    """Free resolution of the cyclic quotient by J, cached on J.

    d_1 is the row of generators; each next differential generates the kernel
    of the previous one.  Length is capped at the variable count.  With
    `minimalize`, constant (hence invertible) entries are pivoted away
    (`_prune_units`) until no differential entry has a nonzero constant
    term.

    Both resolutions are cached in `J._resolutions[(order, minimalize)]`.
    The minimal one is derived from the cached unpruned one, and is that
    same object when nothing is pruned (graded input), so the syzygy loop
    runs once per ideal and order whichever is asked for first.
    """
    cache = J._resolutions
    full = cache.get((order, False))
    if full is None:
        full = cache[(order, False)] = _resolution(_syzygy_differentials(J, order), J)
    if not minimalize:
        return full
    res = cache.get((order, True))
    if res is None:
        diffs = _prune_units(full.differentials)
        res = full if diffs is full.differentials else _resolution(diffs, J)
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


def _resolution(diffs, J):
    """FreeResolution of J with differentials `diffs`, flagged minimal when no
    entry has a nonzero constant term at the origin."""
    minimal = all(
        p.constant_term_at_origin() == 0 for d in diffs for p in d.entries()
    )
    return FreeResolution(diffs, J, minimal)


def _prune_units(diffs):
    """Remove rank-trivial summands by pivoting on constant entries.

    Pivoting is restricted to entries that are nonzero constants (units of the
    polynomial ring); row/column operations stay exact and the complex
    property is preserved.  With no such entry (always the case on graded
    input) the input list itself is returned, so the differentials keep the
    bases and kernels cached on them.
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
        u = m[i][j]
        uinv = 1 / u.constant_term()
        ncols = len(m[0])
        nrows = len(m)
        # column operations clearing row i (basis change in source module)
        for j2 in range(ncols):
            if j2 != j and not m[i][j2].is_zero():
                factor = m[i][j2].scale(uinv)
                for r in range(nrows):
                    m[r][j2] = m[r][j2] - m[r][j] * factor
                if k + 1 < len(mats):
                    nxt = mats[k + 1]
                    for c in range(len(nxt[0]) if nxt else 0):
                        nxt[j][c] = nxt[j][c] + factor * nxt[j2][c]
        # row operations clearing column j (basis change in target module)
        for i2 in range(nrows):
            if i2 != i and not m[i2][j].is_zero():
                factor = m[i2][j].scale(uinv)
                for c in range(ncols):
                    m[i2][c] = m[i2][c] - factor * m[i][c]
                if k > 0:
                    prev = mats[k - 1]
                    for r in range(len(prev)):
                        prev[r][i] = prev[r][i] + prev[r][i2] * factor
        # delete row i and column j; shrink neighbours accordingly
        mats[k] = [
            [p for j2, p in enumerate(row) if j2 != j]
            for i2, row in enumerate(m)
            if i2 != i
        ]
        if k + 1 < len(mats):
            mats[k + 1] = [row for r, row in enumerate(mats[k + 1]) if r != j]
        if k > 0:
            mats[k - 1] = [
                [p for c, p in enumerate(row) if c != i] for row in mats[k - 1]
            ]
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
