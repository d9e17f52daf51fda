"""Linkage: comparison morphisms, the colon-ideal duality and membership tests.

The comparison morphism lifts the surjection between the cyclic quotients of a
complete intersection and a larger ideal of the same codimension through their
resolutions.  Its top matrix cuts out the link: with K = I:J one has J = I:K,
I:J = I + (entries of a_p), and membership in J reduces to p membership tests
in I.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .complexes import is_cohen_macaulay
from .groebner import (
    GREVLEX,
    Ideal,
    ideal_codim,
    ideal_colon,
    ideal_member,
    ideal_sum,
)
from .modules import NotInImageError, PolyMatrix, det_bareiss, image_lifter


class ContainmentFailureError(ValueError):
    """Some generator of the complete intersection is not in the target ideal."""


class MorphismError(ValueError):
    pass


class ComplexMorphism:
    """Per-degree matrices a_0..a_p with phi_k a_k = a_{k-1} psi_k.

    The constructor checks every commuting square and raises MorphismError
    with the `violation` text when one fails.
    """

    def __init__(self, source, target, matrices):
        self.source = source  # KoszulComplex
        self.target = target  # FreeResolution
        self.matrices = list(matrices)  # a_0, ..., a_p
        problem = self.violation()
        if problem is not None:
            raise MorphismError(problem)

    def violation(self):
        """None if this is a valid morphism, else a description of a failure."""
        a = self.matrices
        psis = self.source.differentials
        phis = self.target.differentials
        if len(a) != len(psis) + 1:
            return "wrong number of matrices"
        if len(phis) != len(psis):
            return "source and target complexes have different lengths"
        a0 = a[0]
        if a0.nrows != 1 or a0.ncols != 1:
            return "a_0 must be 1x1"
        if a0.rows[0][0].is_zero() or not a0.rows[0][0].is_constant():
            return "a_0 must be a nonzero constant (unit)"
        for k in range(1, len(a)):
            left = phis[k - 1] * a[k]
            right = a[k - 1] * psis[k - 1]
            if left != right:
                return f"commuting square fails at degree {k}"
        return None

    @property
    def top_matrix(self):
        return self.matrices[-1]

    def top_entries(self):
        return self.top_matrix.entries()


def comparison_morphism(K, E, order=GREVLEX):
    """Lift the natural surjection to a morphism from a Koszul complex to E.

    a_0 = [1]; each further a_k is obtained by lifting the columns of
    a_{k-1} psi_k through phi_k, all against one module Groebner basis of
    phi_k.  Requires every entry of the tuple of K to lie in the ideal
    resolved by E.
    """
    ring = K.ring
    J = E.ideal
    for f in K.tuple_f:
        if not ideal_member(f, J, order):
            raise ContainmentFailureError(f"{f} is not in the target ideal")
    if E.differentials[0].nrows != 1:
        raise MorphismError("target resolution must start at rank 1")
    if len(E.differentials) != len(K.differentials):
        raise MorphismError(
            "complexes have different lengths; linkage needs equal length "
            f"({len(K.differentials)} vs {len(E.differentials)})"
        )
    mats = [PolyMatrix([[ring.one()]], ring)]
    for k in range(1, len(K.differentials) + 1):
        psi = K.differentials[k - 1]
        phi = E.differentials[k - 1]
        target_cols = mats[k - 1] * psi
        lift = image_lifter(phi, order)
        lifted_cols = []
        for j in range(target_cols.ncols):
            try:
                lifted_cols.append(lift(target_cols.column(j)))
            except NotInImageError as exc:
                raise MorphismError(
                    f"lift failed at degree {k}: target resolution is not exact"
                ) from exc
        mats.append(PolyMatrix.from_columns(lifted_cols, ring))
    return ComplexMorphism(K, E, mats)


@dataclass
class LinkageReport:
    ideal_I: Ideal
    ideal_J: Ideal
    colon_K: Ideal
    link_L: Ideal
    double_link_holds: bool  # J == I : K
    decomposition_holds: bool  # I : J == I + L
    witnesses: list

    @property
    def ok(self):
        return self.double_link_holds and self.decomposition_holds

    def to_json(self):
        return json.dumps(
            {
                "I": [str(g) for g in self.ideal_I.gens],
                "J": [str(g) for g in self.ideal_J.gens],
                "K_colon": [str(g) for g in self.colon_K.gens],
                "L_top_entries": [str(g) for g in self.link_L.gens],
                "double_link_holds": self.double_link_holds,
                "decomposition_holds": self.decomposition_holds,
                "witnesses": [str(w) for w in self.witnesses],
            },
            indent=2,
        )


def link_decomposition_check(I, J, morphism, order=GREVLEX):
    """Verify J = I:(I:J) and I:J = I + (entries of the top matrix).

    Both equalities are checked by double inclusion through Groebner
    membership; failing generators are collected as witnesses.  The
    morphism's squares were checked when it was built.
    """
    p = len(morphism.source.differentials)
    codim_I = ideal_codim(I, order)
    codim_J = ideal_codim(J, order)
    if codim_I != p or codim_J != p:
        raise ValueError(
            f"codimension mismatch: codim I = {codim_I}, codim J = {codim_J}, "
            f"complex length = {p}"
        )
    cm, _, _ = is_cohen_macaulay(J, order)
    if not cm:
        raise ValueError("target ideal is not Cohen-Macaulay")
    K = ideal_colon(I, J, order)
    L = Ideal(morphism.top_entries(), I.ring)
    IK = ideal_colon(I, K, order)
    IL = ideal_sum(I, L)
    link_witnesses = _outside(J, IK, order) + _outside(IK, J, order)
    decomposition_witnesses = _outside(K, IL, order) + _outside(IL, K, order)
    return LinkageReport(I, J, K, L, not link_witnesses, not decomposition_witnesses,
                         link_witnesses + decomposition_witnesses)


def _outside(A, B, order):
    """The generators of A, in order, that the ideal B does not contain."""
    return [g for g in A.gens if not B.contains(g, order)]


def membership_via_link(g, I, ap_entries, order=GREVLEX):
    """Theorem-level membership test: g in J iff h*g in I for every top entry h.

    The products are decided by `Ideal.contains_products`, without building
    h*g.  ValueError when no entry is nonzero: with no nonzero h the test
    would pass every g.
    """
    ap_entries = list(ap_entries)
    if all(h.is_zero() for h in ap_entries):
        raise ValueError("membership via link needs a nonzero top entry")
    return I.contains_products(g, ap_entries, order)


def det_transform_member(g, I, J, A, order=GREVLEX):
    """Complete-intersection transformation law: g in J iff det(A)*g in I.

    Requires the row identity (gens of I) = (gens of J) * A, which is
    verified before the determinant test runs.
    """
    ring = I.ring
    p = len(I.gens)
    if A.nrows != p or A.ncols != p or len(J.gens) != p:
        raise ValueError("A must be p x p with p generators on both sides")
    row_J = PolyMatrix([list(J.gens)], ring)
    prod = row_J * A
    for j in range(p):
        if prod.rows[0][j] != I.gens[j]:
            raise ValueError("row identity f = g*A does not hold")
    det = det_bareiss(A)
    return I.contains_products(g, [det], order)


class GenericCIError(RuntimeError):
    def __init__(self, tried):
        self.tried = tried
        super().__init__(
            f"could not find a complete intersection after {len(tried)} tries; "
            f"coefficient matrices tried: {tried}"
        )


def generic_ci(J, p, seed=0, max_tries=25, order=GREVLEX):
    """Complete intersection of codimension p inside J from p random combinations.

    Coefficients are drawn from {-3,...,3} minus 0 with a seeded generator;
    the codimension of the candidate is rechecked and fresh coefficients are
    drawn on failure.
    """
    if ideal_codim(J, order) != p:
        raise ValueError("codim of J must equal p")
    if len(J.gens) < p:
        raise ValueError("J needs at least p generators")
    rng = random.Random(seed)
    ring = J.ring
    tried = []
    for _ in range(max_tries):
        coeffs = [
            [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in J.gens] for _ in range(p)
        ]
        tried.append(coeffs)
        gens = [
            sum((g.scale(c) for g, c in zip(J.gens, row)), ring.zero())
            for row in coeffs
        ]
        if any(g.is_zero() for g in gens):
            continue
        I = Ideal(gens, ring)
        if ideal_codim(I, order) == p:
            return I
    raise GenericCIError(tried)
