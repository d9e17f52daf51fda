"""Koszul complexes, free resolutions and exactness checking."""

import json
import math
import random
from fractions import Fraction

import pytest

from cmlink.complexes import (
    ChainComplex,
    ComplexError,
    KoszulComplex,
    free_resolution,
    is_cohen_macaulay,
    verify_exactness,
)
from cmlink import complexes, groebner, modules
from cmlink.linkage import comparison_morphism
from cmlink.groebner import Ideal
from cmlink.poly import GREVLEX, LEX
from cmlink.modules import PolyMatrix
from cmlink.poly import OriginPoleError, Polynomial, Ring

R = Ring(("x", "y", "z"))
RS = Ring(("x", "y", "z"), ("s",))
x, y, z = R.gens()

CURVE = ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]


def random_poly(rng, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(3))
        c = rng.randint(-3, 3)
        if c:
            terms[e] = Fraction(c)
    return Polynomial(R, terms) if terms else R.one()


def test_koszul_ranks_are_binomial():
    for p in (1, 2, 3, 4):
        f = [R.poly("x") + R.constant(Fraction(i)) for i in range(p)]
        K = KoszulComplex(f)
        assert K.ranks() == [math.comb(p, k) for k in range(p + 1)]


def test_koszul_squares_to_zero_random_tuples():
    rng = random.Random(1)
    for p in (2, 3, 4):
        for _ in range(3):
            f = [random_poly(rng) for _ in range(p)]
            K = KoszulComplex(f)
            for a, b in zip(K.differentials, K.differentials[1:]):
                assert (a * b).is_zero()


def test_koszul_two_elements_explicit():
    f, g = R.poly("x"), R.poly("y")
    K = KoszulComplex([f, g])
    assert K.differentials[0].rows == [[f, g]]
    # contraction convention: d2 column is (-g, f)
    assert K.differentials[1].column(0) == [-g, f]


def test_koszul_rejects_bad_input():
    with pytest.raises(ComplexError):
        KoszulComplex([])
    with pytest.raises(ComplexError):
        KoszulComplex([x, R.zero()])


def test_chain_complex_shape_and_composition_checks():
    d1 = PolyMatrix([[x, y]], R)
    bad = PolyMatrix([[x], [y], [z]], R)
    with pytest.raises(ComplexError):
        ChainComplex([d1, bad])
    not_complex = PolyMatrix([[x], [y]], R)
    with pytest.raises(ComplexError):
        ChainComplex([d1, not_complex])


def test_curve_resolution_minimal_exact_cm():
    J = Ideal.from_strings(R, CURVE)
    res = free_resolution(J, minimalize=True)
    assert res.ranks() == [1, 3, 2]
    assert res.minimal
    report = verify_exactness(res)
    assert report.exact
    cm, codim, length = is_cohen_macaulay(J)
    assert cm and codim == 2 and length == 2


def test_rational_normal_quartic_resolution():
    names = tuple(f"x{i}" for i in range(5))
    S = Ring(names)
    minors = [
        f"x{i}*x{j + 1} - x{j}*x{i + 1}" for i in range(4) for j in range(i + 1, 4)
    ]
    J = Ideal.from_strings(S, minors)
    res = free_resolution(J, minimalize=True)
    assert res.ranks() == [1, 6, 8, 3]
    assert res.minimal
    assert verify_exactness(res).exact
    assert is_cohen_macaulay(J) == (True, 3, 3)


def test_rational_normal_quintic_resolution():
    """Eagon-Northcott ranks; pruning by degree keeps this under a second."""
    names = tuple(f"x{i}" for i in range(6))
    minors = [
        f"x{i}*x{j + 1} - x{j}*x{i + 1}" for i in range(5) for j in range(i + 1, 5)
    ]
    J = Ideal.from_strings(Ring(names), minors)
    res = free_resolution(J)
    assert res.ranks() == [1, 10, 20, 15, 4]
    assert res.minimal
    assert verify_exactness(res).exact
    assert is_cohen_macaulay(J) == (True, 4, 4)


def test_exactness_catches_a_missing_syzygy():
    res = free_resolution(Ideal.from_strings(R, CURVE), minimalize=True)
    d1, d2 = res.differentials
    short = PolyMatrix.from_columns([d2.column(0)], R)
    report = verify_exactness(ChainComplex([d1, short]))
    assert [(deg, reason) for deg, reason, _ in report.failures] == [
        (1, "kernel vector not in the image")
    ]
    witness = report.failures[0][2]
    assert (d1 * witness)[0].is_zero()


def test_minimal_resolution_is_built_once_per_order(syzygy_steps):
    J = Ideal.from_strings(R, CURVE)
    res = free_resolution(J)
    loop = len(syzygy_steps)
    assert loop == 2  # the kernel of d_1, then the empty kernel of d_2
    assert is_cohen_macaulay(J) == (True, 2, 2)
    assert free_resolution(J) is res
    assert free_resolution(J, minimalize=False) is res
    assert len(syzygy_steps) == loop
    assert free_resolution(J, order=LEX) is not res
    assert len(syzygy_steps) == 2 * loop and syzygy_steps[loop:] == [LEX] * loop


def _rnc4_ideal():
    S = Ring(tuple(f"x{i}" for i in range(5)))
    return Ideal.from_strings(S, [
        f"x{i}*x{j + 1} - x{j}*x{i + 1}" for i in range(4) for j in range(i + 1, 4)
    ])


def test_exactness_and_lifts_reuse_the_resolution_bases(monkeypatch):
    """The syzygy steps build one module basis per differential; the
    exactness check and the comparison morphism build none again, of
    modules or of ideals."""
    built = []

    def counting(original):
        def count(*args):
            built.append(args)
            return original(*args)

        return count

    # ideal bases come through `groebner._reduced_basis`, the name `Ideal` calls
    monkeypatch.setattr(modules, "_groebner", counting(modules._groebner))
    monkeypatch.setattr(groebner, "_reduced_basis", counting(groebner._reduced_basis))
    curve = Ideal.from_strings(R, CURVE)
    for J in (_rnc4_ideal(), curve):
        E = free_resolution(J)
        del built[:]
        assert verify_exactness(E).exact
        assert built == []
    CI = Ideal.from_strings(R, ["z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"])
    morphism = comparison_morphism(KoszulComplex(list(CI.gens)), free_resolution(curve))
    assert morphism.top_matrix.nrows == 2
    assert built == []


def _minors_ideal(top, bottom):
    """The 2x2 minors of the 2 x m matrix [top; bottom], in x0..xm."""
    m = len(top)
    S = Ring(tuple(f"x{i}" for i in range(m + 1)))
    return Ideal.from_strings(S, [f"({top[i]})*({bottom[j]}) - ({top[j]})*({bottom[i]})"
                                  for i in range(m) for j in range(i + 1, m)])


def _rnc_ideal(n):
    return _minors_ideal([f"x{i}" for i in range(n)], [f"x{i + 1}" for i in range(n)])


def _seeded_hankel_ideal(m, seed):
    """rnc(m)'s minors with each matrix entry scaled by a seeded nonzero integer."""
    rng = random.Random(seed)

    def scaled(i):
        return f"{rng.choice((-3, -2, -1, 1, 2, 3))}*x{i}"

    return _minors_ideal([scaled(i) for i in range(m)], [scaled(i + 1) for i in range(m)])


# ideal and ranks; the first syzygy step of the last two keeps columns in two
# and in three degrees
GRADED_RESOLUTIONS = {
    "rnc(4)": (lambda: _rnc_ideal(4), [1, 6, 8, 3]),
    "rnc(5)": (lambda: _rnc_ideal(5), [1, 10, 20, 15, 4]),
    "hankel(4)-seed-3": (lambda: _seeded_hankel_ideal(4, 3), [1, 6, 8, 3]),
    "(x,y,z)^2": (lambda: Ideal.from_strings(R, ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
                  [1, 6, 8, 3]),
    "two-degrees": (lambda: Ideal.from_strings(
        R, ["x^2*y - z^3", "x*y^2", "y^4", "x^3 - y*z^2", "z^5"]), [1, 5, 9, 5]),
    "three-degrees": (lambda: Ideal.from_strings(
        Ring(("x", "y", "z", "w")),
        ["x^2 - y*z", "x*y*w", "y^3 - z^2*w", "z^3", "x*w^2 + y^2*z"]), [1, 5, 10, 8, 2]),
}


@pytest.mark.parametrize("case", GRADED_RESOLUTIONS)
def test_a_graded_syzygy_step_builds_one_module_basis_per_differential(case, monkeypatch):
    """Pruning divides by the module basis of the columns it keeps, which
    the next step reads; no basis is built without tails at rank > 1.

    Over the resolution and its exactness check, each differential's basis
    is built exactly once, no set of columns gets two, and every basis is
    still as the pair loop built it: pruning adds the remainders of a
    degree to a copy.  Where columns are kept in more than one degree,
    pruning also builds the bases of the columns kept below a degree.
    """
    built = []  # (columns as text, with tails, divisors, a copy as built)
    original = modules._groebner

    def recording(columns, order, track_reps):
        divisors = original(columns, order, track_reps)
        text = tuple(tuple(str(p) for p in col) for col in columns)
        built.append((text, track_reps, divisors, list(divisors)))
        return divisors

    monkeypatch.setattr(modules, "_groebner", recording)
    build, ranks = GRADED_RESOLUTIONS[case]
    res = free_resolution(build())
    assert res.ranks() == ranks and res.minimal
    assert verify_exactness(res).exact
    assert all(reps for cols, reps, _, _ in built if cols and len(cols[0]) > 1)
    with_tails = [cols for cols, reps, _, _ in built if reps]
    assert len(set(with_tails)) == len(with_tails)
    for d in res.differentials:
        assert tuple(tuple(str(p) for p in col) for col in d.columns()) in with_tails
    assert all(divisors == as_built for _, _, divisors, as_built in built)


def reference_prune_units(diffs):
    """The former `complexes._prune_units`, which pivots by row and column operations.

    Column operations clear row i of d_k and rewrite row j of d_{k+1}, row
    operations clear column j of d_k and rewrite column i of d_{k-1}, and
    then row i and column j go.  Every rewritten row and column outside d_k's
    update is deleted, so the result is the rank-one update's.
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


def _prune_ideals():
    """(name, ideal) of the pruning test: seeded inhomogeneous ideals over QQ
    and QQ(s), every other one with a redundant generator, and graded ideals
    with a redundant generator."""
    for field, ring in (("QQ", R), ("QQ(s)", RS)):
        choices = [1, -1, 2, -3] if ring.field is None else [1, -2, "s", "s+1"]
        for k in range(10):
            rng = random.Random(f"prune:{field}:{k}")
            gens = []
            for _ in range(3):
                terms = {}
                while len(terms) < 2:  # squarefree terms of degree 1 to 3
                    e = tuple(rng.randint(0, 1) for _ in range(3))
                    if any(e):
                        terms[e] = ring.coeff(rng.choice(choices))
                gens.append(Polynomial(ring, terms))
            if k % 2:
                gens.append(gens[0] * ring.var(rng.randrange(3)) + gens[1].scale(ring.coeff(2)))
            yield f"{field}:{k}", Ideal(gens, ring)
    yield "(x,y,x+y)", Ideal.from_strings(R, ["x", "y", "x + y"])
    yield "(x^2,xy,y^2,x^2+2xy)", Ideal.from_strings(R, ["x^2", "x*y", "y^2", "x^2 + 2*x*y"])
    rnc3 = _rnc_ideal(3)
    yield "rnc(3)+sum", Ideal(rnc3.gens + [rnc3.gens[0] - rnc3.gens[2]], rnc3.ring)
    yield "(x,y,s*x+y,z^2)", Ideal.from_strings(RS, ["x", "y", "s*x + y", "z^2"])


def test_unit_pruning_by_rank_one_updates_matches_the_reference_pivots():
    """`_prune_units` gives the reference's differentials, and they resolve.

    Both prune the same unpruned differentials of J's syzygy resolution; the
    JSON of the two complexes must be equal and the pruned complex exact.
    Pivots occur: the ranks drop on seeded ideals over both fields and on
    every graded one here.  (The complexes are built without the minimal
    flag of `free_resolution`, which evaluates constant terms at s = 0.)
    """
    dropped = set()
    for name, J in _prune_ideals():
        diffs = complexes._syzygy_differentials(J, GREVLEX)
        pruned = ChainComplex(complexes._prune_units(diffs))
        assert pruned.to_json() == ChainComplex(reference_prune_units(diffs)).to_json(), name
        assert verify_exactness(pruned).exact, name
        if pruned.ranks() != ChainComplex(diffs).ranks():
            dropped.add(name.split(":")[0])
    assert dropped == {"QQ", "QQ(s)", "(x,y,x+y)", "(x^2,xy,y^2,x^2+2xy)", "rnc(3)+sum",
                       "(x,y,s*x+y,z^2)"}, dropped


def test_prune_units_keeps_graded_differentials():
    for J in (_rnc4_ideal(), Ideal.from_strings(R, CURVE)):
        diffs = free_resolution(J, minimalize=False).differentials
        assert all(a is b for a, b in zip(complexes._prune_units(diffs), diffs))
        assert free_resolution(J) is free_resolution(J, minimalize=False)


def test_minimal_resolution_derived_from_the_syzygy_resolution(syzygy_steps):
    """With a redundant generator the unit pivots run on the cached syzygy
    resolution, and give what a fresh minimalized build gives."""
    gens = ["x", "y", "x + y", "z^2"]
    J = Ideal.from_strings(R, gens)
    full = free_resolution(J, minimalize=False)
    loop = len(syzygy_steps)
    res = free_resolution(J)
    assert len(syzygy_steps) == loop
    assert full.ranks() == [1, 4, 4, 1] and not full.minimal
    assert res.ranks() == [1, 3, 3, 1] and res.minimal
    fresh = free_resolution(Ideal.from_strings(R, gens), minimalize=True)
    assert res.to_json() == fresh.to_json()
    assert verify_exactness(res).exact


def test_minimal_is_computed_when_read_so_a_pole_at_the_origin_refuses_only_the_read():
    """A syzygy of this QQ(s) ideal has the coefficient 2/(s^2+s), whose
    pole at s = 0 leaves the `minimal` flag undefined; the resolution is
    still built and exact."""
    J = Ideal.from_strings(RS, ["s*y*z - 2*z", "(s+1)*x*z + y", "(s+1)*y*z + s*y",
                                "s*y*z^2 + (2*s+2)*x*z - 2*z^2 + 2*y"])
    res = free_resolution(J, minimalize=False)
    assert res.ranks() == [1, 4, 4, 1]
    assert verify_exactness(res).exact
    with pytest.raises(OriginPoleError,
                       match=r"^denominator of 2/\(s\*\*2\+s\) vanishes at the origin$"):
        res.minimal


def test_complete_intersection_resolution_is_koszul_shaped():
    J = Ideal.from_strings(R, ["z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"])
    res = free_resolution(J, minimalize=True)
    assert res.ranks() == [1, 2, 1]
    assert verify_exactness(res).exact
    cm, codim, length = is_cohen_macaulay(J)
    assert cm and codim == 2 and length == 2


def test_non_cohen_macaulay_detected():
    J = Ideal.from_strings(R, ["x*z", "y*z"])
    cm, codim, length = is_cohen_macaulay(J)
    assert not cm
    assert codim == 1
    assert length == 2


def test_exactness_failure_is_reported_not_raised():
    C = ChainComplex([PolyMatrix([[x, y]], R)])
    report = verify_exactness(C)
    assert not report.exact
    payload = json.loads(report.to_json())
    assert payload["exact"] is False
    assert payload["failures"]
    assert all(
        {"degree", "reason", "witness"} <= set(f) for f in payload["failures"]
    )
    assert [f["reason"] for f in payload["failures"]] == [
        "kernel of the last differential is nonzero"
    ]


def test_resolution_json_shape():
    J = Ideal.from_strings(R, CURVE)
    res = free_resolution(J)
    payload = json.loads(res.to_json())
    assert payload["ranks"] == res.ranks()
    assert payload["ring"] == "ring x,y,z over QQ"
    assert len(payload["differentials"]) == res.length
