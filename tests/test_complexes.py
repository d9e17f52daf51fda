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
from cmlink.poly import LEX
from cmlink.modules import PolyMatrix
from cmlink.poly import Polynomial, Ring

R = Ring(("x", "y", "z"))
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
