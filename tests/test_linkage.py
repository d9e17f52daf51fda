"""Comparison morphisms, colon-ideal duality and linkage membership."""

import json
import random
from fractions import Fraction

import pytest

from cmlink.complexes import KoszulComplex, free_resolution
from cmlink.groebner import Ideal, ideal_colon, ideal_member, ideal_sum
from cmlink.linkage import (
    ComplexMorphism,
    ContainmentFailureError,
    MorphismError,
    comparison_morphism,
    det_transform_member,
    generic_ci,
    link_decomposition_check,
    membership_via_link,
)
from cmlink.modules import PolyMatrix
from cmlink.poly import Polynomial, Ring, RingMismatchError

R = Ring(("x", "y", "z"))
x, y, z = R.gens()

CURVE = ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]
CI = ["z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"]


def curve_ideal():
    return Ideal.from_strings(R, CURVE)


def ci_ideal():
    return Ideal.from_strings(R, CI)


def test_golden_morphism_matrices_pass_verbatim():
    """Explicit resolution and lift matrices entered as golden inputs."""
    phi1 = PolyMatrix.from_strings(R, [["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]])
    phi2 = PolyMatrix.from_strings(R, [["-z", "-x^2"], ["-y", "-z"], ["x", "y"]])
    from cmlink.complexes import FreeResolution, verify_exactness

    E = FreeResolution([phi1, phi2], curve_ideal())
    assert verify_exactness(E).exact

    K = KoszulComplex([R.poly(t) for t in CI])
    a0 = PolyMatrix.from_strings(R, [["1"]])
    a1 = PolyMatrix.from_strings(R, [["0", "y"], ["0", "x"], ["-1", "0"]])
    a2 = PolyMatrix.from_strings(R, [["x^3 - y*z"], ["y^2 - x*z"]])
    morphism = ComplexMorphism(K, E, [a0, a1, a2])
    assert morphism.violation() is None
    report = link_decomposition_check(ci_ideal(), curve_ideal(), morphism)
    assert report.ok


def test_morphism_with_a_failing_square_is_not_built():
    K = KoszulComplex([R.poly(t) for t in CI])
    E = free_resolution(curve_ideal(), minimalize=True)
    a0 = PolyMatrix.from_strings(R, [["1"]])
    a1 = PolyMatrix.from_strings(R, [["0", "y"], ["0", "y"], ["-1", "0"]])
    a2 = PolyMatrix.from_strings(R, [["-y^2 + x*z"], ["-x^3 + y*z"]])
    with pytest.raises(MorphismError, match="commuting square fails at degree 1"):
        ComplexMorphism(K, E, [a0, a1, a2])


def test_computed_morphism_squares_commute():
    K = KoszulComplex([R.poly(t) for t in CI])
    E = free_resolution(curve_ideal(), minimalize=True)
    a = comparison_morphism(K, E)
    assert a.violation() is None
    for k in range(1, len(a.matrices)):
        left = E.differentials[k - 1] * a.matrices[k]
        right = a.matrices[k - 1] * K.differentials[k - 1]
        assert left == right


def test_containment_precondition_enforced():
    K = KoszulComplex([x, R.poly("x + 1")])
    E = free_resolution(Ideal([x, y]), minimalize=True)
    with pytest.raises(ContainmentFailureError):
        comparison_morphism(K, E)


def test_curve_link_decomposition():
    I, J = ci_ideal(), curve_ideal()
    K = KoszulComplex([R.poly(t) for t in CI])
    E = free_resolution(J, minimalize=True)
    a = comparison_morphism(K, E)
    report = link_decomposition_check(I, J, a)
    assert report.double_link_holds
    assert report.decomposition_holds
    assert not report.witnesses
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "I",
        "J",
        "K_colon",
        "L_top_entries",
        "double_link_holds",
        "decomposition_holds",
        "witnesses",
    }


def test_colon_equals_sum_with_link():
    I, J = ci_ideal(), curve_ideal()
    K = KoszulComplex([R.poly(t) for t in CI])
    E = free_resolution(J, minimalize=True)
    a = comparison_morphism(K, E)
    colon = ideal_colon(I, J)
    expected = ideal_sum(I, Ideal(a.top_entries(), R))
    assert colon.equals(expected)


def test_membership_via_link_matches_gb_sample():
    I, J = ci_ideal(), curve_ideal()
    K = KoszulComplex([R.poly(t) for t in CI])
    a = comparison_morphism(K, free_resolution(J, minimalize=True))
    entries = a.top_entries()
    probes = [
        R.poly(t)
        for t in [
            "y^2 - x*z",
            "x^3 - y*z",
            "x",
            "y",
            "z",
            "1",
            "x*y - z",
            "x^2*y - z^2",
            "y^2 - x*z + x^3 - y*z",
        ]
    ]
    for g in probes:
        assert membership_via_link(g, I, entries) == ideal_member(g, J)


def test_non_cm_target_rejected():
    I = Ideal.from_strings(R, ["x*z"])
    J = Ideal.from_strings(R, ["x*z", "y*z"])
    K = KoszulComplex([R.poly("x*z")])
    E = free_resolution(J, minimalize=True)
    # lengths differ so the morphism cannot even be built
    with pytest.raises(MorphismError):
        comparison_morphism(K, E)


def test_det_transform_law():
    R2 = Ring(("x", "y"))
    I = Ideal.from_strings(R2, ["x^2", "y^2"])
    J = Ideal.from_strings(R2, ["x", "y"])
    A = PolyMatrix.from_strings(R2, [["x", "0"], ["0", "y"]])
    assert det_transform_member(R2.poly("x"), I, J, A) is True
    assert det_transform_member(R2.one(), I, J, A) is False
    # identity matrix degenerates to direct membership
    E = PolyMatrix.identity(R2, 2)
    assert det_transform_member(R2.poly("x^2"), I, I, E) is True
    # row identity violations are errors, not verdicts
    bad = PolyMatrix.from_strings(R2, [["y", "0"], ["0", "x"]])
    with pytest.raises(ValueError):
        det_transform_member(R2.poly("x"), I, J, bad)


def test_membership_via_link_needs_a_nonzero_top_entry():
    R2 = Ring(("x", "y"))
    I = Ideal.from_strings(R2, ["x^2", "y^2"])
    # with no nonzero h, "h*g in I for every h" holds for every g
    for entries in ([], [R2.zero(), R2.zero()]):
        with pytest.raises(ValueError):
            membership_via_link(R2.one(), I, entries)
    assert membership_via_link(R2.one(), I, [R2.zero(), R2.poly("x^2")]) is True
    assert membership_via_link(R2.one(), I, [R2.zero(), R2.poly("x")]) is False


@pytest.mark.parametrize("other", [Ring(("x", "y", "z")), Ring(("x", "y"), ("s",))],
                         ids=["more variables", "parameters"])
def test_membership_tests_reject_a_polynomial_from_another_ring(other):
    R2 = Ring(("x", "y"))
    I = Ideal.from_strings(R2, ["x^2", "y^2"])
    J = Ideal.from_strings(R2, ["x", "y"])
    A = PolyMatrix.from_strings(R2, [["x", "0"], ["0", "y"]])
    for g in (other.poly("x"), other.poly("x^2"), other.zero()):
        with pytest.raises(RingMismatchError):
            J.contains(g)
        with pytest.raises(RingMismatchError):
            ideal_member(g, J)
        with pytest.raises(RingMismatchError):
            membership_via_link(g, I, [R2.poly("x"), R2.poly("y")])
        with pytest.raises(RingMismatchError):
            det_transform_member(g, I, J, A)
    # top entries from another ring are rejected too
    with pytest.raises(RingMismatchError):
        membership_via_link(R2.poly("x"), I, [other.poly("x")])


def test_generic_ci_deterministic_and_codim_checked():
    J = curve_ideal()
    I1 = generic_ci(J, 2, seed=4)
    I2 = generic_ci(J, 2, seed=4)
    assert [str(g) for g in I1.gens] == [str(g) for g in I2.gens]
    assert len(I1.gens) == 2
    assert J.contains_ideal(I1)
    from cmlink.groebner import ideal_codim

    assert ideal_codim(I1) == 2


def test_generic_ci_preconditions():
    J = curve_ideal()
    with pytest.raises(ValueError):
        generic_ci(J, 3, seed=0)


def test_double_colon_contains_j_property():
    rng = random.Random(2)
    for _ in range(6):
        e1 = tuple(rng.randint(0, 2) for _ in range(3))
        e2 = tuple(rng.randint(0, 2) for _ in range(3))
        if not any(e1) or not any(e2):
            continue
        I = Ideal([Polynomial(R, {e1: Fraction(1)})])
        J = Ideal([Polynomial(R, {e2: Fraction(1)})])
        K = ideal_colon(I, J)
        back = ideal_colon(I, K)
        assert back.contains_ideal(J)
