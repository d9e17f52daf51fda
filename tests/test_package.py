"""The public names of the package."""

import cmlink

# the whole public API; perfbench traces these names, so a change here is an
# API change that needs a migration note
PUBLIC_NAMES = {
    "ChainComplex", "ComplexError", "ComplexMorphism", "ContainmentFailureError",
    "CurrentRecipe", "DivisionResult", "ExactnessReport", "FreeResolution",
    "GREVLEX", "GenericCIError", "Ideal", "KoszulComplex", "LEX", "LinearChange",
    "LinkageReport", "MonomialOrder", "MorphismError", "NotInImageError",
    "NotRegularError", "OriginPoleError", "ParseError", "PolyMatrix", "Polynomial",
    "RecipeError", "Ring", "RingMismatchError", "SingularMatrixError",
    "WeierstrassForm", "apply_linear_change", "block_order", "buchberger",
    "comparison_morphism", "current_recipe", "det_bareiss", "det_transform_member",
    "divide_exact", "eliminate", "extended_euclid", "free_resolution", "generic_ci",
    "ideal_codim", "ideal_colon", "ideal_intersect", "ideal_member", "ideal_sum",
    "is_cohen_macaulay", "lift_through", "link_decomposition_check", "membership_via_link",
    "module_groebner", "module_normal_form", "normal_form", "parse_poly",
    "parse_ring_header", "resultant_sylvester", "s_polynomial",
    "syzygy_matrix", "verify_exactness", "weierstrass_ready",
}


def test_every_exported_name_resolves():
    missing = [name for name in cmlink.__all__ if not hasattr(cmlink, name)]
    assert missing == []


def test_exported_names_are_the_public_api():
    assert len(set(cmlink.__all__)) == len(cmlink.__all__)
    assert set(cmlink.__all__) == PUBLIC_NAMES
