"""Walkthrough: Koszul complexes, free resolutions and exactness.

Run with: python3 demos/demo_free_resolution.py
"""

from cmlink import (
    Ideal,
    KoszulComplex,
    Ring,
    free_resolution,
    is_cohen_macaulay,
    verify_exactness,
)

ring = Ring(("x", "y", "z"))

# Koszul complex of (x, y, z): the classic exact complex with binomial ranks.
K = KoszulComplex([ring.poly(v) for v in ("x", "y", "z")])
print("Koszul complex of (x, y, z), ranks:", K.ranks())
for k, d in enumerate(K.differentials, start=1):
    print(f"\nd_{k}:")
    print(d.to_text())

# Minimal free resolution of the curve ideal: length 2, ranks (1, 3, 2).
curve = Ideal.from_strings(ring, ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"])
res = free_resolution(curve, minimalize=True)
print("\ncurve resolution ranks:", res.ranks(), "minimal:", res.minimal)
report = verify_exactness(res)
print("exact:", report.exact)
cm, codim, length = is_cohen_macaulay(curve)
print(f"Cohen-Macaulay: {cm} (codim {codim}, resolution length {length})")

# A non-Cohen-Macaulay example: (xz, yz) has codim 1 but resolution length 2.
flat = Ideal.from_strings(ring, ["x*z", "y*z"])
cm, codim, length = is_cohen_macaulay(flat)
print(f"\n(xz, yz): Cohen-Macaulay: {cm} (codim {codim}, length {length})")
