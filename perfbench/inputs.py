"""Seeded inputs for the benchmark workloads, as plain strings.

Nothing here imports cmlink: the program only ever sees the generated
generator lists, matrices and ideal files.  Every seeded family is built so
that its mathematical invariants are known in advance (codimension, ranks of
the minimal resolution), which keeps every operation valid for every seed.
"""

from __future__ import annotations

import random
from math import comb

# the paper's twisted cubic and the complete intersection linked to it
CURVE = ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]
CI = ["z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"]
CI_SWAPPED = ["z^2 - x^2*y", "x^4 - 2*x*y*z + y^3"]
# I : J for I = CI, J = CURVE is I + (x^3 - yz, y^2 - xz) (paper, section 5)
CURVE_CI_LINK = ["x^3 - y*z", "y^2 - x*z"]
XYZ = ("x", "y", "z")

# lex Groebner basis that groebner.buchberger cannot finish: it never
# interreduces inside its loop, so the basis grows past 55 elements with
# coefficients of tens of thousands of bits
LEX_TRINOMIALS = [
    "-3*x^2*y^2*z^2 - x^2*y^2*z + 2*y*z^2",
    "-2*x^2*y*z^2 - 2*x*y^2*z^2 + 3*y*z",
    "2*x^2*y*z^2 - 2*y^2*z^2 - 2*x*z",
]

# further codimension-2 complete intersections in three variables for the
# Weierstrass/Euclid recipe (all vanish at the origin)
RECIPE_CIS = [
    CI_SWAPPED,
    CI,
    ["x*y - z^2", "x^3 - y^2"],
    ["x*z - y^2", "x^2 + z^3"],
    ["x^3 - y*z", "y^3 - x*z"],
]

# ideals over QQ(s) for Groebner bases in the parameter coefficient field
PARAM_IDEALS = [
    ["x^2 - s*y", "y^2 - x*z", "x*y - s*z"],
    ["s*x^2 - y*z", "x*y - z^2", "(s+1)*x - y^2"],
    ["x^3 - s*y*z", "y^2 - x*z"],
]

MAGNITUDES = (1, 2, 3)


def signed(shape, coef):
    """Nonzero integer: magnitude from `shape`, sign from `coef`.

    Workloads seed `shape` with a fixed value and `coef` with the run's seed,
    so a seed changes signs but not the size of the numbers: with seeded
    magnitudes as well, one pass took up to 9% longer on one seed than on
    another.
    """
    return coef.choice((-1, 1)) * shape.choice(MAGNITUDES)


def rnc(n):
    """Rational normal curve of degree n: 2x2 minors of [[x0..x(n-1)], [x1..xn]]."""
    names = tuple(f"x{i}" for i in range(n + 1))
    top = [f"x{i}" for i in range(n)]
    bottom = [f"x{i + 1}" for i in range(n)]
    return names, _minors(top, bottom)


def eagon_northcott_ranks(m):
    """Ranks 1, i*C(m, i+1) of the minimal resolution of 2x2 minors of a 2 x m matrix."""
    return [1] + [i * comb(m, i + 1) for i in range(1, m)]


def hankel_minors(m, shape, coef):
    """2x2 minors of a seeded 2 x m matrix of linear forms in m + 1 variables.

    The entries follow the Hankel pattern of rnc(m), each scaled by a
    nonzero integer from `signed`.  Rescaling rows, columns and variables
    turns the matrix back into that of rnc(m), so the minors have
    codimension m - 1 and Eagon-Northcott ranks for every seed; only the
    signs of the scalars change, which keeps the work per seed nearly the
    same.
    """
    names = tuple(f"x{i}" for i in range(m + 1))
    top = [f"{signed(shape, coef)}*x{i}" for i in range(m)]
    bottom = [f"{signed(shape, coef)}*x{i + 1}" for i in range(m)]
    return names, _minors(top, bottom)


def _minors(top, bottom):
    m = len(top)
    return [
        f"({top[i]})*({bottom[j]}) - ({top[j]})*({bottom[i]})"
        for i in range(m)
        for j in range(i + 1, m)
    ]


def random_poly(names, shape, coef, max_deg, terms):
    """Polynomial with `terms` terms of degree <= max_deg, as a string.

    `shape` picks the monomials and coefficient magnitudes, `coef` the signs
    (see `signed`), so every seed divides polynomials of the same support.
    """
    out = []
    while len(out) < terms:
        exps = [shape.randint(0, max_deg) for _ in names]
        if sum(exps) > max_deg:
            continue
        c = signed(shape, coef)
        mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e)
        out.append(f"{c}*{mono}" if mono else str(c))
    return _join(out)


def _join(terms):
    """Sum of signed terms, written without a '+ -' the parser would reject."""
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text


def constructed_member(names, gens, shape, coef):
    """sum c_i * g_i with seeded cofactors c_i: a member of (gens) by construction."""
    return " + ".join(
        f"({random_poly(names, shape, coef, 2, 2)})*({g})" for g in gens
    )


def param_poly(shape, coef, degree, max_par_deg, terms):
    """Criterion-7 terms: a polynomial in x over QQ(s,t), as a string.

    The term x^degree is always present and the parameter monomial of the
    j-th term is fixed; `shape` picks the lower exponents in x and the
    coefficient magnitudes, `coef` the signs (see `signed`).
    """
    exps = [degree] + [shape.randint(0, degree - 1) for _ in range(terms - 1)]
    out = []
    for j, e in enumerate(exps):
        c = signed(shape, coef)
        ps = j % (max_par_deg + 1)
        pt = (2 * j + 1) % (max_par_deg + 1)
        out.append(f"({c}*s^{ps}*t^{pt})*x^{e}")
    return " + ".join(out)


def param_pair(shape, coef, shared):
    """(P, Q) over QQ(s,t) of degree 4 in x; with `shared`, a common factor."""
    if shared:
        common = param_poly(shape, coef, 2, 1, 2)
        return (
            f"({param_poly(shape, coef, 2, 1, 2)})*({common})",
            f"({param_poly(shape, coef, 2, 1, 2)})*({common})",
        )
    return param_poly(shape, coef, 4, 2, 3), param_poly(shape, coef, 4, 2, 3)


def ideal_file(names, gens, params=()):
    field = f"QQ({','.join(params)})" if params else "QQ"
    return f"ring {','.join(names)} over {field}\n" + "".join(f"{g}\n" for g in gens)
