"""Polynomial matrices, syzygies and exact lifting."""

import random
from fractions import Fraction

import pytest

from cmlink.groebner import Ideal, buchberger
from cmlink.modules import (
    NotInImageError,
    PolyMatrix,
    _column_degrees,
    _greedy_prune,
    _kernel_generators,
    det_bareiss,
    image_lifter,
    lift_through,
    module_groebner,
    module_normal_form,
    prune_redundant_columns,
    syzygy_matrix,
)
from cmlink.poly import (
    GREVLEX,
    LEX,
    Polynomial,
    Ring,
    block_order,
    grevlex_order,
    monomial_div,
    monomial_divides,
    monomial_mul,
)

R = Ring(("x", "y", "z"))
x, y, z = R.gens()


def det_cofactor(M):
    """Independent determinant oracle by Laplace expansion."""
    n = M.nrows
    if n == 1:
        return M.rows[0][0]
    total = M.ring.zero()
    for j in range(n):
        entry = M.rows[0][j]
        if entry.is_zero():
            continue
        minor = PolyMatrix(
            [[M.rows[i][k] for k in range(n) if k != j] for i in range(1, n)],
            M.ring,
        )
        piece = entry * det_cofactor(minor)
        total = total + (piece if j % 2 == 0 else -piece)
    return total


def random_poly(rng, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(3))
        c = rng.randint(-3, 3)
        if c:
            terms[e] = Fraction(c)
    return Polynomial(R, terms) if terms else R.zero()


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            M = PolyMatrix(
                [[random_poly(rng, 1, 2) for _ in range(n)] for _ in range(n)], R
            )
            assert det_bareiss(M) == det_cofactor(M)


def test_det_diagonal_and_singular():
    D = PolyMatrix.from_strings(R, [["x", "0"], ["0", "y"]])
    assert det_bareiss(D) == x * y
    S = PolyMatrix.from_strings(R, [["x", "x"], ["y", "y"]])
    assert det_bareiss(S).is_zero()
    with pytest.raises(ValueError):
        det_bareiss(PolyMatrix.from_strings(R, [["x", "y"]]))


def test_matrix_text_round_trip():
    M = PolyMatrix.from_strings(R, [["x", "0"], ["z^2", "y - 1"]])
    text = M.to_text()
    assert text.splitlines()[0] == "matrix 2 2"
    assert M.transpose().transpose() == M


def test_module_division_identity():
    basis = [[x, y], [y, R.zero()]]
    vec = [x**2 + y**2, x * y + z]
    q, rem = module_normal_form(vec, basis, GREVLEX)
    rebuilt = [R.zero(), R.zero()]
    for qi, b in zip(q, basis):
        rebuilt = [a + qi * c for a, c in zip(rebuilt, b)]
    assert [a + r for a, r in zip(rebuilt, rem)] == vec


def reference_normal_form(vec, basis, order):
    """The division loop before the heap: `max` over the pending terms every step."""
    ring = vec[0].ring
    key = order.key
    leads = []
    for w in basis:
        pos = next(k for k, p in enumerate(w) if p.terms)
        exps = max(w[pos].terms, key=key)
        leads.append((pos, exps, w[pos].terms[exps]))
    quotients = [{} for _ in basis]
    remainder = [{} for _ in vec]
    work = [dict(p.terms) for p in vec]
    for pos, terms in enumerate(work):
        while terms:
            exps = max(terms, key=key)
            coeff = terms.pop(exps)
            for i, (lpos, lexps, lcoeff) in enumerate(leads):
                if lpos == pos and monomial_divides(lexps, exps):
                    t_exps = monomial_div(exps, lexps)
                    t_coeff = coeff / lcoeff
                    quotients[i][t_exps] = t_coeff
                    for r in range(pos, len(work)):
                        _reference_sub_term(work[r], basis[i][r], t_exps, t_coeff,
                                            exps if r == pos else None)
                    break
            else:
                remainder[pos][exps] = coeff
    return ([Polynomial(ring, q) for q in quotients],
            [Polynomial(ring, r) for r in remainder])


def _reference_sub_term(terms, q, t_exps, t_coeff, skip):
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


DIVISION_ORDERS = [GREVLEX, LEX, block_order(1), grevlex_order(perm=(2, 0, 1))]
QQ_S = Ring(("x", "y", "z"), ("s",))


def _random_field_poly(ring, rng, max_deg, max_terms):
    """Random polynomial; over QQ(s) its coefficients involve s."""
    choices = [1, -1, 2, -3] if ring.field is None else [1, -2, "s", "s+1", "1/(1-s)"]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[e] = ring.coeff(rng.choice(choices))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=["grevlex", "lex", "block1", "perm"])
@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_heap_division_matches_reference_rank1(ring, order):
    """Division against reduced bases, and against arbitrary divisors."""
    rng = random.Random(f"rank1:{order}:{ring}")
    for _ in range(4):
        gens = [_random_field_poly(ring, rng, 2, 3) for _ in range(2)]
        for divisors in (buchberger(gens, order), gens):
            basis = [[g] for g in divisors]
            for _ in range(5):
                vec = [_random_field_poly(ring, rng, 3, 6)]
                assert module_normal_form(vec, basis, order) == \
                    reference_normal_form(vec, basis, order)


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=["grevlex", "lex", "block1", "perm"])
@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_heap_division_matches_reference_rank3(ring, order):
    """Rank-3 vectors against a module Groebner basis."""
    rng = random.Random(f"rank3:{order}:{ring}")
    for _ in range(3):
        cols = [[_random_field_poly(ring, rng, 1, 2) for _ in range(3)] for _ in range(2)]
        basis, _ = module_groebner(cols, order)
        for _ in range(4):
            vec = [_random_field_poly(ring, rng, 2, 4) for _ in range(3)]
            assert module_normal_form(vec, basis, order) == \
                reference_normal_form(vec, basis, order)


def test_heap_division_when_a_cancelled_term_comes_back():
    # x^2 cancels in the first step (x^3 by x^2 - x) and comes back in the
    # second (x^2*y by x*y - x) before it is popped, so its heap holds two
    # items for x^2: one is processed, the other finds it gone
    basis = [[x * y - x], [x**2 - x]]
    vec = [x**3 + x**2 * y - x**2]
    q, rem = module_normal_form(vec, basis, GREVLEX)
    assert (q, rem) == reference_normal_form(vec, basis, GREVLEX)
    assert q == [x, x + 1] and rem == [x]


def test_syzygy_annihilates():
    rng = random.Random(3)
    for _ in range(4):
        M = PolyMatrix(
            [[random_poly(rng, 1, 2) for _ in range(3)] for _ in range(2)], R
        )
        S = syzygy_matrix(M)
        assert (M * S).is_zero()


def test_syzygy_of_variables_is_koszul_kernel():
    # kernel of [x y z] is generated by the Koszul relations
    M = PolyMatrix([[x, y, z]], R)
    S = syzygy_matrix(M)
    assert (M * S).is_zero()
    basis, _ = module_groebner(S.columns(), GREVLEX)
    koszul = [[y, -x, R.zero()], [z, R.zero(), -x], [R.zero(), z, -y]]
    for vec in koszul:
        _, rem = module_normal_form(vec, basis, GREVLEX)
        assert all(p.is_zero() for p in rem)


def test_syzygy_completeness_bounded_degree():
    """Every bounded-degree kernel vector of a random matrix reduces to zero."""
    rng = random.Random(11)
    M = PolyMatrix([[x * y, x * z - y**2, y * z]], R)
    S = syzygy_matrix(M)
    assert (M * S).is_zero()
    basis, _ = module_groebner(S.columns(), GREVLEX)
    # brute-force kernel search: random low-degree combinations that land in
    # the kernel must reduce to zero against the syzygy module
    found = 0
    for _ in range(200):
        v = [random_poly(rng, 1, 2) for _ in range(3)]
        image = (M * v)[0]
        if not image.is_zero():
            continue
        found += 1
        _, rem = module_normal_form(v, basis, GREVLEX)
        assert all(p.is_zero() for p in rem)
    # cross-column relations are always kernel members worth checking
    cols = M.rows[0]
    pairs = [
        [cols[1], -cols[0], R.zero()],
        [cols[2], R.zero(), -cols[0]],
        [R.zero(), cols[2], -cols[1]],
    ]
    for v in pairs:
        assert (M * v)[0].is_zero()
        _, rem = module_normal_form(v, basis, GREVLEX)
        assert all(p.is_zero() for p in rem)


def test_prune_redundant_columns():
    cols = [[x, y], [y, z], [x + y, y + z]]
    kept = prune_redundant_columns(cols)
    assert len(kept) == 2


def test_lift_round_trip():
    rng = random.Random(5)
    M = PolyMatrix.from_strings(R, [["x", "y", "0"], ["0", "x", "z"]])
    for _ in range(5):
        sol = [random_poly(rng, 1, 2) for _ in range(3)]
        b = M * sol
        lifted = lift_through(b, M)
        assert M * lifted == b


def test_lift_failure_reports_remainder():
    M = PolyMatrix.from_strings(R, [["x", "y"]])
    with pytest.raises(NotInImageError) as exc:
        lift_through([R.one()], M)
    assert not all(p.is_zero() for p in exc.value.remainder)


def test_lift_zero_vector():
    M = PolyMatrix.from_strings(R, [["x", "y"]])
    assert lift_through([R.zero()], M) == [R.zero(), R.zero()]


def test_lift_through_no_columns():
    assert module_groebner([]) == ([], [])
    S = Ring(("x",))
    M = PolyMatrix.zero(S, 1, 0)
    assert lift_through([S.zero()], M) == []
    b = [S.poly("x")]
    with pytest.raises(NotInImageError) as exc:
        image_lifter(M)(b)
    assert exc.value.remainder == b


def _as_text(columns):
    return [[str(p) for p in col] for col in columns]


def _prune_matches_greedy(columns):
    """Prune `columns`; the kept columns must be exactly the greedy loop's."""
    kept = prune_redundant_columns(columns, GREVLEX)
    nonzero = [c for c in columns if not all(p.is_zero() for p in c)]
    assert _as_text(kept) == _as_text(_greedy_prune(nonzero, GREVLEX))
    return kept


def _minors(top, bottom):
    m = len(top)
    return [f"({top[i]})*({bottom[j]}) - ({top[j]})*({bottom[i]})"
            for i in range(m) for j in range(i + 1, m)]


P5 = Ring(tuple(f"x{i}" for i in range(5)))
RS = Ring(("x", "y", "z"), ("s",))


@pytest.mark.parametrize("ring, gens, graded", [
    (P5, _minors([f"x{i}" for i in range(4)], [f"x{i + 1}" for i in range(4)]), True),
    (P5, _minors(["2*x0", "-x1", "3*x2", "-x3"], ["-x1", "2*x2", "x3", "-3*x4"]), True),
    (R, ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], True),
    (R, ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"], False),
    (RS, ["x*y - s*z^2", "x*z", "y*z"], True),
    (R, ["x^2 - x", "x*y"], False),
])
def test_prune_matches_greedy_on_every_differential(ring, gens, graded):
    """Kernel generators of each differential, pruned by degree or greedily."""
    d = PolyMatrix([list(Ideal.from_strings(ring, gens).gens)], ring)
    paths = []
    while True:
        columns = _kernel_generators(d, GREVLEX)
        if not columns:
            break
        paths.append(_column_degrees(columns) is not None)
        d = PolyMatrix.from_columns(_prune_matches_greedy(columns), ring)
    # homogeneous ideals take the degree-by-degree path from the first step
    assert paths[0] == graded


def test_prune_falls_back_on_an_inhomogeneous_entry():
    cols = [[x, y], [y, z], [x + y, y + z], [x * y, z**2 + x], [x**2, x * y]]
    assert _column_degrees(cols) is None
    assert len(_prune_matches_greedy(cols)) == 3


def test_prune_by_degree_with_two_row_blocks():
    """Rows 0-1 and rows 2-3 are graded with different shifts."""
    zero = R.zero()
    a0, a1 = [x, y, zero, zero], [y, z, zero, zero]
    b0, b1 = [zero, zero, x**2, y], [zero, zero, y**2, z]
    cols = [
        [x * p + y * q for p, q in zip(b0, b1)],
        a0,
        b0,
        [p + 2 * q for p, q in zip(a0, a1)],
        a1,
        b1,
        [x * p - z * q for p, q in zip(a0, a1)],
        [zero, zero, x * y, x],
        [zero, zero, x**2, zero],
        # row 3 sits one degree above row 2, so this column has degree 2
        [zero, zero, zero, y],
    ]
    assert _column_degrees(cols) == [3, 1, 2, 1, 1, 2, 2, 2, 2, 2]
    # a1 is in the span of a0 and a0 + 2*a1 before it, so it goes instead
    kept = [cols[j] for j in (1, 2, 3, 5, 7, 8)]
    assert _as_text(_prune_matches_greedy(cols)) == _as_text(kept)


def test_det_of_the_empty_matrix_is_one():
    assert det_bareiss(PolyMatrix([], R)) == R.one()


def test_lift_through_one_row_solves():
    """One row: the pair loop skips pairs by its criteria while tracking representations."""
    rng = random.Random(11)
    for _ in range(10):
        M = PolyMatrix([[random_poly(rng, 2, 3) for _ in range(rng.choice((2, 3, 4)))]], R)
        lift = image_lifter(M)
        for _ in range(3):
            b = M * [random_poly(rng, 1, 2) for _ in range(M.ncols)]
            assert M * lift(b) == b
