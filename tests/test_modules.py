"""Polynomial matrices, syzygies and exact lifting."""

import functools
import heapq
import itertools
import random
from fractions import Fraction

import pytest

import cmlink.groebner as groebner
import cmlink.modules as modules
from cmlink.groebner import Ideal, buchberger, normal_form, s_polynomial
from cmlink.modules import (
    NotInImageError,
    PolyMatrix,
    _chain_criterion,
    _column_degrees,
    _divide,
    _divisors,
    _greedy_prune,
    _groebner,
    _kernel_generators,
    _module_basis,
    _numerators,
    _Overflow,
    _Packing,
    _reduce,
    _reduce_spair,
    _spair,
    _unit,
    _unpacked,
    _vec_is_zero,
    _widening,
    det_bareiss,
    divides_to_zero,
    image_lifter,
    lift_through,
    module_groebner,
    module_normal_form,
    products_divide_to_zero,
    prune_redundant_columns,
    syzygy_matrix,
)
from cmlink.poly import (
    GREVLEX,
    LEX,
    Polynomial,
    Ring,
    block_order,
    monomial_lcm,
    monomial_mul,
)

R = Ring(("x", "y", "z"))
x, y, z = R.gens()


def monomial_divides(a, b):
    """a | b exponentwise; the field-arithmetic references divide with tuples."""
    return all(p <= q for p, q in zip(a, b))


def monomial_div(b, a):
    return tuple(p - q for p, q in zip(b, a))


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


def test_det_divides_from_the_second_elimination_step_on(monkeypatch):
    """The first step's divisor is one: a 2x2 determinant divides nothing, a 3x3 once."""
    divisors = []
    original = groebner.divide_exact

    def counting(p, d, *args):
        divisors.append(d)
        return original(p, d, *args)

    monkeypatch.setattr(groebner, "divide_exact", counting)
    M = PolyMatrix.from_strings(R, [["x*y", "z"], ["y", "x + 1"]])
    assert det_bareiss(M) == det_cofactor(M)
    assert divisors == []
    M = PolyMatrix.from_strings(R, [["x", "y", "1"], ["z", "x", "y"], ["1", "z", "x"]])
    assert det_bareiss(M) == det_cofactor(M)
    assert divisors == [x]  # the first pivot


def test_matrix_text_round_trip():
    M = PolyMatrix.from_strings(R, [["x", "0"], ["z^2", "y - 1"]])
    text = M.to_text()
    assert text.splitlines()[0] == "matrix 2 2"


def test_module_division_identity():
    basis = [[x, y], [y, R.zero()]]
    vec = [x**2 + y**2, x * y + z]
    q, rem = module_normal_form(vec, basis, GREVLEX)
    rebuilt = [R.zero(), R.zero()]
    for qi, b in zip(q, basis):
        rebuilt = [a + qi * c for a, c in zip(rebuilt, b)]
    assert [a + r for a, r in zip(rebuilt, rem)] == vec


def reference_normal_form(vec, basis, order):
    """The division loop before the heap: `min` over the pending terms every step."""
    ring = vec[0].ring
    key = order.desc_key
    leads = []
    for w in basis:
        pos = next(k for k, p in enumerate(w) if p.terms)
        exps = min(w[pos].terms, key=key)
        leads.append((pos, exps, w[pos].terms[exps]))
    quotients = [{} for _ in basis]
    remainder = [{} for _ in vec]
    work = [dict(p.terms) for p in vec]
    for pos, terms in enumerate(work):
        while terms:
            exps = min(terms, key=key)
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


DIVISION_ORDERS = [GREVLEX, LEX, block_order(1)]


def _seed(order):
    """The order written out as its `repr` was when the seeded cases were drawn."""
    return f"MonomialOrder(kind={order.kind!r}, block={order.block})"
QQ_S = Ring(("x", "y", "z"), ("s",))


def _random_field_poly(ring, rng, max_deg, max_terms):
    """Random polynomial; over QQ(s) its coefficients involve s."""
    choices = [1, -1, 2, -3] if ring.field is None else [1, -2, "s", "s+1", "1/(1-s)"]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[e] = ring.coeff(rng.choice(choices))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=["grevlex", "lex", "block1"])
@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_heap_division_matches_reference_rank1(ring, order):
    """Division against reduced bases, and against arbitrary divisors."""
    rng = random.Random(f"rank1:{_seed(order)}:{ring}")

    def check(divisors, vecs):
        basis = [[g] for g in divisors]
        for vec in vecs:
            assert module_normal_form(vec, basis, order) == \
                reference_normal_form(vec, basis, order)

    for _ in range(4):
        gens = [_random_field_poly(ring, rng, 2, 3) for _ in range(2)]
        # drawn in the order the reduced basis and the generators use them
        gb_vecs, gen_vecs = ([[_random_field_poly(ring, rng, 3, 6)] for _ in range(5)]
                             for _ in range(2))
        # the raw generators come first: `buchberger` runs the division under
        # test, so a broken division fails here rather than hanging there
        check(gens, gen_vecs)
        check(buchberger(gens, order), gb_vecs)


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=["grevlex", "lex", "block1"])
@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_heap_division_matches_reference_rank3(ring, order):
    """Rank-3 vectors against a module Groebner basis."""
    rng = random.Random(f"rank3:{_seed(order)}:{ring}")
    for _ in range(3):
        cols = [[_random_field_poly(ring, rng, 1, 2) for _ in range(3)] for _ in range(2)]
        basis, _ = module_groebner(cols, order)
        for _ in range(4):
            vec = [_random_field_poly(ring, rng, 2, 4) for _ in range(3)]
            assert module_normal_form(vec, basis, order) == \
                reference_normal_form(vec, basis, order)


# three QQ(s) columns whose module basis under LEX took 12-19 s with
# fraction-field arithmetic in the division loop
QQ_S_COLUMNS = [
    ["s*x*z", "x*y + s*x", "(s+1)*y - 2*z"],
    ["1/(1-s)*z + 1", "-2*x*y*z + 1/(1-s)*x*y", "(s+1)*x*y*z - 2"],
    ["s*x*y + 1/(1-s)*z", "1/(1-s)*z", "s*x*y + z"],
]


def test_heap_division_matches_reference_rank3_three_qq_s_columns():
    """The fraction-free loop against field arithmetic on a full QQ(s) module basis.

    Divides by the columns themselves and by their module basis.  Leading
    numerators involve s (denominators 1 - s), so the loop rescales its
    pending terms on the way.
    """
    cols = [[QQ_S.poly(t) for t in col] for col in QQ_S_COLUMNS]
    rng = random.Random("rank3:three QQ(s) columns")
    for _ in range(3):
        vec = [_random_field_poly(QQ_S, rng, 2, 4) for _ in range(3)]
        assert module_normal_form(vec, cols, GREVLEX) == \
            reference_normal_form(vec, cols, GREVLEX)
    basis, reps = module_groebner(cols, GREVLEX)
    for vec, rep in zip(basis, reps):
        assert vec == [sum((r * col[i] for r, col in zip(rep, cols)), QQ_S.zero())
                       for i in range(3)]
    for col in cols:
        q, rem = module_normal_form(col, basis, GREVLEX)
        assert (q, rem) == reference_normal_form(col, basis, GREVLEX)
        assert all(p.is_zero() for p in rem)
    for _ in range(3):
        vec = [_random_field_poly(QQ_S, rng, 2, 4) for _ in range(3)]
        assert module_normal_form(vec, basis, GREVLEX) == \
            reference_normal_form(vec, basis, GREVLEX)


@pytest.mark.parametrize("ring, lead", [(R, "2"), (QQ_S, "2*s")], ids=["QQ", "QQ(s)"])
def test_division_when_the_leading_numerator_divides_the_pending_one(ring, lead):
    """gcd(C, L) = L up to a unit: no rescale, and the step subtracts (C/L) * copy."""
    x, y, _ = ring.gens()
    divisor = ring.poly(lead) * x + y + 1
    for text in ("4*s*x^2 + x", "6*s*x*y - 3*x") if ring.field else ("4*x^2 + x", "6*x*y - 3*x"):
        vec = [ring.poly(text)]
        assert module_normal_form(vec, [[divisor]], GREVLEX) == \
            reference_normal_form(vec, [[divisor]], GREVLEX)


def test_heap_division_when_a_cancelled_term_comes_back():
    # x^2 cancels in the first step (x^3 by x^2 - x) and comes back in the
    # second (x^2*y by x*y - x) before it is popped, so its heap holds two
    # items for x^2: one is processed, the other finds it gone
    basis = [[x * y - x], [x**2 - x]]
    vec = [x**3 + x**2 * y - x**2]
    q, rem = module_normal_form(vec, basis, GREVLEX)
    assert (q, rem) == reference_normal_form(vec, basis, GREVLEX)
    assert q == [x, x + 1] and rem == [x]


# -- the membership decider ------------------------------------------------------


def _decider_probes(ring, rng, cols):
    """Members of the span of `cols`, each also with one term added to one
    entry, and random vectors."""
    rank = len(cols[0])
    probes = []
    for _ in range(4):
        coeffs = [_random_field_poly(ring, rng, 1, 2) for _ in cols]
        member = [sum((c * col[r] for c, col in zip(coeffs, cols)), ring.zero())
                  for r in range(rank)]
        probes.append(member)
        for r in range(rank):
            extra = _random_field_poly(ring, rng, 2, 1)
            probes.append([p + extra if k == r else p for k, p in enumerate(member)])
        probes.append([_random_field_poly(ring, rng, 2, 3) for _ in range(rank)])
    return probes


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_decider_matches_the_division_remainder(ring, order, rank):
    """divides_to_zero is module_normal_form's remainder-is-zero, without the division."""
    rng = random.Random(f"decider:{rank}:{_seed(order)}:{ring}")
    verdicts = set()
    later_entry_decides = False
    for _ in range(3):
        cols = [[_random_field_poly(ring, rng, 1, 2) for _ in range(rank)]
                for _ in range(rank + 1)]
        divisors = _groebner(cols, order, False)
        for vec in _decider_probes(ring, rng, cols):
            rem = _divide(vec, divisors)
            expected = _vec_is_zero(rem)
            assert divides_to_zero(vec, divisors) is expected
            verdicts.add(expected)
            later_entry_decides |= rem[0].is_zero() and not expected
    assert verdicts == {True, False}
    # at rank 2 some verdict is decided by the second entry alone
    assert later_entry_decides == (rank == 2)


def test_decider_stops_at_the_first_remainder_term():
    # x^2 leads x^2 + y and no leading monomial divides it: the decider
    # returns there, leaving y unreduced and the second entry untouched
    divisors = _divisors([[y, R.zero()], [R.zero(), z]], GREVLEX)
    pack = divisors.packing.pack
    work = [{pack((2, 0, 0)): 1, pack((0, 1, 0)): 1}, {pack((0, 0, 1)): 1}]
    assert _reduce(work, None, divisors, _numerators(R), decide=True) is False
    assert work == [{pack((0, 1, 0)): 1}, {pack((0, 0, 1)): 1}]
    assert not divides_to_zero([x**2 + y, z], divisors)
    assert divides_to_zero([3 * y, z], divisors)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_product_decider_matches_membership_of_the_product(ring, order):
    """Ideal.contains_products(g, [h]) is contains(h * g), without building h * g."""
    rng = random.Random(f"products:{_seed(order)}:{ring}")
    verdicts = set()
    for _ in range(3):
        f1, f2, f3, f4 = (_random_field_poly(ring, rng, 1, 2) for _ in range(4))
        ideal = Ideal([f1 * f2, f3 * f4], ring)
        divisors = ideal._basis(order)[1]
        for _ in range(3):
            r1, r2 = (_random_field_poly(ring, rng, 1, 2) for _ in range(2))
            # products in the ideal by construction, and products that need not be
            pairs = [(r1 * f1, r2 * f2), (r1 * f3, r2 * f4), (r1 * f1, r2 * f4),
                     (r1, r2 + f2)]
            for g, h in pairs:
                expected = ideal.contains(h * g, order)
                assert ideal.contains_products(g, [h], order) is expected
                assert products_divide_to_zero(g, [h], divisors) is expected
                verdicts.add(expected)
            g, hs = pairs[0][0], [h for _, h in pairs]
            assert ideal.contains_products(g, hs, order) is \
                all(ideal.contains(h * g, order) for h in hs)
            assert ideal.contains_products(g, hs[:1] + [ring.zero()], order) is True
    assert verdicts == {True, False}


# -- the pair loop against field arithmetic -----------------------------------


def reference_leading(vec, order):
    """(position, exponents, coefficient) of the leading term of a nonzero vector.

    Under position-over-term the leading term is the ring-order maximum of
    the first nonzero entry, found here by the tuple `desc_key`.
    """
    for pos, p in enumerate(vec):
        if p.terms:
            exps = min(p.terms, key=order.desc_key)
            return pos, exps, p.terms[exps]
    raise ValueError("zero vector has no leading term")


def reference_spair(basis, reps, leads, i, j):
    """S-vector of basis[i], basis[j] and its rep, in field arithmetic.

    The S-vector builder before numerators (`modules._module_spair`, which
    `modules._spair` replaced): leads[k] starts with the (position,
    exponents, coefficient) of basis[k]'s leading term.
    """
    pi, ei, ci = leads[i][:3]
    pj, ej, cj = leads[j][:3]
    assert pi == pj
    lcm = monomial_lcm(ei, ej)
    ti = monomial_div(lcm, ei)
    tj = monomial_div(lcm, ej)
    ci = 1 / ci
    cj = 1 / cj

    def term_mul(p, exps, c):
        return Polynomial(p.ring, {monomial_mul(e, exps): v * c for e, v in p.terms.items()})

    def sub(a, b):
        if b.is_zero():
            return term_mul(a, ti, ci)
        if a.is_zero():
            return -term_mul(b, tj, cj)
        return term_mul(a, ti, ci) - term_mul(b, tj, cj)

    return ([sub(a, b) for a, b in zip(basis[i], basis[j])],
            None if reps is None else [sub(a, b) for a, b in zip(reps[i], reps[j])])


def reference_combine(vec, coeffs, vectors):
    """vec - sum(coeffs[k] * vectors[k]) over the nonzero coeffs[k], one Polynomial at a time.

    `modules._combine` before it summed into one term dict per entry.
    """
    for ck, wk in zip(coeffs, vectors):
        if not ck.is_zero():
            vec = [a - ck * b for a, b in zip(vec, wk)]
    return vec


def reference_groebner(columns, order):
    """(basis, reps, leads): the pair loop with field-arithmetic S-vectors and reps.

    Each S-vector enters the tuple division as a vector of Polynomials
    (`reference_normal_form`), whose quotients give the reps; the pair
    order and both criteria are those of `modules._groebner`; leads[k] is
    the `reference_leading` of basis[k].
    """
    nonzero = [j for j, col in enumerate(columns) if not _vec_is_zero(col)]
    if not nonzero:
        return [], [], []
    ring = columns[nonzero[0]][0].ring
    units = PolyMatrix.identity(ring, len(columns)).rows
    rank1 = len(columns[nonzero[0]]) == 1
    basis, reps, leads, divisors = [], [], [], []
    pairs = []
    taken = set()

    def add(vec, rep):
        nonlocal divisors
        pos, exps, coeff = reference_leading(vec, order)
        basis.append([p.scale(1 / coeff) for p in vec])
        reps.append([p.scale(1 / coeff) for p in rep])
        leads.append(reference_leading(basis[-1], order))
        divisors = _divisors(basis, order)
        j = len(basis) - 1
        for i in range(j):
            if divisors[i][0] == pos:
                lcm = monomial_lcm(divisors[i][1], exps)
                heapq.heappush(pairs, (sum(lcm), lcm, i, j))

    for j in nonzero:
        add(columns[j], units[j])
    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        if rank1:
            taken.add((i, j))
            if lcm == monomial_mul(divisors[i][1], divisors[j][1]) or _chain_criterion(
                    i, j, lcm, divisors, taken):
                continue
        svec, srep = reference_spair(basis, reps, leads, i, j)
        q, rem = reference_normal_form(svec, basis, order)
        if not _vec_is_zero(rem):
            add(rem, reference_combine(srep, q, reps))
    return basis, reps, leads


def reference_kernel(M, order, basis, reps, leads):
    """Schreyer's kernel generators of M from its reference basis, reps and leads.

    Each syzygy is summed in field arithmetic (`reference_combine`) from
    the quotients of the tuple division (`reference_normal_form`).
    """
    ring = M.ring
    cols = M.columns()
    syz_cols = []
    for i, j in itertools.combinations(range(len(basis)), 2):
        if leads[i][0] != leads[j][0]:
            continue
        svec, srep = reference_spair(basis, reps, leads, i, j)
        q, rem = reference_normal_form(svec, basis, order)
        assert _vec_is_zero(rem)
        syz_cols.append(reference_combine(srep, q, reps))
    for j, col in enumerate(cols):
        unit = [ring.zero()] * len(cols)
        unit[j] = ring.one()
        if _vec_is_zero(col):
            syz_cols.append(unit)
            continue
        q, rem = reference_normal_form(col, basis, order)
        assert _vec_is_zero(rem)
        syz_cols.append(reference_combine(unit, q, reps))
    kept = []
    for col in syz_cols:
        if not _vec_is_zero(col) and col not in kept:
            kept.append(col)
    return kept


def _seeded_matrix(ring, k):
    """The k-th seeded 2x3 matrix; over QQ(s) its coefficients involve s."""
    rng = random.Random(f"pair loop:{ring}:{k}")
    return PolyMatrix([[_random_field_poly(ring, rng, 1, 2) for _ in range(3)]
                       for _ in range(2)], ring)


# the differentials d2, d3 of the resolution of rnc(4), the 2x2 minors of
# [[x0..x3], [x1..x4]] (ranks [1, 6, 8, 3]), written out so that no case is
# built by the pair loop under test
RNC4_D2 = [
    ["-x2", "-x3", "0", "x3", "x4", "0", "0", "0"],
    ["x1", "0", "-x3", "-x2", "-x3", "x4", "x4", "0"],
    ["0", "x1", "x2", "0", "0", "-x3", "-x3", "0"],
    ["-x0", "0", "0", "x1", "0", "0", "-x3", "x4"],
    ["0", "-x0", "0", "0", "x1", "0", "x2", "-x3"],
    ["0", "0", "-x0", "0", "-x0", "x1", "0", "x2"],
]
RNC4_D3 = [
    ["-x3", "-x4", "0"],
    ["x2", "x3", "0"],
    ["-x1", "0", "x3"],
    ["0", "x3", "x4"],
    ["0", "-x2", "-x3"],
    ["-x0", "0", "x2"],
    ["x0", "x1", "0"],
    ["0", "-x0", "-x1"],
]


# one-row lex cases in which a pair that a criterion skips leaves a nonzero
# remainder by the basis of the moment it is popped
SKIPPED_PAIR_ROWS = {
    "skip-4-lex": ["-2*y*z^2", "2*y^2 - 3*y*z + 1", "-x*y*z^2 + 3*x^2*y + 3*x*z",
                   "-x + 3*z + 4"],
    "skip-3-lex": ["-3*y^2 + z^2 - 1", "2*y*z^2 + 3", "3*x*z^2 - x*y - 3*y^2 + 3*y"],
}


PAIR_LOOP_CASES = {
    **{f"QQ-{k}-{name}": (lambda k=k: _seeded_matrix(R, k), order)
       for k in range(3) for name, order in (("grevlex", GREVLEX), ("lex", LEX))},
    **{f"QQ(s)-{k}": (lambda k=k: _seeded_matrix(QQ_S, k), GREVLEX) for k in range(3)},
    "three-QQ(s)-columns": (lambda: PolyMatrix.from_columns(
        [[QQ_S.poly(t) for t in col] for col in QQ_S_COLUMNS]), GREVLEX),
    "rnc(4)-d1": (lambda: PolyMatrix.from_strings(P5, [_minors(
        [f"x{i}" for i in range(4)], [f"x{i + 1}" for i in range(4)])]), GREVLEX),
    "rnc(4)-d2": (lambda: PolyMatrix.from_strings(P5, RNC4_D2), GREVLEX),
    "rnc(4)-d3": (lambda: PolyMatrix.from_strings(P5, RNC4_D3), GREVLEX),
    **{name: (lambda row=row: PolyMatrix.from_strings(R, [row]), LEX)
       for name, row in SKIPPED_PAIR_ROWS.items()},
}


@functools.cache
def _reference_case(case):
    """(M, order, reference basis, reps, leads) of a pair loop case."""
    build, order = PAIR_LOOP_CASES[case]
    M = build()
    return (M, order, *reference_groebner(M.columns(), order))


@pytest.mark.parametrize("case", PAIR_LOOP_CASES)
def test_spair_steps_match_field_arithmetic_on_the_reference_basis(case):
    """Every same-position pair of the reference basis, one step at a time.

    The numerator S-vector of the vectors (basis ; rep) has the field
    S-vector's value and rep, its division gives the same remainder, and
    the tail of that remainder is the syzygy summed in field arithmetic
    from the tuple division's quotients.
    """
    M, order, basis, reps, leads = _reference_case(case)
    ring = M.ring
    nums = _numerators(ring)
    head = M.nrows
    augmented = _divisors([b + r for b, r in zip(basis, reps)], order)
    unpack = augmented.packing.unpack
    for i, j in itertools.combinations(range(len(basis)), 2):
        if leads[i][0] != leads[j][0]:
            continue
        svec, srep = reference_spair(basis, reps, leads, i, j)
        work, scale = _spair(augmented, i, j, nums)
        assert [Polynomial(ring, {unpack(m): nums.to_field(c, scale)
                                  for m, c in terms.items()})
                for terms in work] == svec + srep
        rem = _unpacked(*_reduce(work, scale, augmented, nums), augmented.packing, nums, ring)
        q, expected = reference_normal_form(svec, basis, order)
        assert rem[:head] == expected
        assert rem[head:] == reference_combine(srep, q, reps)


@pytest.mark.parametrize("case", PAIR_LOOP_CASES)
def test_pair_loop_matches_field_arithmetic_reference(case, monkeypatch):
    """Module basis, reps and Schreyer kernel equal those of field-arithmetic S-vectors.

    Each vector (head ; tail) is checked as it enters the basis, before its
    divisor is built: its head is the combination `tail` of the columns, at
    whatever scale its numerators are, so a wrong tail fails at once rather
    than feed the rest of the loop.
    """
    M, order, basis, reps, leads = _reference_case(case)
    one = 1 if M.ring.field is None else M.ring.field.ring.one  # a scale
    entered = []
    original = modules._divisor

    def checked(values, packing, nums):
        vec = _unpacked(values, one, packing, nums, M.ring)
        assert vec[:M.nrows] == M * vec[M.nrows:]
        entered.append(vec)
        return original(values, packing, nums)

    monkeypatch.setattr(modules, "_divisor", checked)
    assert module_groebner(M.columns(), order) == (basis, reps)
    assert len(entered) == len(basis)
    kernel = _kernel_generators(M, order)
    assert kernel == reference_kernel(M, order, basis, reps, leads)
    for col in kernel:
        assert _vec_is_zero(M * col)


def reference_pair_syzygies(M, divisors):
    """{(i, j): syzygy} for every same-position pair of the divisors of a module basis of M.

    Each pair is reduced again by the final basis, whether or not the pair
    loop recorded it, and its head must reduce to zero.
    """
    ring = M.ring
    nrows = M.nrows
    nums = _numerators(ring)
    syzygies = {}
    for i, j in itertools.combinations(range(len(divisors)), 2):
        if divisors[i][0] != divisors[j][0]:
            continue
        rem, scale = _widening(divisors, _reduce_spair, divisors, i, j, nums)
        assert not any(rem[:nrows])
        syzygies[i, j] = _unpacked(rem[nrows:], scale, divisors.packing, nums, ring)
    return syzygies


def reference_schreyer_kernel(M, order):
    """The kernel generators before the pair loop kept its syzygies, tagged.

    The Schreyer kernel as it was: every same-position pair of a module
    basis built afresh is reduced again (`reference_pair_syzygies`), and
    every column (col_j ; e_j) is divided by the basis, which gives the
    column of I - P*Q that writes column j through the basis (e_j itself
    for a zero column).  Zero and duplicate columns are dropped.  Returns
    (tag, column) pairs, the tag "pair", "column" or "zero column".
    """
    ring = M.ring
    nrows = M.nrows
    divisors = _groebner(M.columns(), order, True)
    syz_cols = [("pair", col) for _, col in sorted(reference_pair_syzygies(M, divisors).items())]
    for j, col in enumerate(M.columns()):
        rem = _divide(col + _unit(ring, M.ncols, j), divisors)
        assert _vec_is_zero(rem[:nrows])
        syz_cols.append(("zero column" if _vec_is_zero(col) else "column", rem[nrows:]))
    seen = set()
    kept = []
    for tag, col in syz_cols:
        if not _vec_is_zero(col) and tuple(col) not in seen:
            seen.add(tuple(col))
            kept.append((tag, col))
    return kept


WIDE_MATRIX = [["x*y", "y^2 - z", "x"], ["z", "x*z", "y + 1"]]

# matrices whose columns of I - P*Q are not all zero
IPQ_MATRICES = {
    "repeated-columns": lambda: PolyMatrix.from_strings(
        R, [["x", "x", "2*x", "y"], ["y", "y", "2*y", "x"]]),
    "zero-column": lambda: PolyMatrix.from_strings(R, [["x", "x^2 + y", "0", "x*y"]]),
    "inhomogeneous": lambda: PolyMatrix.from_strings(
        R, [["x*y + 1", "x*y + 1", "z", "x*y + 1 + z"], ["y", "y", "x", "x + y"]]),
    "QQ(s)-proportional": lambda: PolyMatrix.from_strings(
        QQ_S, [["s*x", "x", "(s+1)*y"], ["y", "(1/s)*y", "x"]]),
}
# the wide matrix scaled by k: at k = 30 the reduction of a pair whose head
# reduces to zero widens the fields under grevlex, at 70 and 20000 the input
# columns do
WIDE_MATRICES = {f"wide-{k}": lambda k=k: PolyMatrix(
    [[_scaled(R.poly(t), k) for t in row] for row in WIDE_MATRIX], R) for k in (30, 70, 20000)}
KERNEL_CASES = {
    **PAIR_LOOP_CASES,
    **{f"{case}-{kind}": (build, order) for case, build in {**IPQ_MATRICES, **WIDE_MATRICES}.items()
       for kind, order in (("grevlex", GREVLEX), ("lex", LEX))},
}


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_reads_the_pair_loop_syzygies(case):
    """The kernel is the reference's without the columns of I - P*Q of nonzero columns.

    Each nonzero column enters the module basis as it is, up to scale, with
    tail e_j, so those columns lie in the span of the S-pair syzygies and
    come last: pruning drops them, and `syzygy_matrix` keeps what both
    pruning paths keep of the reference kernel.
    """
    build, order = KERNEL_CASES[case]
    M = build()
    reference = reference_schreyer_kernel(M, order)
    has_columns = any(tag == "column" for tag, _ in reference)
    assert has_columns == (case.rsplit("-", 1)[0] in IPQ_MATRICES)
    kernel = _kernel_generators(M, order)
    assert kernel == [col for tag, col in reference if tag != "column"]
    assert not _module_basis(M, order).syzygies
    full = [col for _, col in reference]
    kept = syzygy_matrix(M, order).columns()
    pruned = prune_redundant_columns(full, order).columns() if full else []
    assert kept == pruned == _greedy_prune(full, order)
    basis, reps = module_groebner(M.columns(), order)
    nonzero = [j for j, col in enumerate(M.columns()) if not _vec_is_zero(col)]
    assert len(basis) >= len(nonzero)
    for vec, rep, j in zip(basis, reps, nonzero):
        c = 1 / reference_leading(M.column(j), order)[2]
        assert vec == [p.scale(c) for p in M.column(j)]
        assert rep == [p.scale(c) for p in _unit(M.ring, M.ncols, j)]


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_the_kernel_reduces_only_the_pairs_recorded_without_a_tail(case, monkeypatch):
    """One `_reduce_spair` call per pair that a criterion skipped, and none at rank > 1.

    The pair loop records such a pair without a tail, and it is the only
    kind of pair the kernel reduces.  Criteria skip pairs only at rank 1,
    and every rank-1 case here has such pairs.
    """
    build, order = KERNEL_CASES[case]
    M = build()
    record = _module_basis(M, order).syzygies
    skipped = sorted(pair for pair, syzygy in record.items() if syzygy is None)
    assert bool(skipped) == (M.nrows == 1)
    calls = []
    original = modules._reduce_spair

    def counting(divisors, i, j, nums):
        calls.append((i, j))
        return original(divisors, i, j, nums)

    monkeypatch.setattr(modules, "_reduce_spair", counting)
    _kernel_generators(M, order)
    assert calls == skipped


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_every_pair_missing_from_the_record_has_the_zero_syzygy(case):
    """A same-position pair that the pair loop did not record added a basis vector.

    Reduced again by the final basis (`reference_pair_syzygies`, as
    `reference_schreyer_kernel` does), its syzygy is the zero column.  The
    minors of rnc(4) are a Groebner basis already, so none of their pairs
    adds a vector; every other case has such a pair.
    """
    build, order = KERNEL_CASES[case]
    M = build()
    divisors = _groebner(M.columns(), order, True)
    syzygies = reference_pair_syzygies(M, divisors)
    assert set(divisors.syzygies) <= set(syzygies)
    missing = set(syzygies) - set(divisors.syzygies)
    assert bool(missing) == (case != "rnc(4)-d1")
    for pair in missing:
        assert _vec_is_zero(syzygies[pair])


# -- the chain criterion on rep-free bases of higher rank ---------------------------


def _form(rng, degree):
    """A nonzero form of the given degree in x, y, z with 1-2 terms."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        terms[(a, b, degree - a - b)] = Fraction(rng.choice((1, -1, 2, -3)))
    return Polynomial(R, terms)


def _chain_columns(rng, rank, homogeneous):
    """Four seeded columns; homogeneous ones have entry r of degree d + r in column d."""
    if homogeneous:
        return [[_form(rng, d + r) for r in range(rank)]
                for d in (rng.randint(1, 2) for _ in range(4))]
    return [[_random_field_poly(R, rng, 1, 2) for _ in range(rank)] for _ in range(4)]


# lex bases of inhomogeneous random columns run for minutes with tails or without
CHAIN_CASES = [(GREVLEX, 2, False), (GREVLEX, 2, True), (GREVLEX, 3, False),
               (GREVLEX, 3, True), (LEX, 2, True), (LEX, 3, True)]


@pytest.mark.parametrize("order, rank, homogeneous", CHAIN_CASES,
                         ids=[f"{o.kind}-rank{r}-{'homogeneous' if h else 'inhomogeneous'}"
                              for o, r, h in CHAIN_CASES])
def test_a_rep_free_basis_of_higher_rank_skips_pairs_by_the_chain_criterion(
        order, rank, homogeneous, monkeypatch):
    """A basis without tails at rank > 1 skips pairs, and is still a Groebner basis.

    Every same-position S-vector of it, built in field arithmetic, divides
    to zero by it (Buchberger's criterion), and it leaves every probe the
    remainder that the basis with tails of the same columns leaves, which
    reduces every pair.
    """
    verdicts = []
    original = modules._chain_criterion

    def recording(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    monkeypatch.setattr(modules, "_chain_criterion", recording)
    rng = random.Random(f"chain:{rank}:{homogeneous}:{order.kind}")
    nums = _numerators(R)
    for _ in range(3):
        cols = _chain_columns(rng, rank, homogeneous)
        divisors = _groebner(cols, order, False)
        basis = [_unpacked(map(dict, rows), lead, divisors.packing, nums, R)
                 for _, _, lead, _, rows in divisors]
        leads = [reference_leading(vec, order) for vec in basis]
        for i, j in itertools.combinations(range(len(basis)), 2):
            if leads[i][0] == leads[j][0]:
                assert divides_to_zero(reference_spair(basis, None, leads, i, j)[0], divisors)
        with_tails = _groebner(cols, order, True)
        for vec in _decider_probes(R, rng, cols):
            assert _divide(vec, divisors) == _divide(vec, with_tails)
    assert any(verdicts)


@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_field_coefficients_are_made_only_for_outputs(ring, monkeypatch):
    """`_unpacked`, the one maker of field coefficients, runs once per output vector.

    A reduced ideal basis unpacks each of its elements once; the pair loop
    and the module basis cached on a matrix unpack nothing; the Schreyer
    kernel unpacks each pair the pair loop recorded once, and that is all
    `syzygy_matrix` of an inhomogeneous matrix unpacks: its pruning decides
    each membership without a remainder.
    """
    calls = []
    original = modules._unpacked

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modules, "_unpacked", counting)
    rng = random.Random(f"unpacked:{ring}")
    gens = [_random_field_poly(ring, rng, 2, 3) for _ in range(3)]
    for order in (GREVLEX, LEX):
        del calls[:]
        gb = buchberger(gens, order)
        assert len(gb) > 1 and len(calls) == len(gb)
    M = _seeded_matrix(ring, 0)
    del calls[:]
    _groebner(M.columns(), GREVLEX, True)
    divisors = _module_basis(M, GREVLEX)
    assert calls == []
    recorded = len(divisors.syzygies)
    kernel = _kernel_generators(M, GREVLEX)
    assert len(calls) == recorded
    assert all(_vec_is_zero(M * col) for col in kernel)
    assert _column_degrees(kernel) is None
    del calls[:]
    assert syzygy_matrix(M).ncols < len(kernel)
    assert calls == []


@pytest.mark.parametrize("ring", [R, QQ_S], ids=["QQ", "QQ(s)"])
def test_s_polynomial_matches_field_arithmetic(ring):
    """Non-monic inputs: the numerator S-vector equals the field-arithmetic one."""
    rng = random.Random(f"s_polynomial:{ring}")
    for order in (GREVLEX, LEX):
        for _ in range(6):
            f, g = (_random_field_poly(ring, rng, 2, 4) for _ in range(2))
            leads = [reference_leading([f], order), reference_leading([g], order)]
            expected = reference_spair([[f], [g]], None, leads, 0, 1)[0][0]
            assert s_polynomial(f, g, order) == expected


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
    kept = prune_redundant_columns(cols).columns()
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


@pytest.mark.parametrize("basis", [
    [[x, R.zero()], [R.zero(), R.zero()]],
    [[R.zero(), R.zero()], [y, x]],
    [[R.zero()]],
], ids=["last", "first", "rank1"])
def test_a_zero_basis_vector_is_rejected(basis):
    """A zero divisor has no leading term, in the head or anywhere else."""
    vec = [x**2 + y] * len(basis[0])
    with pytest.raises(ValueError, match="zero vector has no leading term"):
        module_normal_form(vec, basis, GREVLEX)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_a_zero_column_keeps_its_unit_syzygy_and_its_reps(order):
    """Column 2 is zero: e_2 is a syzygy, and reps and lifts still hold."""
    M = PolyMatrix.from_strings(R, [["x", "0", "y"], ["z", "0", "x"]])
    e2 = [R.zero(), R.one(), R.zero()]
    kernel = _kernel_generators(M, order)
    assert e2 in kernel
    assert kernel == reference_kernel(M, order, *reference_groebner(M.columns(), order))
    S = syzygy_matrix(M, order)
    assert e2 in S.columns()
    assert all(_vec_is_zero(M * col) for col in S.columns())
    basis, reps = module_groebner(M.columns(), order)
    assert basis and all(vec == M * rep for vec, rep in zip(basis, reps))
    for sol in ([y, x + 1, z**2], [R.one(), R.zero(), x * z - 2]):
        b = M * sol
        assert M * lift_through(b, M, order) == b


def _as_text(columns):
    return [[str(p) for p in col] for col in columns]


def _prune_matches_greedy(columns):
    """Prune `columns`; the kept columns must be exactly the greedy loop's."""
    kept = prune_redundant_columns(columns, GREVLEX).columns()
    nonzero = [c for c in columns if not all(p.is_zero() for p in c)]
    assert _as_text(kept) == _as_text(_greedy_prune(nonzero, GREVLEX))
    return kept


def _minors(top, bottom):
    m = len(top)
    return [f"({top[i]})*({bottom[j]}) - ({top[j]})*({bottom[i]})"
            for i in range(m) for j in range(i + 1, m)]


P5 = Ring(tuple(f"x{i}" for i in range(5)))
RS = Ring(("x", "y", "z"), ("s",))
RW = Ring(("x", "y", "z", "w"))


@pytest.mark.parametrize("ring, gens, graded", [
    (P5, _minors([f"x{i}" for i in range(4)], [f"x{i + 1}" for i in range(4)]), True),
    (P5, _minors(["2*x0", "-x1", "3*x2", "-x3"], ["-x1", "2*x2", "x3", "-3*x4"]), True),
    (R, ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], True),
    (R, ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"], False),
    (RS, ["x*y - s*z^2", "x*z", "y*z"], True),
    (R, ["x^2 - x", "x*y"], False),
    # the first step keeps columns in two degrees, and in three
    (R, ["x^2*y - z^3", "x*y^2", "y^4", "x^3 - y*z^2", "z^5"], True),
    (RW, ["x^2 - y*z", "x*y*w", "y^3 - z^2*w", "z^3", "x*w^2 + y^2*z"], True),
])
def test_prune_matches_greedy_on_every_differential(ring, gens, graded):
    """Kernel generators of each differential, pruned by degree or greedily."""
    d = PolyMatrix([list(Ideal.from_strings(ring, gens).gens)], ring)
    paths = []
    while True:
        columns = _kernel_generators(d, GREVLEX)
        if not columns:
            break
        # wrong generators fail here, before pruning builds bases of them
        assert (d * PolyMatrix.from_columns(columns, ring)).is_zero()
        paths.append(_column_degrees(columns) is not None)
        d = PolyMatrix.from_columns(_prune_matches_greedy(columns), ring)
    # homogeneous ideals take the degree-by-degree path from the first step
    assert paths[0] == graded


def test_prune_falls_back_on_an_inhomogeneous_entry():
    cols = [[x, y], [y, z], [x + y, y + z], [x * y, z**2 + x], [x**2, x * y]]
    assert _column_degrees(cols) is None
    assert len(_prune_matches_greedy(cols)) == 3
    # every entry is homogeneous, but row 1 would sit one degree above row 0
    # for the first column and one below it for the second: no common shifts
    cols = [[x, y**2], [x**2, y], [x**2, x * y**2]]
    assert _column_degrees(cols) is None
    assert _as_text(_prune_matches_greedy(cols)) == _as_text(cols[:2])


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


def test_prune_widens_the_degree_d_divisors_it_holds(monkeypatch):
    """y^200 passes the 8-bit fields after [x, 0] has become a degree-1 divisor."""
    zero = R.zero()
    cols = [[x, zero], [zero, y**200], [2 * x, 3 * y**200], [y, z**200]]
    assert _column_degrees(cols) == [1, 1, 1, 1]
    held = []
    original = modules._Divisors.widen

    def recording(divisors):
        held.append((divisors.packing.width, len(divisors)))
        original(divisors)

    monkeypatch.setattr(modules._Divisors, "widen", recording)
    kept = prune_redundant_columns(cols, GREVLEX).columns()
    # nothing lies below degree 1, so the one divisor held is [x, 0]'s
    assert held == [(8, 1)]
    monkeypatch.undo()
    assert _as_text(_prune_matches_greedy(cols)) == _as_text(kept)
    assert _as_text(kept) == _as_text([cols[0], cols[1], cols[3]])


def test_an_empty_matrix_from_columns_needs_a_ring():
    for columns in ([], [[]]):
        with pytest.raises(ValueError, match="need a ring for an empty matrix"):
            PolyMatrix.from_columns(columns)
    assert PolyMatrix.from_columns([], R) == PolyMatrix([], R)
    assert PolyMatrix.from_columns([[x], [y]]).rows == [[x, y]]


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


# -- packed monomials ------------------------------------------------------------

PACKING_ORDERS = [GREVLEX, LEX, block_order(1), block_order(2)]
PACKING_IDS = ["grevlex", "lex", "block1", "block2"]


def reference_fields(order, exps, top):
    """The field values of a packed monomial, most significant first.

    A copy of the layout `modules._Packing` documents, written apart from it.
    """
    def grevlex(block):
        return [sum(block)] + [top - e for e in reversed(block)]

    if order.kind == "lex":
        return list(exps)
    if order.kind == "grevlex":
        return grevlex(exps)
    return grevlex(exps[:order.block]) + grevlex(exps[order.block:])


def reference_pack(order, exps, width):
    values = reference_fields(order, exps, (1 << (width - 1)) - 1)
    return sum(v << (width * k) for k, v in enumerate(reversed(values)))


def _random_monomial(rng, nvars, degree):
    """Exponents summing to `degree`, cut at random points."""
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("nvars", [1, 3, 4])
@pytest.mark.parametrize("order", PACKING_ORDERS, ids=PACKING_IDS)
def test_packed_monomials_match_the_tuple_helpers(order, nvars, width):
    """Pack, unpack, product, quotient, divisibility and comparison, against tuples.

    Degrees are drawn up to the largest a field holds, so products and
    quotients reach past both ends of their fields.
    """
    packing = _Packing(order, nvars, width)
    top, const, guard = packing.top, packing.const, packing.guard
    assert top == (1 << (width - 1)) - 1
    rng = random.Random(f"packing:{_seed(order)}:{nvars}:{width}")

    def draw(most):
        return _random_monomial(rng, nvars, rng.choice(
            [0, min(1, most), most // 2, max(most - 1, 0), most, rng.randint(0, most)]))

    divisible = fitted = 0
    for _ in range(300):
        a, b = draw(top), draw(top)
        c = draw(top - sum(a))  # a * c fits
        for e in (a, b, c):
            assert packing.pack(e) == reference_pack(order, e, width)
            assert packing.unpack(packing.pack(e)) == e
        pa, pb, pc = packing.pack(a), packing.pack(b), packing.pack(c)
        assert (pa < pb) == (order.desc_key(a) > order.desc_key(b))
        assert (pa == pb) == (a == b)
        for u, v, pu, pv in ((a, b, pa, pb), (a, c, pa, pc)):
            product = monomial_mul(u, v)
            fits = all(0 <= f <= top for f in reference_fields(order, product, top))
            assert (not (pu + pv - const) & guard) == fits
            if fits:
                assert packing.unpack(pu + pv - const) == product
        ac = packing.pack(monomial_mul(a, c))
        for u, v, pu, pv in ((a, b, pa, pb), (b, a, pb, pa), (a, monomial_mul(a, c), pa, ac)):
            quotient = pv - pu + const
            assert (not quotient & guard) == monomial_divides(u, v)
            if monomial_divides(u, v):
                divisible += 1
                assert packing.unpack(quotient) == monomial_div(v, u)
        # past degree top: `pack` overflows exactly when a field leaves its range
        wide = _random_monomial(rng, nvars, top + 1 + rng.randint(0, top))
        if all(0 <= f <= top for f in reference_fields(order, wide, top)):
            fitted += 1
            assert packing.pack(wide) == reference_pack(order, wide, width)
        else:
            with pytest.raises(_Overflow):
                packing.pack(wide)
    assert divisible >= 300
    # grevlex and one variable hold the degree in a field; the others fit some
    assert 0 < fitted < 300 or (fitted == 0 and (order == GREVLEX or nvars == 1))


def test_divisors_of_one_ring_and_order_share_their_packing():
    """Packings are built once per (order, nvars, width), widening included."""
    a = _divisors([[x + y]], GREVLEX)
    b = _divisors([[y * z - 1], [x]], GREVLEX)
    assert a.packing is b.packing
    assert _divisors([[x]], LEX).packing is not a.packing
    a.widen()
    b.widen()
    assert a.packing is b.packing and a.packing.width == 16


def _scaled(p, k):
    """p(x_1^k, ..., x_n^k).

    Scaling every exponent by k keeps every comparison and divisibility of
    monomials, so each computation on scaled input is the scaled
    computation: the same bases, reps, remainders and verdicts.
    """
    return Polynomial(p.ring, {tuple(k * e for e in m): c for m, c in p.terms.items()})


# every exponent times k: k = 30 fits the inputs into 8-bit fields, and under
# lex, whose fields hold single exponents, every step too; under the other
# orders a degree field overflows on the way.  k = 60 overflows the inputs or
# the basis under every order, and k = 20000 passes 2^15, so the fields widen
# twice
WIDE_WIDTHS = [
    pytest.param(order, k, width, id=f"{name}-{k}-{width}")
    for order, name in zip(PACKING_ORDERS, PACKING_IDS)
    for k, width in ((30, 8 if order == LEX else 16), (60, 16), (20000, 32))
]
WIDE_GENS = ("x^2*y - z", "x*y^2 - x + 1")


@pytest.mark.parametrize("order, k, width", WIDE_WIDTHS)
def test_wide_exponents_widen_the_pair_loop_to_double_width(order, k, width):
    """The pair loop ends at the narrowest fields its steps need, with the scaled basis.

    Only the step that overflowed runs again (see
    `test_a_wide_ideal_reduces_the_same_spairs_as_the_narrow_one`).
    """
    gens = [R.poly(t) for t in WIDE_GENS]
    wide = [_scaled(g, k) for g in gens]
    assert _groebner([[g] for g in gens], order, False).packing.width == 8
    assert _groebner([[g] for g in wide], order, False).packing.width == width
    assert buchberger(wide, order) == [_scaled(g, k) for g in buchberger(gens, order)]


def _completed_spair_reductions(monkeypatch):
    """The (i, j) of every S-pair reduction that returns, in order, from now on."""
    done = []
    original = modules._reduce_spair

    def counting(divisors, i, j, *args):
        out = original(divisors, i, j, *args)
        done.append((i, j))
        return out

    monkeypatch.setattr(modules, "_reduce_spair", counting)
    return done


@pytest.mark.parametrize("order", PACKING_ORDERS, ids=PACKING_IDS)
def test_a_wide_ideal_reduces_the_same_spairs_as_the_narrow_one(order, monkeypatch):
    """Widening reruns only the step that overflowed: no S-pair is reduced twice."""
    gens = [R.poly(t) for t in WIDE_GENS]
    done = _completed_spair_reductions(monkeypatch)
    _groebner([[g] for g in gens], order, False)
    narrow = list(done)
    del done[:]
    divisors = _groebner([[_scaled(g, 20000)] for g in gens], order, False)
    assert divisors.packing.width == 32
    assert done == narrow


@pytest.mark.parametrize("k", [70, 20000])
def test_a_wide_module_reduces_the_same_spairs_as_the_narrow_one(k, monkeypatch):
    M = PolyMatrix.from_strings(R, [["x*y", "y^2 - z", "x"], ["z", "x*z", "y + 1"]])
    wide = PolyMatrix([[_scaled(p, k) for p in row] for row in M.rows], R)
    done = _completed_spair_reductions(monkeypatch)
    module_groebner(M.columns(), GREVLEX)
    narrow = list(done)
    del done[:]
    module_groebner(wide.columns(), GREVLEX)
    assert done == narrow


def test_a_cached_basis_packs_only_its_generators(monkeypatch):
    """Every basis vector gets its divisor from numerators; only inputs are packed.

    The pair loop builds a new vector's divisor from the remainder's
    numerators, the interreduction each reduced element's, and membership
    decides by those divisors, which are the reduced basis's own; no
    Polynomial of the basis is packed again, and each probe is packed once.
    """
    packed = []
    original = modules._numerator_dicts

    def counting(vec, *args):
        packed.append(list(vec))
        return original(vec, *args)

    monkeypatch.setattr(modules, "_numerator_dicts", counting)
    I = Ideal.from_strings(R, ["x^2 - y*z", "y^3 - x*z", "x*y*z - 1"])
    for order in PACKING_ORDERS:
        del packed[:]
        gb = I.groebner_basis(order)
        assert gb != I.gens
        assert packed == [[g] for g in I.gens]
        probe = x * gb[0] - z * gb[-1]
        assert I.contains(probe, order)
        assert not I.contains(x + 1, order)
        assert I.contains_products(gb[0], [x, y + 1], order)
        assert packed == [[g] for g in I.gens] + [[probe], [x + 1], [gb[0]], [x], [y + 1]]
        # each monic basis element is its divisor's primitive copy over its leading numerator
        divisors = I._basis(order)[1]
        unpack = divisors.packing.unpack
        assert [Polynomial(R, {unpack(m): Fraction(c, d[2]) for m, c in d[4][0]})
                for d in divisors] == gb


def test_an_interreduction_that_overflows_widens_the_shared_divisors_once(monkeypatch):
    """Lex x + y^2, y - z^100: coprime leading monomials, so the pair loop reduces
    nothing at 8-bit fields; reducing the tail y^2 by y - z^100 reaches z^200."""
    widened = []
    original = modules._Divisors.widen

    def counting(divisors):
        widened.append(divisors)
        original(divisors)

    monkeypatch.setattr(modules._Divisors, "widen", counting)
    g = R.poly("y - z^100")
    I = Ideal([R.poly("x + y^2"), g], R)
    gb, divisors = I._basis(LEX)
    assert gb == [R.poly("x + z^200"), g]
    assert len(widened) == 1 and widened[0] is divisors
    assert divisors.packing.width == 16
    assert [divisors.packing.unpack(d[3]) for d in divisors] == [(1, 0, 0), (0, 1, 0)]
    assert I.contains(R.poly("x*y + y*z^200"), LEX)
    assert not I.contains(R.poly("x + y^2 + 1"), LEX)
    assert len(widened) == 1


@pytest.mark.parametrize("k", [70, 20000])
def test_wide_exponents_in_module_bases_and_syzygies(k):
    M = PolyMatrix.from_strings(R, [["x*y", "y^2 - z", "x"], ["z", "x*z", "y + 1"]])
    wide = PolyMatrix([[_scaled(p, k) for p in row] for row in M.rows], R)
    basis, reps = module_groebner(M.columns(), GREVLEX)
    assert module_groebner(wide.columns(), GREVLEX) == (
        [[_scaled(p, k) for p in vec] for vec in basis],
        [[_scaled(p, k) for p in rep] for rep in reps])
    assert _kernel_generators(wide, GREVLEX) == [
        [_scaled(p, k) for p in col] for col in _kernel_generators(M, GREVLEX)]
    assert syzygy_matrix(wide) == PolyMatrix(
        [[_scaled(p, k) for p in row] for row in syzygy_matrix(M).rows], R)


@pytest.mark.parametrize("order", PACKING_ORDERS, ids=PACKING_IDS)
def test_a_probe_too_wide_for_a_cached_basis_widens_it(order):
    """Membership, division and products by a cached basis, against the tuple division.

    The cached divisors are repacked in place, not rebuilt: the same list
    with the same numerators, at 16-bit and then 32-bit fields.
    """
    I = Ideal.from_strings(R, ["x^2 - y*z", "y^3 - x*z"])
    gb, divisors = I._basis(order)
    def numerators():
        return [(d[:3], [[c for _, c in row] for row in d[4]]) for d in divisors]

    before = numerators()
    assert divisors.packing.width == 8
    basis = [[g] for g in gb]
    for k, width in ((200, 16), (40000, 32)):
        member = I.gens[0] * R.poly(f"x^{k} - z^{k // 2}") + I.gens[1] * R.poly(f"y^{k}")
        probes = [member, member + R.poly(f"z^{k} + y"), R.poly(f"z^{k} - x^3 + 1")]
        verdicts = []
        for probe in probes:
            q, rem = reference_normal_form([probe], basis, order)
            expected = _vec_is_zero(rem)
            verdicts.append(expected)
            assert I.contains(probe, order) is expected
            assert normal_form(probe, gb, order).remainder == rem[0]
            assert _divide([probe], divisors) == rem
            assert module_normal_form([probe], basis, order) == (q, rem)
        assert verdicts == [True, False, False]
        assert I._basis(order)[1] is divisors
        assert divisors.packing.width == width
        assert numerators() == before
    # products whose factors pass 2^31, decided with no product built
    g, big = R.poly("x^2 - y*z"), 2**31
    assert I.contains_products(g, [R.poly("y"), R.poly(f"x^{big} + y")], order)
    assert not I.contains_products(R.poly(f"z^{big} + 1"), [R.poly("y + 1")], order)
    assert divisors.packing.width == 64


def test_a_reduction_whose_products_pass_the_fields():
    """Under lex a reduction can raise the degree: x^2 by x - y^100 reaches y^200.

    The product overflows inside the division loop, in the pair loop and
    in the decider alike.
    """
    f = R.poly("x - y^100")
    assert _groebner([[f], [R.poly("x^2 + z")]], LEX, False).packing.width == 16
    assert buchberger([f, R.poly("x^2 + z")], LEX) == [f, R.poly("y^200 + z")]
    I = Ideal([f], R)
    divisors = I._basis(LEX)[1]
    assert divisors.packing.width == 8
    assert not I.contains(R.poly("x^2"), LEX)
    assert divisors.packing.width == 16
    assert I.contains(R.poly("x^2 - y^200"), LEX)
    probe = [R.poly("x^2 + z")]
    assert normal_form(probe[0], [f], LEX).remainder == R.poly("y^200 + z")
    assert module_normal_form(probe, [[f]], LEX) == reference_normal_form(probe, [[f]], LEX)


def test_lifting_a_wide_vector_through_a_cached_module_basis():
    M = PolyMatrix.from_strings(R, [["x*y", "y^2 - z", "x"], ["z", "x*z", "y + 1"]])
    lift = image_lifter(M)
    b = M * [R.poly("x^3"), R.poly("y^2 - 1"), R.poly("z")]
    assert M * lift(b) == b
    wide = M * [R.poly("x^300 + y"), R.zero(), R.poly("z^150*x")]
    assert M * lift(wide) == wide
    with pytest.raises(NotInImageError):
        lift([R.poly("z^200"), R.zero()])


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_s_polynomial_of_wide_monomials_matches_field_arithmetic(order):
    """An lcm past the fields of the pair's divisors widens them."""
    for texts in (("x^100*y - 1", "x*y^100 - 2*z"), ("x^40000*y^2 + z", "y^30000 - x")):
        f, g = (R.poly(t) for t in texts)
        leads = [reference_leading([f], order), reference_leading([g], order)]
        assert s_polynomial(f, g, order) == reference_spair([[f], [g]], None, leads, 0, 1)[0][0]
