#!/usr/bin/env python3
"""Write the output of every benchmark operation, for diffing two checkouts.

    python3 tools/op_outputs.py ROOT OUT

Builds the four workloads of `ROOT/perfbench/workloads.py` at seeds 1 and 2,
with cmlink imported from `ROOT/src`, runs each operation once and writes
one line per operation to OUT: `workload seed op-name` and the `repr` of
its output, tab-separated, in workload, seed and pass order.  Then it runs
a fixed corpus of wide-exponent cases (`wide_cases`), written as workload
`wide` with the exponent in place of the seed: `buchberger` (also of a pair
whose lcm, and of a basis whose interreduction, passes the fields its
inputs fit), `Ideal.contains`, `Ideal.contains_products` with wide factors,
`normal_form`, `s_polynomial`, `module_groebner`, `syzygy_matrix` and
`lift_through` of wide targets through the module basis the syzygies
cached, under grevlex, lex and a block order, with exponents 127, 128, 255
and 40000.  These pass the engine's smallest monomial fields and make it
widen them while it packs inputs, reduces S-pairs, reduces a basis,
divides and decides.  Then come the cases over
both coefficient fields (`field_cases`), written as workload `fields`
with the field in place of the seed: the module basis and reps of three
QQ(s) columns, the quotients of divisions by a two-row basis that is not
monic, over QQ and over QQ(s), `syzygy_matrix` and `lift_through` over
QQ(s), the lex `buchberger` basis of a QQ(s) ideal with parameter
denominators, `module_groebner` and `syzygy_matrix` of a QQ matrix
with fractional coefficients and a zero first column, and `syzygy_matrix`
of matrices with repeated, proportional or zero columns (under grevlex and
lex over QQ, and over QQ(s)), and `module_groebner` and `syzygy_matrix`
under lex of three one-row QQ matrices in which a pair that a criterion
skips leaves a nonzero remainder when it is popped, and the JSON of the
minimal free resolution and its exactness check of two QQ ideals whose
first syzygy step keeps columns in two and in three degrees, each well
under a second.  The QQ(s) lex
basis and the fractional QQ matrix clear denominators on entry, so their
vectors enter the engine at scales other than 1.  Then come colon ideals and
intersections (`ideal_cases`), written as workload `ideals` with the pair
in place of the seed: `ideal_colon` under grevlex and lex and
`ideal_intersect` of a zero I, a unit I, a unit J, I = J, a J of one
generator, a ring with a variable named `_t`, the paper's complete
intersection and curve, a pair whose colon takes seconds when its module
basis follows lex (`lex-trap`), and a pair over QQ(s).  Then come the
residue-current recipes (`recipe_cases`), written as workload `recipes`
with the input in place of the seed: the JSON of `current_recipe` for
complete intersections over QQ(s) whose units and coefficients have
parameter denominators and for two whose first generator has a factor
free of x and y, `extended_euclid` and `resultant_sylvester` of a pair
over QQ(s,t) with parameter denominators, and `resultant_sylvester` of
pairs over QQ(s) of degrees (2, 3), (3, 2), (1, 4) and (1, 3) in x, of a
pair with a shared factor, and of a QQ[x,y] pair in y.  Then come the
text formats (`text_cases`), written as workload `texts` with the input in
place of the seed: the exit code and JSON report of `cmlink gb` on ideal
files over QQ(s,t) and QQ(z) whose reports print a coefficient of every
shape of sympy's fraction-field form (`3*s/2`, `-1/(s**2)`, `1/(2*s)`,
`(-s-t)/(2*s*t+1)`, `-2/(z-1)`, `s**2/t`), and on ideal files written with
`**`, `s^0`, nested parenthesized products, rational literals and
`(-1/(s-1))*x`.  Last come free resolutions whose syzygy steps leave
unit entries (`pruning_cases`), written as workload `pruning` with the
input in place of the seed: the ranks and JSON, unpruned and minimal, of
`(x*y, x*z, y*z, x*y + x*z)` and `(x, y, x + y)` over QQ and of a QQ(s)
ideal whose `minimal` flag raises `OriginPoleError` (so it is not read),
and `det_bareiss` of a 3x3 matrix whose Bareiss step divides exactly.
The six corpora call only the public API and the CLI's `run`, so they
run on any checkout; together with the workloads they write 830 outputs.
An operation stopped at its budget (or at 60 s when it has none) is
written as `<over budget>`.
Outputs of two checkouts are the same exactly when

    python3 tools/op_outputs.py PARENT parent.txt
    python3 tools/op_outputs.py CHANGE change.txt
    diff parent.txt change.txt

prints nothing.  Run each checkout in its own process, as above: the
program is imported once per process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import shutil
import signal
import sys
import tempfile
from collections import namedtuple

SEEDS = (1, 2)
SAFETY_BUDGET_S = 60.0
WIDE_EXPONENTS = (127, 128, 255, 40000)

Case = namedtuple("Case", "name run budget", defaults=(None,))  # as a workload op


def wide_cases(cmlink, k):
    """The wide-exponent cases at exponent k, each with the safety budget."""
    R = cmlink.Ring(("x", "y", "z"))
    gens = [R.poly(t) for t in (f"x^{k}*y - z", "y^2 - z")]
    ideal = cmlink.Ideal(gens, R)
    member = gens[0] * R.poly(f"x + z^{k}") + gens[1] * R.poly(f"y^{k} - 2")
    probes = [member, member + R.poly("y*z"), R.poly(f"x^{k} - z^{k}")]
    f, g = R.poly(f"x^{k}*y^2 - z"), R.poly(f"x*y^{k} + 3*z^2")
    # an S-pair lcm past its inputs' fields, and a tail reduced past them
    steps = [[R.poly(f"x^{k - 27}*y"), R.poly(f"x*y^{k - 27}")],
             [R.poly("x + y^2"), R.poly(f"y - z^{k}")]]
    factors = [R.poly(t) for t in (f"y^{k} + x", f"z^{2 * k} - y", "x - 1")]
    matrix = cmlink.PolyMatrix.from_strings(R, [[f"x^{k}", "y", "z"], ["z", f"x*y^{k}", "x"]])
    targets = [matrix * [R.poly(f"y^{k} + x"), R.poly("z - 1"), R.poly(f"x^{k}*z")],
               [R.poly(f"z^{2 * k}"), R.zero()]]
    orders = (("grevlex", cmlink.GREVLEX), ("lex", cmlink.LEX),
              ("block1", cmlink.block_order(1)))
    for name, order in orders:
        yield Case(f"buchberger-{name}", lambda o=order: cmlink.buchberger(gens, o))
        yield Case(f"buchberger-steps-{name}",
                   lambda o=order: [cmlink.buchberger(p, o) for p in steps])
        yield Case(f"contains-{name}",
                   lambda o=order: [ideal.contains(p, o) for p in probes])
        yield Case(f"contains-products-{name}", lambda o=order: [
            cmlink.Ideal(gens, R).contains_products(p, factors, o)
            for p in (gens[0], f, member)])
        yield Case(f"normal-form-{name}",
                   lambda o=order: [cmlink.normal_form(p, gens, o) for p in probes])
        yield Case(f"s-polynomial-{name}", lambda o=order: cmlink.s_polynomial(f, g, o))
        yield Case(f"module-groebner-{name}",
                   lambda o=order: cmlink.module_groebner(matrix.columns(), o))
        yield Case(f"syzygy-matrix-{name}", lambda o=order: cmlink.syzygy_matrix(matrix, o))
        yield Case(f"lift-through-{name}",
                   lambda o=order: [_lift(cmlink, b, matrix, o) for b in targets])


def field_cases(cmlink):
    """(field, case) pairs over QQ and QQ(s), each with the safety budget."""
    qq = cmlink.Ring(("x", "y", "z"))
    qq_s = cmlink.Ring(("x", "y", "z"), ("s",))
    columns = [["s*x*z", "x*y + s*x", "(s+1)*y - 2*z"],
               ["1/(1-s)*z + 1", "-2*x*y*z + 1/(1-s)*x*y", "(s+1)*x*y*z - 2"],
               ["s*x*y + 1/(1-s)*z", "1/(1-s)*z", "s*x*y + z"]]
    columns = [[qq_s.poly(t) for t in col] for col in columns]
    yield "QQ(s)", Case("module-groebner",
                        lambda: cmlink.module_groebner(columns, cmlink.GREVLEX))
    # two-row bases whose leading coefficients are not 1
    bases = {"QQ": (qq, [["2*x + y", "3*z"], ["-3*y^2", "5*x - 1"], ["0", "4*x*y - z"]]),
             "QQ(s)": (qq_s, [["s*x + y", "(s+1)*z"], ["1/(1-s)*y^2", "2*s*x - 1"],
                              ["0", "(s+2)*x*y - z"]])}
    for field, (ring, basis) in bases.items():
        basis = [[ring.poly(t) for t in vec] for vec in basis]
        vecs = [[ring.poly(t) for t in vec]
                for vec in (["x^3 + y^2*z", "x*y*z - 1"], ["y^3 - 2*x", "x^2*y + z^2"])]
        for name, order in (("grevlex", cmlink.GREVLEX), ("lex", cmlink.LEX)):
            yield field, Case(f"module-normal-form-{name}", lambda b=basis, v=vecs, o=order: [
                cmlink.module_normal_form(vec, b, o) for vec in v])
    matrices = {"inhomogeneous": [["s*x", "y^2 - z", "x*z"],
                                  ["z", "(s+1)*x*y + 1/(1-s)", "y"]],
                "homogeneous": [["s*x", "y", "x + z"], ["y", "(s+1)*z", "1/(1-s)*x"]]}
    for name, rows in matrices.items():
        matrix = cmlink.PolyMatrix.from_strings(qq_s, rows)
        targets = [matrix * [qq_s.poly(t) for t in ("y + s", "1/(1+s)*x", "z^2 - 1")],
                   [qq_s.poly("x"), qq_s.poly("s")]]
        yield "QQ(s)", Case(f"syzygy-matrix-{name}", lambda m=matrix: cmlink.syzygy_matrix(m))
        yield "QQ(s)", Case(f"lift-through-{name}", lambda m=matrix, t=targets: [
            _lift(cmlink, b, m, cmlink.GREVLEX) for b in t])
    ideal = [qq_s.poly(t) for t in ("1/(1-s)*x^2 + s*y*z - 1", "x*y - 1/(s+1)*z^2",
                                     "y^2 + 1/(1-s)*x*z")]
    yield "QQ(s)", Case("buchberger-lex", lambda: cmlink.buchberger(ideal, cmlink.LEX))
    matrix = cmlink.PolyMatrix.from_strings(qq, [
        ["0", "1/2*x*y - 2/3*z", "3/4*y^2 + x", "x - 1/5"],
        ["0", "5/3*x - 1/2*y*z", "2/7*x*z - y", "1/3*z"]])
    yield "QQ", Case("module-groebner-zero-column",
                     lambda: cmlink.module_groebner(matrix.columns(), cmlink.GREVLEX))
    yield "QQ", Case("syzygy-matrix-zero-column", lambda: cmlink.syzygy_matrix(matrix))
    # repeated, proportional and zero columns: syzygies among the columns themselves
    repeated = {"repeated-columns": [["x", "x", "2*x", "y"], ["y", "y", "2*y", "x"]],
                "zero-middle-column": [["x", "x^2 + y", "0", "x*y"]]}
    for name, rows in repeated.items():
        for order_name, order in (("grevlex", cmlink.GREVLEX), ("lex", cmlink.LEX)):
            yield "QQ", Case(f"syzygy-matrix-{name}-{order_name}", lambda r=rows, o=order:
                             cmlink.syzygy_matrix(cmlink.PolyMatrix.from_strings(qq, r), o))
    proportional = cmlink.PolyMatrix.from_strings(qq_s, [["s*x", "x", "(s+1)*y"],
                                                         ["y", "(1/s)*y", "x"]])
    yield "QQ(s)", Case("syzygy-matrix-proportional-columns",
                        lambda: cmlink.syzygy_matrix(proportional))
    # one-row lex bases in which a pair that a criterion skips leaves a
    # nonzero remainder by the basis of the moment the pair is popped
    skipped = {"skip-4": ["-2*y*z^2", "2*y^2 - 3*y*z + 1", "-x*y*z^2 + 3*x^2*y + 3*x*z",
                          "-x + 3*z + 4"],
               "skip-3": ["-3*y^2 + z^2 - 1", "2*y*z^2 + 3", "3*x*z^2 - x*y - 3*y^2 + 3*y"],
               "skip-3b": ["-3*x^2*y - 2*x*z^2 + z - 2", "-x^2*y*z - x*y - 5",
                           "3*x*y - y - 2*z - 2"]}
    for name, row in skipped.items():
        yield "QQ", Case(f"module-groebner-{name}-lex", lambda r=row: cmlink.module_groebner(
            cmlink.PolyMatrix.from_strings(qq, [r]).columns(), cmlink.LEX))
        yield "QQ", Case(f"syzygy-matrix-{name}-lex", lambda r=row: cmlink.syzygy_matrix(
            cmlink.PolyMatrix.from_strings(qq, [r]), cmlink.LEX))
    # resolutions whose first syzygy step keeps columns in two and in three degrees
    mixed = {"two-degrees": (qq, ["x^2*y - z^3", "x*y^2", "y^4", "x^3 - y*z^2", "z^5"]),
             "three-degrees": (cmlink.Ring(("x", "y", "z", "w")),
                               ["x^2 - y*z", "x*y*w", "y^3 - z^2*w", "z^3", "x*w^2 + y^2*z"])}
    for name, (ring, gens) in mixed.items():
        yield "QQ", Case(f"free-resolution-{name}", lambda r=ring, g=gens: _resolve(cmlink, r, g))


def ideal_cases(cmlink):
    """(pair, case) colon ideals under grevlex and lex, and intersections, of fixed pairs."""
    xyz = cmlink.Ring(("x", "y", "z"))
    curve = ["y^2 - x*z", "x^3 - y*z", "x^2*y - z^2"]
    pairs = {
        "zero-I": (xyz, [], ["x*y", "z - 1"]),
        "unit-I": (xyz, ["x + 1", "x"], ["x*y", "z^2"]),
        "unit-J": (xyz, ["x*y", "x*z"], ["y", "y + 1"]),
        "I=J": (xyz, curve, curve),
        "one-generator-J": (xyz, ["x*y", "x*z", "y^3"], ["x + y"]),
        "ring-with-_t": (cmlink.Ring(("_t", "x", "_t_")), ["_t*x - _t_^2", "x^2"],
                         ["_t", "_t_"]),
        "ci-curve": (xyz, ["z^2 - x^2*y", "x^4 + y^3 - 2*x*y*z"], curve),
        # a module basis of this pair built under lex does not finish in seconds
        "lex-trap": (xyz, ["(-3*x - 3*y*z)*(2*x*z + z - x)", "(-x*y - 1)*(-z - 3*x*y*z)"],
                     ["2*x*z + z - x", "-x*z - 1 - 3*x*y*z"]),
        "QQ(s)": (cmlink.Ring(("x", "y", "z"), ("s",)),
                  ["(s*x + y)*(x*z - (s+1)*y)", "(x - s*z)*(y^2 - 1/(1-s)*z)"],
                  ["x*z - (s+1)*y", "y + 1/(s+1)*z"]),
    }
    for label, (ring, i_gens, j_gens) in pairs.items():

        def ideals(ring=ring, i_gens=i_gens, j_gens=j_gens):  # new ones: no cached basis
            return (cmlink.Ideal([ring.poly(t) for t in i_gens], ring),
                    cmlink.Ideal([ring.poly(t) for t in j_gens], ring))

        for name, order in (("grevlex", cmlink.GREVLEX), ("lex", cmlink.LEX)):
            yield label, Case(f"colon-{name}",
                              lambda f=ideals, o=order: cmlink.ideal_colon(*f(), o))
        yield label, Case("intersect", lambda f=ideals: cmlink.ideal_intersect(*f()))


def recipe_cases(cmlink):
    """(input, case) recipes over QQ and QQ(s), a Euclid and Sylvester pair
    over QQ(s,t), and resultants of pairs over QQ(s) and QQ."""
    xyz = cmlink.Ring(("x", "y", "z"))
    xyz_s = cmlink.Ring(("x", "y", "z"), ("s",))
    cis = {
        "unit-(2+s)": (xyz_s, "(2+s)*x^2 + y*z", "y^2 + x*z"),
        "unit-1/(1+s)": (xyz_s, "(1/(1+s))*x^2 + y", "y^3 - z^2"),
        "unit-3/(2+s)": (xyz_s, "(3/(2+s))*x^3 + y*z - x*z^2", "(1+s)*y^2 + x^2*z"),
        "denominator-1/(1-s)": (xyz_s, "z^2 - x*y", "x^2 + (1/(1-s))*y^2 + z^3"),
        "factor-(1+z)": (xyz, "(1+z)*(x^2 - y)", "y^2 + x*z"),
        "factor-(1+s*z)": (xyz_s, "(1+s*z)*(x^2 - y*z)", "y^2 + s*x"),
    }
    for label, (ring, f1, f2) in cis.items():
        yield label, Case("recipe", lambda r=ring, f=f1, g=f2: cmlink.current_recipe(
            r.poly(f), r.poly(g)).to_json())
    st = cmlink.Ring(("x",), ("s", "t"))
    P = st.poly("(1/(s+1))*x^3 - t*x + s")
    Q = st.poly("((t-2)/(3*s*t+1))*x^2 + x - 1/(1+t)")
    yield "QQ(s,t)", Case("extended-euclid",
                          lambda: [str(p) for p in cmlink.extended_euclid(P, Q, 0)])
    yield "QQ(s,t)", Case("resultant-sylvester",
                          lambda: str(cmlink.resultant_sylvester(P, Q, 0)))
    # resultants of degrees (deg P, deg Q) in the variable, over QQ(s) with
    # parameter denominators, of a pair with a shared factor, and over QQ[x,y]
    # in y, where deg P * deg Q is odd and deg P < deg Q
    xy, xy_s = cmlink.Ring(("x", "y")), cmlink.Ring(("x", "y"), ("s",))
    cubic, quadratic = "x^3 - s*y + 2*x*y^2", "s*x^2 + y*x - 1/(1+s)"
    pairs = {
        "degrees-(2,3)": (xy_s, quadratic, cubic, 0),
        "degrees-(3,2)": (xy_s, cubic, quadratic, 0),
        "degrees-(1,4)": (xy_s, "(2/(s-1))*x + y", "x^4 - s*x*y + y^3", 0),
        "degrees-(1,3)": (xy_s, "x - s*y^2", "(1/s)*x^3 + x*y - 3", 0),
        "shared-factor": (xy_s, "(x - s)*(x^2 + y)", "(x - s)*(x + y^2)", 0),
        "QQ[x,y]-in-y": (xy, "x*y + 2", "y^3 - x^2*y + 1/2*x", 1),
    }
    for label, (ring, f, g, var) in pairs.items():
        yield label, Case("resultant-sylvester", lambda r=ring, f=f, g=g, v=var: str(
            cmlink.resultant_sylvester(r.poly(f), r.poly(g), v)))


# ideal files: (header, generators); gb prints each reduced basis
TEXT_FILES = {
    "shapes-QQ(s,t)": ("ring x,y,z over QQ(s,t)", [
        "x^3 + (3*s/2)*x^2*y - 1/(s**2)*x*y^2 + (1/(2*s))*y^3"
        " + ((-s-t)/(2*s*t+1))*x*z^2 + (s**2/t)*z^3",
        "y^2*z - (s/t)*z^3"]),
    "shapes-QQ(z)": ("ring x,y over QQ(z)", [
        "x^2 + (-2/(z-1))*x*y + (z**2/(3*z+1))*y^2", "(1/z)*x*y - 2/3*y^2"]),
    "powers-QQ(s)": ("ring x,y,z over QQ(s)", [
        "x**2*y - s^0*z**3 + (s^2)**2*x*z",
        "((2*x)*(3/4*y))*((s*z)*x) - ((s^2)*x)**2*z",
        "(x*(y*(s*z)))^2 + s^0*y^5"]),
    "quotients-QQ(s)": ("ring x,y over QQ(s)", [
        "(-1/(s-1))*x + 2/3*y - 5/7*s",
        "x^2*1/2 - ((s+1)/(2*s))*y^2 + (-1/(s-1))*x*y"]),
    "literals-QQ": ("ring x,y,z over QQ", [
        "2/4*x**2 - ((3/5*y)*(5/3*z))^2 + x*1/2",
        "-(x)^2*y + (((y)))^0*z^3 - 7/21", "x*y*z"]),
}


def text_cases(cmlink, workdir):
    """(input, case) `cmlink gb` runs on the ideal files of `TEXT_FILES`,
    written to workdir."""
    for label, (header, gens) in TEXT_FILES.items():
        path = os.path.join(workdir, f"{label}.id")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + "".join(f"{g}\n" for g in gens))
        yield label, Case("gb", lambda p=path: _cli(cmlink, ["gb", "--ideal", p]))


def pruning_cases(cmlink):
    """(input, case) free resolutions whose syzygy steps leave unit entries,
    unpruned and minimal, and a determinant whose Bareiss step divides."""
    xyz = cmlink.Ring(("x", "y", "z"))
    ideals = {
        "redundant-generator": (xyz, ["x*y", "x*z", "y*z", "x*y + x*z"]),
        "linear-generators": (xyz, ["x", "y", "x + y"]),
        # a syzygy coefficient has a pole at s = 0, so `minimal` is not read
        "QQ(s)-pole": (cmlink.Ring(("x", "y", "z"), ("s",)),
                       ["s*y*z - 2*z", "(s+1)*x*z + y", "(s+1)*y*z + s*y",
                        "s*y*z^2 + (2*s+2)*x*z - 2*z^2 + 2*y"]),
    }
    for label, (ring, gens) in ideals.items():
        for name, minimalize in (("unpruned", False), ("minimal", True)):
            yield label, Case(f"free-resolution-{name}", lambda r=ring, g=gens, m=minimalize:
                              _ranks_and_json(cmlink, r, g, m))
    matrix = cmlink.PolyMatrix.from_strings(xyz, [["x", "y", "z"], ["y", "z", "x"],
                                                  ["z", "x", "y + 1"]])
    yield "3x3", Case("det-bareiss", lambda: cmlink.det_bareiss(matrix))


def _cli(cmlink, argv):
    """`cmlink.cli.run(argv)` in process: (exit code, stdout text)."""
    cli = importlib.import_module(f"{cmlink.__name__}.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _resolve(cmlink, ring, gens):
    """The JSON of the minimal free resolution of the ideal of `gens`, and of its exactness check."""
    res = cmlink.free_resolution(cmlink.Ideal([ring.poly(t) for t in gens], ring))
    return res.to_json(), res.minimal, cmlink.verify_exactness(res).to_json()


def _ranks_and_json(cmlink, ring, gens, minimalize):
    """The ranks and JSON of a free resolution of the ideal of `gens`, without reading `minimal`."""
    res = cmlink.free_resolution(cmlink.Ideal([ring.poly(t) for t in gens], ring), minimalize)
    return res.ranks(), res.to_json()


def _lift(cmlink, b, matrix, order):
    """`lift_through(b, matrix, order)`, or the error and its remainder when b is not in the image."""
    try:
        return cmlink.lift_through(b, matrix, order)
    except cmlink.NotInImageError as err:
        return f"{type(err).__name__}: {err.remainder!r}"


class _OverBudget(BaseException):
    """Raised by the timer signal; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise _OverBudget


def _run(op):
    signal.setitimer(signal.ITIMER_REAL, op.budget or SAFETY_BUDGET_S)
    try:
        return repr(op.run())
    except _OverBudget:
        return "<over budget>"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: op_outputs.py ROOT OUT")
    root, out = os.path.abspath(argv[0]), argv[1]
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import cmlink
    import workloads

    if not os.path.realpath(cmlink.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"op_outputs: cmlink imported from {cmlink.__file__}, not {src}")
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = tempfile.mkdtemp(prefix="op-outputs-")
    lines = []
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                ops = workloads.build(name, seed, tempfile.mkdtemp(dir=workdir))
                for op in ops:
                    if "sympy" in sys.modules:
                        sys.modules["sympy"].core.cache.clear_cache()
                    lines.append(f"{name}\t{seed}\t{op.name}\t{_run(op)}\n")
        for k in WIDE_EXPONENTS:
            for case in wide_cases(cmlink, k):
                lines.append(f"wide\t{k}\t{case.name}\t{_run(case)}\n")
        for field, case in field_cases(cmlink):
            lines.append(f"fields\t{field}\t{case.name}\t{_run(case)}\n")
        for pair, case in ideal_cases(cmlink):
            lines.append(f"ideals\t{pair}\t{case.name}\t{_run(case)}\n")
        for label, case in recipe_cases(cmlink):
            lines.append(f"recipes\t{label}\t{case.name}\t{_run(case)}\n")
        for label, case in text_cases(cmlink, tempfile.mkdtemp(dir=workdir)):
            lines.append(f"texts\t{label}\t{case.name}\t{_run(case)}\n")
        for label, case in pruning_cases(cmlink):
            lines.append(f"pruning\t{label}\t{case.name}\t{_run(case)}\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} outputs written to {out}")


if __name__ == "__main__":
    main()
