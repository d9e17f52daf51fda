"""Command line front end: parse ideal/matrix files, run one subcommand,
emit a deterministic JSON report.

Exit codes: 0 = computed and every requested verification passed; 1 = the
computation ran but a verification failed (the report carries witnesses);
2 = input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import (
    KoszulComplex,
    free_resolution,
    is_cohen_macaulay,
    verify_exactness,
)
from .groebner import (
    GREVLEX,
    Ideal,
    ideal_codim,
    ideal_colon,
    ideal_member,
)
from .linkage import (
    ComplexMorphism,
    ContainmentFailureError,
    GenericCIError,
    MorphismError,
    comparison_morphism,
    det_transform_member,
    generic_ci,
    link_decomposition_check,
    membership_via_link,
)
from .modules import NotInImageError, PolyMatrix, lift_through
from .poly import LEX, OriginPoleError, ParseError, parse_ring_header
from .weier import (
    RecipeError,
    bezout_holds,
    current_recipe,
    extended_euclid,
    resultant_sylvester,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class InputError(Exception):
    pass


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _numbered_lines(path):
    """(line number, text) of each line of the file that is not blank."""
    return [(k, ln) for k, ln in enumerate(_read_lines(path), 1) if ln.strip()]


def _parsed(path, number, text, parse, offset=0):
    """parse(text) for the text at column offset + 1 of line `number` of the
    file; a ParseError names the file and that line and column."""
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", number + exc.line - 1,
                         exc.column + (offset if exc.line == 1 else 0)) from exc


def read_ideal_file(path):
    """`ring ...` header followed by one generator per line."""
    lines = _numbered_lines(path)
    if not lines:
        raise InputError(f"{path}: empty ideal file")
    ring = _parsed(path, *lines[0], parse_ring_header)
    gens = [_parsed(path, k, ln, ring.poly) for k, ln in lines[1:]]
    return Ideal(gens, ring)


def read_matrix_file(path, ring=None):
    """`ring ...` header, `matrix r c` line, then rows of ';'-separated entries.

    Given `ring`, the header may be left out, and a header naming another
    ring is an input error.
    """
    lines = _numbered_lines(path)
    if not lines:
        raise InputError(f"{path}: empty matrix file")
    pos = 0
    if lines[0][1].lstrip().startswith("ring"):
        header = _parsed(path, *lines[0], parse_ring_header)
        if ring is not None and header != ring:
            raise InputError(f"{path}: matrix over {header.header()!r}, "
                             f"the other inputs over {ring.header()!r}")
        ring = header
        pos = 1
    if ring is None:
        raise InputError(f"{path}: matrix file needs a ring header")
    head = lines[pos][1].split() if pos < len(lines) else []
    if len(head) != 3 or head[0] != "matrix":
        raise InputError(f"{path}: expected 'matrix r c' header")
    try:
        nrows, ncols = int(head[1]), int(head[2])
    except ValueError as exc:
        raise InputError(f"{path}: bad matrix dimensions") from exc
    rows = lines[pos + 1 :]
    if len(rows) != nrows:
        raise InputError(f"{path}: expected {nrows} rows, found {len(rows)}")
    out = []
    for k, ln in rows:
        entries = ln.split(";")
        if len(entries) != ncols:
            raise InputError(f"{path}: expected {ncols} entries per row")
        row, start = [], 0
        for e in entries:
            # columns count from the line's start; the entry's text starts
            # after the spaces that `strip` drops
            offset = start + len(e) - len(e.lstrip())
            row.append(_parsed(path, k, e.strip(), ring.poly, offset))
            start += len(e) + 1
        out.append(row)
    return PolyMatrix(out, ring)


def _order(args):
    return LEX if args.order == "lex" else GREVLEX


def _gens(I):
    return [str(g) for g in I.gens]


def _same_ring(*ideals):
    ring = ideals[0].ring
    for I in ideals[1:]:
        if I.ring != ring:
            raise InputError("inputs use different rings")
    return ring


def _failed(report, error):
    """A computation that cannot go on: exit 1, `ok` false and the reason."""
    report["ok"] = False
    report["error"] = str(error)
    return EXIT_FAIL, report


def _verdict(report, verdict):
    """A membership verdict: exit 0 when g is in the ideal, 1 when it is not."""
    report["verdict"] = verdict
    return (EXIT_OK if verdict else EXIT_FAIL), report


# -- subcommands --------------------------------------------------------------


def cmd_gb(args):
    I = read_ideal_file(args.ideal)
    order = _order(args)
    gb = I.groebner_basis(order)
    report = {
        "command": "gb",
        "ring": I.ring.header(),
        "order": args.order,
        "generators": _gens(I),
        "groebner_basis": [str(g) for g in gb],
    }
    return EXIT_OK, report


def cmd_member(args):
    J = read_ideal_file(args.ideal_J)
    order = _order(args)
    g = J.ring.poly(args.g)
    report = {
        "command": "member",
        "ring": J.ring.header(),
        "order": args.order,
        "g": str(g),
        "J": _gens(J),
        "via": args.via,
    }
    if args.via == "det":
        if not args.ideal_I or not args.matrix_A:
            raise InputError("--via det needs --ideal-I and --matrix-A")
        return _det_member(args, J, g, report)
    if args.via == "gb":
        verdict = ideal_member(g, J, order)
    else:  # link
        if J.is_zero() or J.is_unit(order):
            raise InputError("membership via link needs a proper nonzero ideal J")
        p = ideal_codim(J, order)
        if args.ideal_I:
            I = read_ideal_file(args.ideal_I)
            _check_linking_ideal(I, J)
            _check_complete_intersection(I, p, order)
        else:
            I = generic_ci(J, p, seed=args.seed)
        report["I"] = _gens(I)
        try:
            K = KoszulComplex(list(I.gens))
            E = free_resolution(J, order=order)
            ap = comparison_morphism(K, E, order).top_entries()
        except (ContainmentFailureError, MorphismError) as exc:
            return _failed(report, exc)
        report["top_entries"] = [str(h) for h in ap]
        verdict = membership_via_link(g, I, ap, order)
    return _verdict(report, verdict)


def _det_member(args, J, g, report):
    """Read I and A and decide g in J by the det(A) law, reporting I's generators."""
    I = read_ideal_file(args.ideal_I)
    _same_ring(I, J)
    A = read_matrix_file(args.matrix_A, J.ring)
    order = _order(args)
    p = ideal_codim(J, order)
    _check_complete_intersection(I, p, order)
    if len(J.gens) != p:
        raise InputError(f"the det law needs J with p = codim J = {p} generators")
    report["I"] = _gens(I)
    try:
        verdict = det_transform_member(g, I, J, A, order)
    except ValueError as exc:
        return _failed(report, exc)
    return _verdict(report, verdict)


def cmd_colon(args):
    I = read_ideal_file(args.ideal_I)
    J = read_ideal_file(args.ideal_J)
    _same_ring(I, J)
    if J.is_zero():
        raise InputError("colon by the zero ideal")
    order = _order(args)
    K = ideal_colon(I, J, order)
    report = {
        "command": "colon",
        "ring": I.ring.header(),
        "order": args.order,
        "I": _gens(I),
        "J": _gens(J),
        "colon": _gens(K),
    }
    return EXIT_OK, report


def cmd_resolve(args):
    J = read_ideal_file(args.ideal)
    order = _order(args)
    if J.is_zero() or J.is_unit(order):
        raise InputError("resolve needs a proper nonzero ideal")
    res = free_resolution(J, minimalize=args.minimal, order=order)
    exact = verify_exactness(res, order)
    cm, codim, length = is_cohen_macaulay(J, order)
    report = {
        "command": "resolve",
        "ring": J.ring.header(),
        "order": args.order,
        "generators": _gens(J),
        "minimal": res.minimal,
        "ranks": res.ranks(),
        "differentials": [d.to_text() for d in res.differentials],
        "exact": exact.exact,
        "cohen_macaulay": cm,
        "codim": codim,
        "minimal_length": length,
    }
    return (EXIT_OK if exact.exact else EXIT_FAIL), report


def cmd_koszul(args):
    I = read_ideal_file(args.ideal)
    if I.is_zero():
        raise InputError("koszul needs a nonzero generator")
    K = KoszulComplex(list(I.gens))
    report = {
        "command": "koszul",
        "ring": I.ring.header(),
        "tuple": _gens(I),
        "ranks": K.ranks(),
        "differentials": [d.to_text() for d in K.differentials],
    }
    return EXIT_OK, report


def cmd_lift(args):
    M = read_matrix_file(args.matrix)
    b = read_matrix_file(args.target, M.ring)
    if b.ncols != 1 or b.nrows != M.nrows:
        raise InputError("target must be a column matrix matching the rows of M")
    order = _order(args)
    report = {
        "command": "lift",
        "ring": M.ring.header(),
        "order": args.order,
    }
    try:
        x = lift_through(b.column(0), M, order)
    except NotInImageError as exc:
        report["ok"] = False
        report["remainder"] = [str(p) for p in exc.remainder]
        return EXIT_FAIL, report
    report["ok"] = True
    report["solution"] = [str(p) for p in x]
    return EXIT_OK, report


def _check_linking_ideal(I, J):
    """I must be in J's ring and nonzero: I = (0) has no Koszul complex."""
    _same_ring(I, J)
    if I.is_zero():
        raise InputError("linkage needs a nonzero ideal I")


def _check_complete_intersection(I, p, order):
    """The hypothesis of the linkage and det laws: I is a complete intersection of codim p."""
    codim = ideal_codim(I, order)
    if not codim == len(I.gens) == p:
        raise InputError(f"I must be a complete intersection of codimension p = codim J = {p}; "
                         f"I has codim {codim} and {len(I.gens)} generators")


def _linkage_report(args, supplied=None):
    I = read_ideal_file(args.ideal_I)
    J = read_ideal_file(args.ideal_J)
    _check_linking_ideal(I, J)
    order = _order(args)
    if J.is_zero() or J.is_unit(order):
        raise InputError("linkage needs a proper nonzero ideal J")
    report = {
        "command": args.command,
        "ring": I.ring.header(),
        "order": args.order,
    }
    try:
        cm, codim, length = is_cohen_macaulay(J, order)
        if not cm:
            return _failed(
                report,
                "target ideal is not Cohen-Macaulay: codim "
                f"{codim}, minimal resolution length {length}",
            )
        _check_complete_intersection(I, codim, order)
        K = KoszulComplex(list(I.gens))
        E = free_resolution(J, order=order)
        if supplied is None:
            morphism = comparison_morphism(K, E, order)
        else:
            try:
                morphism = ComplexMorphism(K, E, supplied)
            except MorphismError as exc:
                return _failed(report, f"morphism invalid: {exc}")
        link = link_decomposition_check(I, J, morphism, order)
    except OriginPoleError:
        raise  # an input error, as in every command; see `run`
    except ValueError as exc:
        return _failed(report, exc)
    report.update(json.loads(link.to_json()))
    report["ok"] = link.ok
    return (EXIT_OK if link.ok else EXIT_FAIL), report


def cmd_link(args):
    return _linkage_report(args)


def cmd_verify_linkage(args):
    supplied = None
    if args.a:
        ring = read_ideal_file(args.ideal_I).ring
        supplied = [read_matrix_file(path, ring) for path in args.a]
    return _linkage_report(args, supplied)


def cmd_det_member(args):
    J = read_ideal_file(args.ideal_J)
    g = J.ring.poly(args.g)
    report = {
        "command": "det-member",
        "ring": J.ring.header(),
        "order": args.order,
        "g": str(g),
        "I": None,  # set by _det_member; the key keeps its place ahead of J
        "J": _gens(J),
    }
    return _det_member(args, J, g, report)


def cmd_resultant(args):
    ring = parse_ring_header(args.ring)
    P = ring.poly(args.p)
    Q = ring.poly(args.q)
    var = 0
    if args.var is not None:
        if args.var not in ring.variables:
            raise InputError(f"unknown variable {args.var!r}")
        var = ring.variables.index(args.var)
    if P.is_zero() or Q.is_zero():
        raise InputError("extended Euclid needs nonzero --p and --q")
    g, a, b = extended_euclid(P, Q, var)
    res = None
    if P.degree_in(var) >= 1 and Q.degree_in(var) >= 1:
        res = resultant_sylvester(P, Q, var)
    report = {
        "command": "resultant",
        "ring": ring.header(),
        "var": ring.variables[var],
        "P": str(P),
        "Q": str(Q),
        "gcd": str(g),
        "a": str(a),
        "b": str(b),
        "bezout_holds": bezout_holds(a, P, b, Q, g, var),
        "sylvester": str(res) if res is not None else None,
    }
    return (EXIT_OK if report["bezout_holds"] else EXIT_FAIL), report


def cmd_recipe(args):
    I = read_ideal_file(args.ideal)
    if len(I.gens) != 2:
        raise InputError("recipe needs an ideal file with exactly two generators")
    f1, f2 = I.gens
    try:
        rec = current_recipe(f1, f2, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except RecipeError as exc:
        return _failed({"command": "recipe"}, exc)
    report = {"command": "recipe", "ok": True}
    report.update(json.loads(rec.to_json()))
    return EXIT_OK, report


# -- argument parsing ---------------------------------------------------------


def _add_order(sp):
    sp.add_argument("--order", choices=["lex", "grevlex"], default="grevlex")


def _add_common(sp, func):
    """--out, which every subcommand takes, and the function that runs it."""
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmlink",
        description="Linkage-based ideal membership, resolutions and residue"
        " current recipes over exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gb", help="reduced Groebner basis of an ideal")
    sp.add_argument("--ideal", required=True)
    _add_order(sp)
    _add_common(sp, cmd_gb)

    sp = sub.add_parser("member", help="ideal membership test")
    sp.add_argument("--g", required=True)
    sp.add_argument("--ideal-J", required=True)
    sp.add_argument("--ideal-I", default=None)
    sp.add_argument("--matrix-A", default=None)
    sp.add_argument("--via", choices=["gb", "link", "det"], default="gb")
    _add_order(sp)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp, cmd_member)

    sp = sub.add_parser("colon", help="colon ideal I : J")
    sp.add_argument("--ideal-I", required=True)
    sp.add_argument("--ideal-J", required=True)
    _add_order(sp)
    _add_common(sp, cmd_colon)

    sp = sub.add_parser("resolve", help="free resolution of an ideal")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--minimal", action="store_true")
    _add_order(sp)
    _add_common(sp, cmd_resolve)

    sp = sub.add_parser("koszul", help="Koszul complex of the generators")
    sp.add_argument("--ideal", required=True)
    _add_common(sp, cmd_koszul)

    sp = sub.add_parser("lift", help="solve M x = b over the ring")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--target", required=True)
    _add_order(sp)
    _add_common(sp, cmd_lift)

    sp = sub.add_parser("link", help="linkage decomposition I : J = I + L")
    sp.add_argument("--ideal-I", required=True)
    sp.add_argument("--ideal-J", required=True)
    _add_order(sp)
    _add_common(sp, cmd_link)

    sp = sub.add_parser(
        "verify-linkage",
        help="verify the linkage decomposition, optionally for supplied matrices",
    )
    sp.add_argument("--ideal-I", required=True)
    sp.add_argument("--ideal-J", required=True)
    sp.add_argument(
        "--a",
        action="append",
        default=[],
        help="morphism matrix file a_0, a_1, ... (repeat in degree order)",
    )
    _add_order(sp)
    _add_common(sp, cmd_verify_linkage)

    sp = sub.add_parser("det-member", help="membership via the det(A) law")
    sp.add_argument("--g", required=True)
    sp.add_argument("--ideal-I", required=True)
    sp.add_argument("--ideal-J", required=True)
    sp.add_argument("--matrix-A", required=True)
    _add_order(sp)
    _add_common(sp, cmd_det_member)

    sp = sub.add_parser("resultant", help="extended Euclid and Sylvester resultant")
    sp.add_argument("--ring", required=True, help="e.g. 'ring x over QQ(s,t)'")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--var", default=None)
    _add_common(sp, cmd_resultant)

    sp = sub.add_parser("recipe", help="residue current recipe for two generators")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp, cmd_recipe)

    return parser


@functools.cache
def _parser():
    """The argument parser, built at the first `run` of the process and reused."""
    return build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code, report = args.func(args)
    # a coefficient whose denominator vanishes at the origin, met where a
    # command evaluates at the origin (the minimality test of a resolution)
    except (InputError, ParseError, GenericCIError, OriginPoleError) as exc:
        report = {"error": str(exc)}
        code = EXIT_USAGE
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            text = json.dumps({"error": f"cannot write {args.out}: {exc}"}, indent=2) + "\n"
            code = EXIT_USAGE
    sys.stdout.write(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
