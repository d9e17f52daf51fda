"""The four workloads: their operations, inputs and checks.

`build(name, seed, workdir)` is the whole set-up of a run.  It imports
cmlink, writes the seeded ideal files into `workdir` and returns the list of
operations of one pass.  Every operation calls the program through module
attributes at call time (`cmlink.cli.run`, `cmlink.generic_ci`, ...), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import inputs


def _oracles():
    """The checkers, imported at check time: they load sympy, which set-up must not."""
    import oracles

    return oracles

# wall-clock budgets of the two operations that cannot finish today
LEX_TRINOMIAL_BUDGET_S = 2.0
RNC5_BUDGET_S = 2.0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    budget: float | None = None


def _cli(argv):
    """Run one cmlink subcommand in process; returns (exit code, stdout text)."""
    import cmlink.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cmlink.cli.run(argv)
    return code, buf.getvalue()


def _report(out):
    code, text = out
    report = json.loads(text)
    _oracles().require(code == 0, f"exit code {code}: {report.get('error', '')}")
    return report


class _Files:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, text):
        self.count += 1
        path = os.path.join(self.workdir, f"ideal{self.count}.id")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _seeds(seed, label):
    """(shape, coef): a generator fixed per workload and one seeded by the run."""
    return random.Random(f"{label}:shape"), random.Random(f"{label}:{seed}")


# -- linkage -----------------------------------------------------------------


def _linkage_ideals(shape, rng):
    """(label, variable names, generators of J) of the linkage corpus."""
    out = [("curve", inputs.XYZ, inputs.CURVE)]
    names, gens = inputs.rnc(3)
    out.append(("rnc3", names, gens))
    out.append(("xy2", inputs.XYZ, ["x^2", "x*y", "y^2"]))
    for k in range(3):
        names, gens = inputs.hankel_minors(3, shape, rng)
        out.append((f"hankel3.{k}", names, gens))
    return out


def _gb_op(label, files, names, gens, order):
    path = files.write(inputs.ideal_file(names, gens))
    return Op(
        f"gb-{order}:{label}",
        lambda: _cli(["gb", "--ideal", path, "--order", order]),
        lambda out: _oracles().check_gb(
            _oracles().SymRing(names), gens, order, _report(out)),
    )


def _link_op(label, files, names, j_gens, ci_seed=None, i_gens=None, colon=None):
    """`cmlink link` of J against a given I, or against generic_ci(J, 2, seed)."""
    import cmlink

    ring = cmlink.Ring(names)
    j_path = files.write(inputs.ideal_file(names, j_gens))
    i_path = os.path.join(files.workdir, f"link-{label}.id")
    j_polys = [ring.poly(g) for g in j_gens]
    used = {}

    def run():
        if i_gens is None:
            J = cmlink.Ideal(list(j_polys), ring)
            I = cmlink.generic_ci(J, 2, seed=ci_seed)
            used["I"] = [str(f) for f in I.gens]
            with open(i_path, "w", encoding="utf-8") as fh:
                fh.write(inputs.ideal_file(names, used["I"]))
        return _cli(["link", "--ideal-I", i_path, "--ideal-J", j_path])

    if i_gens is not None:
        used["I"] = list(i_gens)
        with open(i_path, "w", encoding="utf-8") as fh:
            fh.write(inputs.ideal_file(names, i_gens))

    return Op(
        f"link:{label}" + ("" if ci_seed is None else f":ci{ci_seed}"),
        run,
        lambda out: _oracles().check_link(
            _oracles().SymRing(names), j_gens, used["I"], _report(out), colon),
    )


def linkage(seed, files):
    shape, rng = _seeds(seed, "linkage")
    ops = []
    corpus = _linkage_ideals(shape, rng)
    for label, names, gens in corpus:
        ops.append(_gb_op(label, files, names, gens, "grevlex"))
        ops.append(_gb_op(label, files, names, gens, "lex"))
    ops.append(_link_op("curve-ci", files, inputs.XYZ, inputs.CURVE,
                        i_gens=inputs.CI, colon=inputs.CURVE_CI_LINK))
    # fixed generic_ci seeds, for the same reason as the fixed magnitudes
    for k, (label, names, gens) in enumerate(corpus):
        ops.append(_link_op(label, files, names, gens, ci_seed=k))
    over = _gb_op("trinomials", files, inputs.XYZ, inputs.LEX_TRINOMIALS, "lex")
    over.budget = LEX_TRINOMIAL_BUDGET_S
    ops.append(over)
    return ops


# -- membership --------------------------------------------------------------

PROBES_PER_FIXTURE = 24
MEMBERS_PER_FIXTURE = 8


def _fixtures(shape, rng):
    """(label, names, J gens, I gens or None for generic_ci, A rows or None)."""
    out = [("curve-ci", inputs.XYZ, inputs.CURVE, inputs.CI, None)]
    for label, names, gens in _linkage_ideals(shape, rng):
        out.append((label, names, gens, None, None))
    out.append(("det", ("x", "y"), ["x", "y"], ["x^2", "y^2"], [["x", "0"], ["0", "y"]]))
    return out


def membership(seed, files):
    """Set-up builds GB(J), GB(I) and the top entries of every fixture."""
    import cmlink

    shape, rng = _seeds(seed, "membership")
    ops = []
    for k, (label, names, j_gens, i_gens, a_rows) in enumerate(_fixtures(shape, rng)):
        ring = cmlink.Ring(names)
        J = cmlink.Ideal.from_strings(ring, j_gens)
        if i_gens is None:
            # a fixed seed: the basis of I sets the work of every probe
            I = cmlink.generic_ci(J, 2, seed=k)
        else:
            I = cmlink.Ideal.from_strings(ring, i_gens)
        J.groebner_basis()
        I.groebner_basis()
        E = cmlink.free_resolution(J, minimalize=True)
        tops = cmlink.comparison_morphism(cmlink.KoszulComplex(list(I.gens)), E).top_entries()
        A = cmlink.PolyMatrix.from_strings(ring, a_rows) if a_rows else None
        oracle = _LazyBasis(names, j_gens)
        probes = [(inputs.random_poly(names, shape, rng, 5, 4), None)
                  for _ in range(PROBES_PER_FIXTURE)]
        probes += [(inputs.constructed_member(names, j_gens, shape, rng), True)
                   for _ in range(MEMBERS_PER_FIXTURE)]
        for k, (text, known) in enumerate(probes):
            g = ring.poly(text)
            ops.append(Op(
                f"member:{label}:{'m' if known else 'p'}{k}",
                _member_run(g, I, J, tops, A),
                _member_check(oracle, text, known),
            ))
    return ops


def _member_run(g, I, J, tops, A):
    import cmlink

    def run():
        verdicts = {
            "gb": cmlink.ideal_member(g, J),
            "link": cmlink.membership_via_link(g, I, tops),
        }
        if A is not None:
            verdicts["det"] = cmlink.det_transform_member(g, I, J, A)
        return verdicts

    return run


class _LazyBasis:
    """sympy's Groebner basis of J, computed at the first check, not in set-up."""

    def __init__(self, names, gens):
        self.names = names
        self.gens = gens
        self.sr = None
        self._gb = None

    def contains(self, text):
        if self._gb is None:
            self.sr = _oracles().SymRing(self.names)
            self._gb = self.sr.groebner(self.gens)
        return self._gb.contains(self.sr.expr(text))


def _member_check(oracle, text, known):
    def check(verdicts):
        expected = oracle.contains(text)
        if known is not None:
            _oracles().require(expected is known, "constructed member not in J")
        _oracles().check_membership(verdicts, expected)

    return check


# -- resolution --------------------------------------------------------------


def resolution(seed, files):
    shape, rng = _seeds(seed, "resolution")
    cases = []
    for n in (3, 4):
        names, gens = inputs.rnc(n)
        cases.append((f"rnc{n}", names, gens, inputs.eagon_northcott_ranks(n), n - 1))
    names, gens = inputs.hankel_minors(4, shape, rng)
    cases.append(("hankel4", names, gens, inputs.eagon_northcott_ranks(4), 3))
    cases.append(("xyz2", inputs.XYZ, ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"],
                  [1, 6, 8, 3], 3))
    cases.append(("curve", inputs.XYZ, inputs.CURVE, [1, 3, 2], 2))
    names, gens = inputs.rnc(5)
    cases.append(("rnc5", names, gens, inputs.eagon_northcott_ranks(5), 4))
    ops = []
    for label, names, gens, ranks, codim in cases:
        path = files.write(inputs.ideal_file(names, gens))
        ops.append(Op(
            f"resolve:{label}",
            lambda path=path: _cli(["resolve", "--ideal", path, "--minimal"]),
            lambda out, names=names, gens=gens, ranks=ranks, codim=codim:
                _oracles().check_resolution(
                    _oracles().SymRing(names), gens, ranks, codim, _report(out)),
            RNC5_BUDGET_S if label == "rnc5" else None,
        ))
    return ops


# -- params ------------------------------------------------------------------

PARAM_PAIRS = 16


def params(seed, files):
    import cmlink

    shape, rng = _seeds(seed, "params")
    ops = []
    for k, gens in enumerate(inputs.RECIPE_CIS):
        path = files.write(inputs.ideal_file(inputs.XYZ, gens))
        expected = (2, 8) if gens == inputs.CI_SWAPPED else None
        ops.append(Op(
            f"recipe:{k}",
            lambda path=path: _cli(["recipe", "--ideal", path]),
            lambda out, expected=expected: _oracles().check_recipe(_report(out), expected),
        ))
    U = cmlink.Ring(("x",), ("s", "t"))
    for k in range(PARAM_PAIRS):
        # one pair in four shares a factor, as in criterion 7
        p_text, q_text = inputs.param_pair(shape, rng, shared=k % 4 == 3)
        P, Q = U.poly(p_text), U.poly(q_text)
        ops.append(Op(
            f"euclid:{k}",
            lambda P=P, Q=Q: tuple(str(p) for p in cmlink.extended_euclid(P, Q, 0)),
            lambda out, p=p_text, q=q_text: _oracles().check_euclid(p, q, out),
        ))
        ops.append(Op(
            f"sylvester:{k}",
            lambda P=P, Q=Q: str(cmlink.resultant_sylvester(P, Q, 0)),
            lambda out, p=p_text, q=q_text: _oracles().check_resultant(p, q, out),
        ))
    for k, gens in enumerate(inputs.PARAM_IDEALS):
        path = files.write(inputs.ideal_file(inputs.XYZ, gens, ("s",)))
        ops.append(Op(
            f"gb-qq(s):{k}",
            lambda path=path: _cli(["gb", "--ideal", path]),
            lambda out, gens=gens: _oracles().check_gb(
                _oracles().SymRing(inputs.XYZ, ("s",)), gens, "grevlex", _report(out)),
        ))
    return ops


WORKLOADS = {
    "linkage": linkage,
    "membership": membership,
    "resolution": resolution,
    "params": params,
}


def build(name, seed, workdir):
    import cmlink  # noqa: F401  (the import is part of set-up)

    return WORKLOADS[name](seed, _Files(workdir))
