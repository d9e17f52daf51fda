"""CLI subcommands: file formats, JSON reports and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmlink import cli
from cmlink.cli import run

CURVE = "ring x,y,z over QQ\ny^2 - x*z\nx^3 - y*z\nx^2*y - z^2\n"
CI = "ring x,y,z over QQ\nz^2 - x^2*y\nx^4 + y^3 - 2*x*y*z\n"
CI2 = "ring x,y,z over QQ\nz^2 - x^2*y\nx^4 - 2*x*y*z + y^3\n"
NONCM = "ring x,y,z over QQ\nx*z\ny*z\n"
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("curve.id", CURVE),
        ("ci.id", CI),
        ("ci2.id", CI2),
        ("noncm.id", NONCM),
        ("I2.id", "ring x,y over QQ\nx^2\ny^2\n"),
        ("J2.id", "ring x,y over QQ\nx\ny\n"),
        ("A.mat", "ring x,y over QQ\nmatrix 2 2\nx; 0\n0; y\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_gb(files, capsys):
    code, report = capture(capsys, ["gb", "--ideal", files["curve.id"]])
    assert code == 0
    assert report["command"] == "gb"
    assert len(report["groebner_basis"]) == 3


def test_member_via_gb(files, capsys):
    code, report = capture(
        capsys,
        ["member", "--g", "y^2 - x*z", "--ideal-J", files["curve.id"]],
    )
    assert code == 0 and report["verdict"] is True
    code, report = capture(
        capsys, ["member", "--g", "x", "--ideal-J", files["curve.id"]]
    )
    assert code == 1 and report["verdict"] is False


def test_member_via_link(files, capsys):
    code, report = capture(
        capsys,
        [
            "member",
            "--g",
            "x^2*y - z^2",
            "--ideal-J",
            files["curve.id"],
            "--ideal-I",
            files["ci.id"],
            "--via",
            "link",
        ],
    )
    assert code == 0 and report["verdict"] is True
    assert report["top_entries"]


def test_member_via_link_generates_ci(files, capsys):
    code, report = capture(
        capsys,
        [
            "member",
            "--g",
            "y^2 - x*z",
            "--ideal-J",
            files["curve.id"],
            "--via",
            "link",
            "--seed",
            "1",
        ],
    )
    assert code == 0 and report["verdict"] is True
    assert len(report["I"]) == 2


def test_member_via_det_needs_inputs(files, capsys):
    code, _ = capture(
        capsys,
        ["member", "--g", "x", "--ideal-J", files["J2.id"], "--via", "det"],
    )
    assert code == 2


def test_colon(files, capsys):
    code, report = capture(
        capsys,
        ["colon", "--ideal-I", files["ci.id"], "--ideal-J", files["curve.id"]],
    )
    assert code == 0
    assert report["colon"]


def test_resolve_curve(files, capsys):
    code, report = capture(
        capsys, ["resolve", "--ideal", files["curve.id"], "--minimal"]
    )
    assert code == 0
    assert report["ranks"] == [1, 3, 2]
    assert report["minimal"] is True
    assert report["exact"] is True
    assert report["cohen_macaulay"] is True
    assert report["codim"] == 2


def test_koszul(files, capsys):
    code, report = capture(capsys, ["koszul", "--ideal", files["ci.id"]])
    assert code == 0
    assert report["ranks"] == [1, 2, 1]


def test_lift(files, capsys, tmp_path):
    m = tmp_path / "m.mat"
    m.write_text("ring x,y over QQ\nmatrix 1 2\nx; y\n")
    b = tmp_path / "b.mat"
    b.write_text("matrix 1 1\nx^2 + y^2\n")
    code, report = capture(
        capsys, ["lift", "--matrix", str(m), "--target", str(b)]
    )
    assert code == 0 and report["ok"] is True
    bad = tmp_path / "bad.mat"
    bad.write_text("matrix 1 1\n1\n")
    code, report = capture(
        capsys, ["lift", "--matrix", str(m), "--target", str(bad)]
    )
    assert code == 1 and report["ok"] is False
    assert report["remainder"]


def test_link(files, capsys):
    code, report = capture(
        capsys,
        ["link", "--ideal-I", files["ci.id"], "--ideal-J", files["curve.id"]],
    )
    assert code == 0
    assert report["ok"] is True
    assert report["double_link_holds"] is True
    assert report["decomposition_holds"] is True
    assert sorted(report["L_top_entries"]) == sorted(
        ["-x^3 + y*z", "-y^2 + x*z"]
    ) or len(report["L_top_entries"]) == 2


def test_verify_linkage_non_cm_target(files, capsys):
    code, report = capture(
        capsys,
        [
            "verify-linkage",
            "--ideal-I",
            files["ci.id"],
            "--ideal-J",
            files["noncm.id"],
        ],
    )
    assert code == 1
    assert report["ok"] is False
    assert "not Cohen-Macaulay" in report["error"]


def _verify_linkage_with(files, capsys, tmp_path, a1):
    """verify-linkage of CI against the curve, with the a_1 given and the a_0,
    a_2 that `link` computes."""
    argv = ["verify-linkage", "--ideal-I", files["ci.id"], "--ideal-J", files["curve.id"]]
    for name, text in [
        ("a0.mat", "matrix 1 1\n1\n"),
        ("a1.mat", a1),
        ("a2.mat", "matrix 2 1\n-y^2 + x*z\n-x^3 + y*z\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        argv += ["--a", str(p)]
    return capture(capsys, argv)


def test_verify_linkage_with_supplied_matrices(files, capsys, tmp_path):
    # the morphism `link` computes, supplied back: every square commutes
    code, report = _verify_linkage_with(
        files, capsys, tmp_path, "matrix 3 2\n0; y\n0; x\n-1; 0\n"
    )
    assert code == 0
    assert report["ok"] is True
    assert report["L_top_entries"] == ["-y^2 + x*z", "-x^3 + y*z"]
    # one entry of a_1 changed: the square at degree 1 fails, reported, not raised
    code, report = _verify_linkage_with(
        files, capsys, tmp_path, "matrix 3 2\n0; y\n0; y\n-1; 0\n"
    )
    assert code == 1
    assert report["ok"] is False
    assert report["error"] == "morphism invalid: commuting square fails at degree 1"


def test_det_member(files, capsys):
    base = [
        "det-member",
        "--ideal-I",
        files["I2.id"],
        "--ideal-J",
        files["J2.id"],
        "--matrix-A",
        files["A.mat"],
    ]
    code, report = capture(capsys, base + ["--g", "x"])
    assert code == 0 and report["verdict"] is True
    code, report = capture(capsys, base + ["--g", "1"])
    assert code == 1 and report["verdict"] is False


def test_resultant(files, capsys):
    code, report = capture(
        capsys,
        [
            "resultant",
            "--ring",
            "ring x over QQ(s,t)",
            "--p",
            "x - s",
            "--q",
            "x - t",
        ],
    )
    assert code == 0
    assert report["bezout_holds"] is True
    assert report["sylvester"] is not None


def test_recipe(files, capsys):
    code, report = capture(capsys, ["recipe", "--ideal", files["ci2.id"]])
    assert code == 0
    assert report["ok"] is True
    assert report["N1"] == 2
    assert report["N2"] == 8


def test_recipe_rejects_wrong_codim(files, capsys):
    code, _ = capture(capsys, ["recipe", "--ideal", files["noncm.id"]])
    assert code == 2


def test_missing_file_is_usage_error(files, capsys):
    code, report = capture(capsys, ["gb", "--ideal", "/nonexistent.id"])
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize("argv", [
    ["koszul", "--ideal", "ci.id", "--order", "lex"],
    ["resultant", "--ring", "ring x over QQ", "--p", "x", "--q", "x", "--order", "lex"],
    ["recipe", "--ideal", "ci.id", "--order", "lex"],
    ["gb", "--ideal", "ci.id", "--seed", "1"],
    ["resolve", "--ideal", "ci.id", "--seed", "1"],
    ["link", "--ideal-I", "ci.id", "--ideal-J", "curve.id", "--seed", "1"],
    ["det-member", "--g", "x", "--ideal-I", "I2.id", "--ideal-J", "J2.id",
     "--matrix-A", "A.mat", "--seed", "1"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_flag_a_subcommand_does_not_read_is_a_usage_error(argv, files, capsys):
    argv = [files.get(a, a) for a in argv]
    assert run(argv) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(files, tmp_path):
    out = tmp_path / "missing" / "o.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cmlink.cli", "gb", "--ideal", files["ci.id"],
         "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error.startswith(f"cannot write {out}: ")
    assert "No such file or directory" in error
    assert not out.parent.exists()


# malformed inputs: (files to write, argv naming them)
MALFORMED = {
    "unknown-variable": ({"bad.id": "ring x,y over QQ\nx + w\n"}, ["gb", "--ideal", "bad.id"]),
    "repeated-name": ({"bad.id": "ring x,x over QQ\nx\n"}, ["gb", "--ideal", "bad.id"]),
    "bad-name": ({"bad.id": "ring 1x over QQ\nx\n"}, ["gb", "--ideal", "bad.id"]),
    "no-matrix-line": (
        {"m.mat": "ring x over QQ\n", "b.mat": "ring x over QQ\nmatrix 1 1\nx\n"},
        ["lift", "--matrix", "m.mat", "--target", "b.mat"],
    ),
    "euclid-of-zero": ({}, ["resultant", "--ring", "ring x over QQ", "--p", "0", "--q", "x"]),
    "colon-by-zero": (
        {"I.id": "ring x,y over QQ\nx\n", "J.id": "ring x,y over QQ\n0\n"},
        ["colon", "--ideal-I", "I.id", "--ideal-J", "J.id"],
    ),
    "resolve-unit": ({"one.id": "ring x,y over QQ\n1\n"}, ["resolve", "--ideal", "one.id"]),
    "resolve-zero": ({"zero.id": "ring x,y over QQ\n0\n"}, ["resolve", "--ideal", "zero.id"]),
    "koszul-of-zero": ({"zero.id": "ring x,y over QQ\n0\n"}, ["koszul", "--ideal", "zero.id"]),
    "lift-target-in-another-ring": (
        {"m.mat": "ring x,y over QQ\nmatrix 1 2\nx; y\n",
         "b.mat": "ring a,b over QQ\nmatrix 1 1\na\n"},
        ["lift", "--matrix", "m.mat", "--target", "b.mat"],
    ),
    "member-via-link-zero": (
        {"zero.id": "ring x,y over QQ\n0\n"},
        ["member", "--g", "x", "--ideal-J", "zero.id", "--via", "link"],
    ),
    "member-via-link-unit": (
        {"one.id": "ring x,y over QQ\n1\n"},
        ["member", "--g", "x", "--ideal-J", "one.id", "--via", "link"],
    ),
    "member-via-link-zero-I": (
        {"zero.id": "ring x,y over QQ\n0\n", "J.id": "ring x,y over QQ\nx^2\nx*y\ny^2\n"},
        ["member", "--g", "x", "--ideal-J", "J.id", "--ideal-I", "zero.id", "--via", "link"],
    ),
    "link-zero-I": (
        {"zero.id": "ring x,y over QQ\n0\n", "J.id": "ring x,y over QQ\nx^2\nx*y\ny^2\n"},
        ["link", "--ideal-I", "zero.id", "--ideal-J", "J.id"],
    ),
    "verify-linkage-zero-I": (
        {"zero.id": "ring x,y over QQ\n0\n", "J.id": "ring x,y over QQ\nx^2\nx*y\ny^2\n"},
        ["verify-linkage", "--ideal-I", "zero.id", "--ideal-J", "J.id"],
    ),
    **{f"{command}-{name}-J": (
        {"I.id": "ring x,y over QQ\nx^2\ny^2\n", "J.id": f"ring x,y over QQ\n{gen}\n"},
        [command, "--ideal-I", "I.id", "--ideal-J", "J.id"])
       for command in ("link", "verify-linkage") for name, gen in (("zero", "0"), ("unit", "1"))},
    "det-member-matrix-in-another-ring": (
        {"I.id": "ring x,y over QQ\nx^2\ny^2\n", "J.id": "ring x,y over QQ\nx\ny\n",
         "A.mat": "ring a,b over QQ\nmatrix 2 2\na; 0\n0; b\n"},
        ["det-member", "--g", "x", "--ideal-I", "I.id", "--ideal-J", "J.id",
         "--matrix-A", "A.mat"],
    ),
    "member-via-det-matrix-in-another-ring": (
        {"I.id": "ring x,y over QQ\nx^2\ny^2\n", "J.id": "ring x,y over QQ\nx\ny\n",
         "A.mat": "ring a,b over QQ\nmatrix 2 2\na; 0\n0; b\n"},
        ["member", "--g", "x", "--ideal-J", "J.id", "--via", "det", "--ideal-I", "I.id",
         "--matrix-A", "A.mat"],
    ),
    # J's resolution has the entry x + 1/s, whose constant term has a pole
    # at params = 0, where the minimality test evaluates it
    **{f"{name}-pole-at-origin": (
        {"I.id": "ring x,y over QQ(s)\n(x + 1/s)^2\ny^2\n",
         "J.id": "ring x,y over QQ(s)\nx + 1/s\ny\n"}, argv)
       for name, argv in (
           ("resolve", ["resolve", "--ideal", "J.id"]),
           ("member-via-link", ["member", "--g", "x", "--ideal-J", "J.id", "--via", "link"]),
           ("link", ["link", "--ideal-I", "I.id", "--ideal-J", "J.id"]),
           ("verify-linkage", ["verify-linkage", "--ideal-I", "I.id", "--ideal-J", "J.id"]))},
    "verify-linkage-a-in-another-ring": (
        {"I.id": "ring x,y over QQ\nx^2\ny^2\n", "J.id": "ring x,y over QQ\nx\ny\n",
         "a0.mat": "ring a,b over QQ\nmatrix 1 1\n1\n"},
        ["verify-linkage", "--ideal-I", "I.id", "--ideal-J", "J.id", "--a", "a0.mat"],
    ),
}


def _malformed_argv(case, tmp_path):
    texts, argv = MALFORMED[case]
    paths = {}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return [paths.get(a, a) for a in argv]


@pytest.mark.parametrize("case", MALFORMED)
def test_parse_error_is_usage_error(case, capsys, tmp_path):
    code, report = capture(capsys, _malformed_argv(case, tmp_path))
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize("case", [case for case in MALFORMED if case.endswith("-pole-at-origin")])
def test_a_pole_at_the_origin_is_reported_as_recipe_reports_it(case, capsys, tmp_path):
    code, report = capture(capsys, _malformed_argv(case, tmp_path))
    assert (code, report) == (2, {"error": "denominator of 1/s vanishes at the origin"})


def test_main_reports_usage_error_without_traceback(tmp_path):
    argv = _malformed_argv("repeated-name", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "cmlink.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, code, text", [
    (["--help"], 0, "usage: cmlink"),
    (["gb"], 2, "the following arguments are required: --ideal"),
], ids=["help", "usage-error"])
def test_parser_reused_in_one_process(argv, code, text, capsys):
    """The parser is built once per process; a second run prints the same."""
    outs = []
    for _ in range(2):
        assert run(argv) == code
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert text in (outs[0].out if code == 0 else outs[0].err)


def test_repeated_a_does_not_pile_up_across_runs(files, capsys, tmp_path):
    argv = ["verify-linkage", "--ideal-I", files["ci.id"], "--ideal-J", files["curve.id"]]
    paths = []
    for k, text in enumerate(["matrix 1 1\n1\n", "matrix 3 2\n0; y\n0; x\n-1; 0\n",
                              "matrix 2 1\nx^3 - y*z\ny^2 - x*z\n"]):
        p = tmp_path / f"a{k}.mat"
        p.write_text(text)
        paths.append(str(p))
        argv += ["--a", str(p)]
    assert cli._parser().parse_args(argv).a == paths
    first = capture(capsys, argv)
    assert capture(capsys, argv) == first
    assert cli._parser().parse_args(argv).a == paths
    assert cli._parser().parse_args(argv[:5]).a == []


def test_reports_byte_deterministic(files, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert (
            run(
                [
                    "link",
                    "--ideal-I",
                    files["ci.id"],
                    "--ideal-J",
                    files["curve.id"],
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


# reports of the twisted cubic and the complete intersection linked to it,
# as the CLI printed them before the module layer reused bases and
# resolutions; both must stay byte-identical
GOLDEN_RESOLVE_CURVE = r"""{
  "command": "resolve",
  "ring": "ring x,y,z over QQ",
  "order": "grevlex",
  "generators": [
    "y^2 - x*z",
    "x^3 - y*z",
    "x^2*y - z^2"
  ],
  "minimal": true,
  "ranks": [
    1,
    3,
    2
  ],
  "differentials": [
    "matrix 1 3\ny^2 - x*z; x^3 - y*z; x^2*y - z^2",
    "matrix 3 2\nx^2; z\nz; y\n-y; -x"
  ],
  "exact": true,
  "cohen_macaulay": true,
  "codim": 2,
  "minimal_length": 2
}
"""

GOLDEN_LINK_CI_CURVE = r"""{
  "command": "link",
  "ring": "ring x,y,z over QQ",
  "order": "grevlex",
  "I": [
    "-x^2*y + z^2",
    "x^4 + y^3 - 2*x*y*z"
  ],
  "J": [
    "y^2 - x*z",
    "x^3 - y*z",
    "x^2*y - z^2"
  ],
  "K_colon": [
    "x^3 - y*z",
    "x^2*y - z^2",
    "y^2 - x*z"
  ],
  "L_top_entries": [
    "-y^2 + x*z",
    "-x^3 + y*z"
  ],
  "double_link_holds": true,
  "decomposition_holds": true,
  "witnesses": [],
  "ok": true
}
"""


# the rational normal quartic, as the CLI printed it while syzygy columns
# were still pruned one module Groebner basis per column
RNC4 = """ring x0,x1,x2,x3,x4 over QQ
x0*x2 - x1^2
x0*x3 - x1*x2
x0*x4 - x1*x3
x1*x3 - x2^2
x1*x4 - x2*x3
x2*x4 - x3^2
"""

GOLDEN_RESOLVE_RNC4 = r"""{
  "command": "resolve",
  "ring": "ring x0,x1,x2,x3,x4 over QQ",
  "order": "grevlex",
  "generators": [
    "-x1^2 + x0*x2",
    "-x1*x2 + x0*x3",
    "-x1*x3 + x0*x4",
    "-x2^2 + x1*x3",
    "-x2*x3 + x1*x4",
    "-x3^2 + x2*x4"
  ],
  "minimal": true,
  "ranks": [
    1,
    6,
    8,
    3
  ],
  "differentials": [
    "matrix 1 6\n-x1^2 + x0*x2; -x1*x2 + x0*x3; -x1*x3 + x0*x4; -x2^2 + x1*x3; -x2*x3 + x1*x4; -x3^2 + x2*x4",
    "matrix 6 8\n-x2; -x3; 0; x3; x4; 0; 0; 0\nx1; 0; -x3; -x2; -x3; x4; x4; 0\n0; x1; x2; 0; 0; -x3; -x3; 0\n-x0; 0; 0; x1; 0; 0; -x3; x4\n0; -x0; 0; 0; x1; 0; x2; -x3\n0; 0; -x0; 0; -x0; x1; 0; x2",
    "matrix 8 3\n-x3; -x4; 0\nx2; x3; 0\n-x1; 0; x3\n0; x3; x4\n0; -x2; -x3\n-x0; 0; x2\nx0; x1; 0\n0; -x0; -x1"
  ],
  "exact": true,
  "cohen_macaulay": true,
  "codim": 3,
  "minimal_length": 3
}
"""


def test_resolve_and_link_reports_match_golden(files, capsys):
    run(["resolve", "--ideal", files["curve.id"], "--minimal"])
    assert capsys.readouterr().out == GOLDEN_RESOLVE_CURVE
    run(["link", "--ideal-I", files["ci.id"], "--ideal-J", files["curve.id"]])
    assert capsys.readouterr().out == GOLDEN_LINK_CI_CURVE
    rnc4 = files["tmp"] / "rnc4.id"
    rnc4.write_text(RNC4)
    run(["resolve", "--ideal", str(rnc4), "--minimal"])
    assert capsys.readouterr().out == GOLDEN_RESOLVE_RNC4


# the curve's syzygy loop: the kernel of d_1, then the empty kernel of d_2
CURVE_LOOP = 2


def test_resolve_and_link_build_one_resolution(files, capsys, syzygy_steps):
    assert run(["resolve", "--ideal", files["curve.id"], "--minimal"]) == 0
    assert len(syzygy_steps) == CURVE_LOOP
    assert run(["link", "--ideal-I", files["ci.id"], "--ideal-J", files["curve.id"]]) == 0
    assert len(syzygy_steps) == 2 * CURVE_LOOP
    capsys.readouterr()


GOLDEN_RESOLVE_INHOMOGENEOUS = """{
  "command": "resolve",
  "ring": "ring x,y over QQ",
  "order": "grevlex",
  "generators": [
    "x^2 - x",
    "x*y"
  ],
  "minimal": false,
  "ranks": [
    1,
    2,
    1
  ],
  "differentials": [
    "matrix 1 2\\nx^2 - x; x*y",
    "matrix 2 1\\ny\\n-x + 1"
  ],
  "exact": true,
  "cohen_macaulay": false,
  "codim": 1,
  "minimal_length": 2
}
"""


def test_resolve_without_minimal_builds_one_resolution(files, capsys, syzygy_steps):
    """The Cohen-Macaulay verdict reuses the unpruned resolution of the report."""
    assert run(["resolve", "--ideal", files["curve.id"]]) == 0
    assert len(syzygy_steps) == CURVE_LOOP
    capsys.readouterr()
    # not graded: the unit-free entry 1 - x keeps it non-minimal at the origin
    path = files["tmp"] / "inhomogeneous.id"
    path.write_text("ring x,y over QQ\nx^2 - x\nx*y\n")
    for flags in ([], ["--minimal"]):
        assert run(["resolve", "--ideal", str(path)] + flags) == 0
        assert capsys.readouterr().out == GOLDEN_RESOLVE_INHOMOGENEOUS


def _member_failure(capsys, argv):
    """A member run that cannot go on: exit 1, `ok` false and an error, no traceback."""
    code, report = capture(capsys, ["member", "--g", "x"] + argv)
    assert code == 1
    assert report["ok"] is False
    assert "verdict" not in report
    return report["error"]


def test_member_via_link_non_cm_target(files, capsys, tmp_path):
    J = tmp_path / "xy.id"
    J.write_text("ring x,y over QQ\nx^2\nx*y\n")
    error = _member_failure(capsys, ["--ideal-J", str(J), "--via", "link"])
    assert "different lengths" in error


def test_member_via_link_i_outside_j(files, capsys, tmp_path):
    I = tmp_path / "outside.id"
    I.write_text("ring x,y,z over QQ\nx\ny\n")
    error = _member_failure(
        capsys, ["--ideal-J", files["curve.id"], "--ideal-I", str(I), "--via", "link"]
    )
    assert "not in the target ideal" in error


def test_member_via_det_broken_row_identity(files, capsys, tmp_path):
    A = tmp_path / "identity.mat"
    A.write_text("ring x,y over QQ\nmatrix 2 2\n1; 0\n0; 1\n")
    error = _member_failure(
        capsys,
        ["--ideal-J", files["J2.id"], "--ideal-I", files["I2.id"], "--matrix-A", str(A),
         "--via", "det"],
    )
    assert "row identity" in error


# I = (x*y, x*y + y^2) = (x, y) * [[y, y], [0, y]] has codim 1 < 2 = codim J, so
# neither law applies (both would put z in J = (x, y)) and I links nothing to J
NOT_CI = {
    "J.id": "ring x,y,z over QQ\nx\ny\n",
    "I.id": "ring x,y,z over QQ\nx*y\nx*y + y^2\n",
    "A.mat": "ring x,y,z over QQ\nmatrix 2 2\ny; y\n0; y\n",
    # codim 1 as well; its top entries are all zero
    "I_zero_top.id": "ring x,y,z over QQ\nx^2\nx*y\n",
}


@pytest.mark.parametrize("argv", [
    ["member", "--g", "z", "--via", "link", "--ideal-I", "I.id"],
    ["det-member", "--g", "z", "--ideal-I", "I.id", "--matrix-A", "A.mat"],
    ["member", "--g", "z", "--via", "link", "--ideal-I", "I_zero_top.id"],
    ["link", "--ideal-I", "I.id"],
    ["verify-linkage", "--ideal-I", "I.id"],
], ids=["member-via-link", "det-member", "member-via-link-zero-top-entries", "link",
        "verify-linkage"])
def test_an_i_that_is_not_a_complete_intersection_of_codim_j_is_an_input_error(
        argv, capsys, tmp_path):
    for name, text in NOT_CI.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in NOT_CI else a for a in argv]
    code, report = capture(capsys, argv + ["--ideal-J", str(tmp_path / "J.id")])
    assert code == 2
    assert "verdict" not in report
    assert report["error"] == ("I must be a complete intersection of codimension "
                               "p = codim J = 2; I has codim 1 and 2 generators")


def test_the_det_law_needs_j_with_codim_j_generators(capsys, tmp_path):
    J = tmp_path / "J.id"
    J.write_text("ring x,y over QQ\nx\ny\nx + y\n")
    A = tmp_path / "A.mat"
    A.write_text("ring x,y over QQ\nmatrix 3 3\nx; 0; 0\n0; y; 0\n0; 0; 1\n")
    I = tmp_path / "I.id"
    I.write_text("ring x,y over QQ\nx^2\ny^2\n")
    code, report = capture(capsys, ["det-member", "--g", "x", "--ideal-I", str(I),
                                    "--ideal-J", str(J), "--matrix-A", str(A)])
    assert code == 2
    assert report["error"] == "the det law needs J with p = codim J = 2 generators"
