"""CLI subcommands: file formats, JSON reports and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmlink import complexes
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


def test_verify_linkage_with_supplied_matrices(files, capsys, tmp_path):
    mats = {
        "a0.mat": "matrix 1 1\n1\n",
        "a1.mat": "matrix 3 2\n0; y\n0; x\n-1; 0\n",
        "a2.mat": "matrix 2 1\nx^3 - y*z\ny^2 - x*z\n",
    }
    argv = [
        "verify-linkage",
        "--ideal-I",
        files["ci.id"],
        "--ideal-J",
        files["curve.id"],
    ]
    for name, text in mats.items():
        p = tmp_path / name
        p.write_text(text)
        argv += ["--a", str(p)]
    code, report = capture(capsys, argv)
    # the supplied matrices must match the computed resolution's basis order;
    # if they do not commute the tool reports exit 1, never a crash
    assert code in (0, 1)
    assert "ok" in report


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


def test_main_reports_usage_error_without_traceback(tmp_path):
    argv = _malformed_argv("repeated-name", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "cmlink.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)
    assert "Traceback" not in proc.stderr


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


def test_resolve_and_link_build_one_resolution(files, capsys, monkeypatch):
    built = []
    original = complexes.free_resolution

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(complexes, "free_resolution", counting)
    assert run(["resolve", "--ideal", files["curve.id"], "--minimal"]) == 0
    assert len(built) == 1
    assert run(["link", "--ideal-I", files["ci.id"], "--ideal-J", files["curve.id"]]) == 0
    assert len(built) == 2
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


def test_resolve_without_minimal_builds_one_resolution(files, capsys, monkeypatch):
    """The Cohen-Macaulay verdict reuses the unpruned resolution of the report."""
    built = []
    original = complexes.free_resolution

    def counting(*args, **kwargs):
        built.append(kwargs["minimalize"])
        return original(*args, **kwargs)

    monkeypatch.setattr(complexes, "free_resolution", counting)
    assert run(["resolve", "--ideal", files["curve.id"]]) == 0
    assert built == [False]
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
