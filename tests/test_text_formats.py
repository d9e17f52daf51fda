"""The text layer against sympy-era references: the one-pass term parser
against the recursive parser it replaced, the native printer of
QQ(params) coefficients against sympy's `sstr`, and `Ring.coeff`'s reading
of coefficient text against the `sympify` reader it replaced
(`conftest.former_coeff`, which also checks every coefficient text the
suite passes).

The reference parser builds a Polynomial for every factor and multiplies
them, with sympy's field arithmetic for parameter coefficients; the
reference printer is `str(c).replace(" ", "")`.  Inputs are every text the
benchmark workloads (seeds 1 and 2) and the corpora of
`tools/op_outputs.py` parse, seeded random expressions over QQ and
QQ(s,t), and malformed texts, whose ParseError message, line and column
must match too.
"""

import os
import random
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest

import cmlink
from cmlink import poly, weier
from conftest import former_coeff
from cmlink.poly import OriginPoleError, ParseError, Ring, parse_poly, parse_ring_header

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
TOOLS = os.path.join(ROOT, "tools")


# -- the reference parser ----------------------------------------------------------


_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>\*\*|[-+*/^()])"
)


def reference_tokenize(text):
    """The former tokenizer: one match per token, each with its line and column."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if not m.lastgroup == "ws":
            tokens.append((m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


class ReferenceParser:
    """The recursive parser: one Polynomial per factor, multiplied out."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        p = self.expr()
        kind, lexeme, _, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected token {lexeme!r}")
        return p

    def expr(self):
        sign = 1
        if self.peek()[1] in ("+", "-"):
            sign = -1 if self.next()[1] == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            q = self.term()
            p = p - q if op == "-" else p + q
        return p

    def term(self):
        p = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()
            q = self.factor()
            if op[1] == "*":
                p = p * q
                continue
            if not (p.is_constant() and q.is_constant()):
                self.error("'/' is only allowed between variable-free operands", op)
            if q.is_zero():
                self.error("zero denominator", op)
            p = self.ring.constant(p.constant_term() / q.constant_term())
        return p

    def factor(self):
        kind, lexeme, line, col = self.peek()
        if kind == "int":
            self.next()
            num = int(lexeme)
            if self.peek()[1] == "/" and self.tokens[self.pos + 1][0] == "int":
                self.next()
                _, dlex, dline, dcol = self.next()
                if int(dlex) == 0:
                    raise ParseError("zero denominator", dline, dcol)
                return self.ring.constant(Fraction(num, int(dlex)))
            return self.ring.constant(num)
        if kind == "name":
            self.next()
            if lexeme in self.ring.variables:
                base = self.ring.var(lexeme)
            elif lexeme in self.ring.params:
                base = self.ring.param(lexeme)
            else:
                raise ParseError(f"unknown variable {lexeme!r}", line, col)
            return self.maybe_power(base)
        if lexeme == "(":
            self.next()
            p = self.expr()
            ck, clex, cline, ccol = self.next()
            if clex != ")":
                raise ParseError("expected ')'", cline, ccol)
            return self.maybe_power(p)
        if lexeme == "/":
            raise ParseError("'/' is only allowed between variable-free operands", line, col)
        self.error(f"unexpected token {lexeme!r}")

    def maybe_power(self, base):
        if self.peek()[1] in ("^", "**"):
            self.next()
            kind, lexeme, line, col = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", line, col)
            return base ** int(lexeme)
        return base


def reference_parse(text, ring):
    return ReferenceParser(reference_tokenize(text), ring).parse()


def _outcome(parse, text, ring):
    """("ok", polynomial, its text) or ("error", message, line, column)."""
    try:
        p = parse(text, ring)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("ok", p, str(p))


def assert_parsers_agree(text, ring):
    new, ref = _outcome(parse_poly, text, ring), _outcome(reference_parse, text, ring)
    assert new == ref, text
    return new[0] == "ok"


# -- the texts the benchmark and the corpora parse ---------------------------------


def _recording(monkeypatch):
    """A list that gets (text, ring) for every parse from here on."""
    seen = []
    original = poly.parse_poly

    def record(text, ring):
        seen.append((text, ring))
        return original(text, ring)

    monkeypatch.setattr(poly, "parse_poly", record)
    return seen


def _file_texts(folder):
    """(text, ring) of every generator of the ideal files in folder; the
    workloads and the corpora write no matrix files."""
    out = []
    for root, _, names in os.walk(folder):
        for name in sorted(names):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
            ring = parse_ring_header(lines[0])
            out.extend((ln, ring) for ln in lines[1:])
    return out


def _import(folder, name):
    sys.path.insert(0, folder)
    try:
        return __import__(name)
    finally:
        sys.path.remove(folder)


def test_the_parser_matches_the_reference_on_every_workload_text(monkeypatch, tmp_path):
    workloads = _import(PERFBENCH, "workloads")
    seen = _recording(monkeypatch)
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            folder = tmp_path / f"{name}-{seed}"
            folder.mkdir()
            workloads.build(name, seed, str(folder))
    monkeypatch.undo()
    files = _file_texts(tmp_path)
    assert len(files) > 60 and len(seen) > 100
    assert {ring.params for _, ring in files} == {(), ("s",)}
    for text, ring in dict.fromkeys(files + seen):
        assert_parsers_agree(text, ring)


class _ParseOnly:
    """The cmlink package as the corpora of `tools/op_outputs.py` use it, with
    every computation a stub: rings and matrices are real, so running a case
    parses its texts and builds its inputs, and computes nothing else."""

    REAL = ("Ring", "PolyMatrix", "GREVLEX", "LEX", "block_order", "NotInImageError")

    def __getattr__(self, name):
        return getattr(cmlink, name) if name in self.REAL else mock.MagicMock()


def test_the_parser_matches_the_reference_on_every_corpus_text(monkeypatch, tmp_path):
    op_outputs = _import(TOOLS, "op_outputs")
    stub = _ParseOnly()
    seen = _recording(monkeypatch)
    for k in op_outputs.WIDE_EXPONENTS:
        for case in op_outputs.wide_cases(stub, k):
            case.run()
    for corpus in (op_outputs.field_cases, op_outputs.ideal_cases, op_outputs.recipe_cases):
        for _, case in corpus(stub):
            case.run()
    cases = list(op_outputs.text_cases(cmlink, str(tmp_path)))
    monkeypatch.undo()
    files = _file_texts(tmp_path)
    assert len(files) == sum(len(gens) for _, gens in op_outputs.TEXT_FILES.values())
    assert len(seen) > 150
    for text, ring in dict.fromkeys(seen + files):
        assert assert_parsers_agree(text, ring), text
    for _, case in cases:
        assert case.run()[0] == 0


# -- seeded expressions --------------------------------------------------------------

QQ_RING = Ring(("x", "y", "z"))
PARAM_RING = Ring(("x", "y"), ("s", "t"))


def _power(rng):
    return rng.choice(["", "", "", "^2", "**2", "^0", "^3", "**1"])


def _literal(rng):
    n = rng.randint(0, 9)
    return f"{n}/{rng.randint(1, 6)}" if rng.random() < 0.3 else str(n)


def _constant(rng, ring, depth):
    """A variable-free operand: a literal, a parameter power, or a parenthesized sum of them."""
    roll = rng.random()
    if roll < 0.4 or not ring.params:
        return _literal(rng)
    if roll < 0.75 or depth > 1:
        return rng.choice(ring.params) + _power(rng)
    parts = [_constant(rng, ring, depth + 1) for _ in range(rng.randint(1, 3))]
    return "(" + rng.choice(["", "-"]) + " + ".join(parts) + ")"


def _factor(rng, ring, depth):
    roll = rng.random()
    if roll < 0.2:
        return _literal(rng)
    if roll < 0.5:
        return rng.choice(ring.variables) + _power(rng)
    if roll < 0.6 and ring.params:
        return rng.choice(ring.params) + _power(rng)
    if roll < 0.7:
        return f"({_constant(rng, ring, depth)}/{_constant(rng, ring, depth)})"
    if depth > 1:
        return rng.choice(ring.variables)
    if roll < 0.85:  # a parenthesized product, maybe nested
        return f"({_term(rng, ring, depth + 1)}){_power(rng)}"
    return f"({_sum(rng, ring, depth + 1)}){rng.choice(['', '^2', '**2', '^0'])}"


def _term(rng, ring, depth):
    return "*".join(_factor(rng, ring, depth) for _ in range(rng.randint(1, 4)))


def _sum(rng, ring, depth):
    text = rng.choice(["", "", "-", "+"]) + _term(rng, ring, depth)
    for _ in range(rng.randint(0, 3 if depth == 0 else 1)):
        text += rng.choice([" + ", " - ", "+", "-"]) + _term(rng, ring, depth)
    return text


def random_texts(ring, seed, count):
    rng = random.Random(f"texts:{seed}")
    return [_sum(rng, ring, 0) for _ in range(count)]


@pytest.mark.parametrize("ring", [QQ_RING, PARAM_RING], ids=["QQ", "QQ(s,t)"])
def test_the_parser_matches_the_reference_on_seeded_expressions(ring):
    texts = random_texts(ring, 1, 250)
    parsed = sum(assert_parsers_agree(text, ring) for text in texts)
    assert parsed > len(texts) * 2 // 3  # the others divide by zero, and must fail alike


def _coefficient_text(rng):
    """A variable-free text over QQ(s,t): an operand, or a product or quotient
    of two, the second parenthesized so that `s/3/4` reads the same to both
    readers."""
    a = _constant(rng, PARAM_RING, 0)
    roll = rng.random()
    if roll < 0.3:
        return a
    return f"{rng.choice(['', '-'])}{a}{'*' if roll < 0.6 else '/'}({_constant(rng, PARAM_RING, 0)})"


def test_coefficient_texts_read_as_the_sympify_reader_read_them():
    """`Ring.coeff` parses text; the former reader evaluated it with sympy.
    Both give equal elements, and both refuse a zero denominator."""
    rng = random.Random("coefficients")
    read = 0
    for _ in range(250):
        text = _coefficient_text(rng)
        try:
            c = PARAM_RING.coeff(text)
        except ParseError as exc:
            assert exc.message == "zero denominator", text
            with pytest.raises(ValueError):
                former_coeff(PARAM_RING, text)
            continue
        assert c == former_coeff(PARAM_RING, text), text
        read += 1
    assert read >= 200


MALFORMED = [
    "", "x +", "+", "x + + y", "x*-y", "x^y", "x^-1", "2^3", "x/2", "(x+1)/2", "1/0",
    "(s-s)", "1/(s-s)", "x/(1-s)", "(1/(s-1)", "x)", "x $ y", "x\n+ $", "x +\n\n (y", "3 x",
    "s/x", "x**", "x^^2", "/x", "(", "()", "x*(y+)", "s^0/0", "1/2/0", "(0*x)/x", "w*x",
]


@pytest.mark.parametrize("ring", [QQ_RING, PARAM_RING], ids=["QQ", "QQ(s,t)"])
def test_malformed_texts_fail_alike(ring):
    for text in MALFORMED:
        assert_parsers_agree(text, ring)
    rng = random.Random("malformed")
    texts = random_texts(ring, 2, 100)
    errors = 0
    for text in texts:
        for _ in range(3):
            pos = rng.randrange(len(text) + 1)
            kind = rng.choice(["insert", "delete", "swap"])
            if kind == "insert":
                mutated = text[:pos] + rng.choice("+-*/^()$ \nxs.") + text[pos:]
            elif kind == "delete":
                mutated = text[:pos] + text[pos + 1:]
            else:
                mutated = text[:pos] + text[pos + 1:pos + 2] + text[pos:pos + 1] + text[pos + 2:]
            if re.search(r"(\^|\*\*)\d\d", mutated):
                continue  # a joined exponent can make a power too large to expand
            errors += not assert_parsers_agree(mutated, ring)
    assert errors > 150


def test_parameter_terms_are_canonical_without_a_gcd():
    c = PARAM_RING.poly("(-6/4*s^2*t)*x*y^2").terms[(1, 2)]
    field = PARAM_RING.field
    assert c == field.new(c.numer, c.denom)
    assert (dict(c.numer), dict(c.denom)) == ({(2, 1): -3}, {(0, 0): 2})


# -- the printer ---------------------------------------------------------------------


def reference_coeff_str(c):
    return str(c).replace(" ", "")


def _random_element(field, rng):
    ring = field.ring

    def part():
        p = ring.zero
        for _ in range(rng.randint(1, 3)):
            monom = tuple(rng.randint(0, 2) for _ in ring.symbols)
            p += ring({monom: ring.domain(rng.choice([-3, -2, -1, 1, 2, 3]),
                                          rng.choice([1, 1, 2, 3]))})
        return p

    numer, denom = part(), part()
    while not denom:
        denom = part()
    return field.new(numer, denom)


SHAPES = {("s", "t"): ["3*s/2", "-1/(s**2)", "1/(2*s)", "(-s-t)/(2*s*t+1)", "s**2/t",
                       "-s/2", "(s-t)/3", "-s**2/(3*t)", "-3/4", "s*t", "-t", "(s+1)/t"],
          ("z",): ["-2/(z-1)", "z**2/(3*z+1)", "1/z", "-z/3", "(z**2-1)/(2*z)"]}


@pytest.mark.parametrize("params", list(SHAPES), ids=lambda p: f"QQ({','.join(p)})")
def test_the_printer_matches_sympy_on_every_shape(params):
    ring = Ring(("x",), params)
    field = ring.field
    for shape in SHAPES[params]:
        c = ring.poly(shape).constant_term()
        assert reference_coeff_str(c) == shape
        assert ring.coeff_str(c) == shape
        if not (c.numer.is_ground and c.denom.is_ground):  # a rational prints as a Fraction
            assert str(ring.constant(c) * ring.var(0)) == f"({shape})*x"
    rng = random.Random(f"printer:{params}")
    for _ in range(500):
        c = _random_element(field, rng)
        assert ring.coeff_str(c) == reference_coeff_str(c)
        # non-canonical elements print as sympy prints them too
        raw = field.raw_new(c.numer * 3, c.denom.mul_ground(field.domain(1, 2)))
        assert ring.coeff_str(raw) == reference_coeff_str(raw)


def test_a_pole_at_the_origin_prints_as_sympy_does():
    ring = Ring(("x",), ("s", "t"))
    for text in ("1/(s-t)", "(s+1)/(2*s*t-3*s)", "-1/t"):
        c = ring.poly(text).constant_term()
        with pytest.raises(OriginPoleError) as exc:
            ring.coeff_at_origin(c)
        assert str(exc.value) == f"denominator of {reference_coeff_str(c)} vanishes at the origin"


def test_the_printer_matches_sympy_on_every_params_coefficient(monkeypatch, tmp_path):
    """Every coefficient one pass of the `params` workload prints."""
    workloads = _import(PERFBENCH, "workloads")
    ops = workloads.build("params", 1, str(tmp_path))
    printed = []
    original = Ring.coeff_str

    def recording(self, c):
        printed.append((original(self, c), reference_coeff_str(c)))
        return printed[-1][0]

    monkeypatch.setattr(Ring, "coeff_str", recording)
    for op in ops:
        op.run()
    assert len(printed) > 150
    for text, reference in printed:
        assert text == reference


def reference_sylvester_ratio(p1, cleared_g2, r2_entry, dom):
    p2, num, den = cleared_g2
    m, n = len(p1) - 1, len(p2) - 1
    det = weier._sylvester_det(p1, p2, dom)
    ratio = dom.ring.to_field().new(det * den**m, r2_entry * p1[0] ** n * num**m)
    return str(ratio).replace(" ", "")


def test_the_sylvester_ratio_prints_as_sympy_does(monkeypatch):
    inputs = _import(PERFBENCH, "inputs")
    op_outputs = _import(TOOLS, "op_outputs")
    original = weier._sylvester_ratio
    ratios = []

    def recording(*args):
        ratios.append((original(*args), reference_sylvester_ratio(*args)))
        return ratios[-1][0]

    monkeypatch.setattr(weier, "_sylvester_ratio", recording)
    xyz = Ring(inputs.XYZ)
    for f1, f2 in inputs.RECIPE_CIS:
        cmlink.current_recipe(xyz.poly(f1), xyz.poly(f2))
    for _, case in op_outputs.recipe_cases(cmlink):
        if case.name == "recipe":
            case.run()
    assert len(ratios) >= 10  # one recipe of the corpus has no ratio
    assert any("/" in text for text, _ in ratios)
    for text, reference in ratios:
        assert text == reference
