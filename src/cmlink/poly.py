"""Exact sparse multivariate polynomials.

Coefficients are `fractions.Fraction`s over QQ.  When the ring designates a
parameter block they are canonical elements of sympy's fraction field
QQ(params) (`FracElement`s, numerator and denominator coprime with the
denominator's leading coefficient positive), printed in sympy's
fraction-field form.  Monomials are exponent tuples of fixed length; term
order objects provide sort keys for lex, graded-reverse-lex and
block-elimination orders.  No floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.fields import FracElement


class RingMismatchError(ValueError):
    """Operands live in different rings."""


class SingularMatrixError(ValueError):
    """Linear change of variables is not invertible."""


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class OriginPoleError(ValueError):
    """A fraction-field coefficient has a denominator vanishing at the origin."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class Ring:
    """Polynomial ring QQ[vars] or QQ(params)[vars].

    Coefficients over QQ are `fractions.Fraction`s.  The parameter block,
    when present, is inverted: each coefficient is a canonical element of
    the fraction field `sympy.QQ.frac_field(*params)` (`self.field`), so
    equal coefficients are equal and hash alike, and they print in sympy's
    fraction-field form, such as `(-972*s+162)/(s+1)`.
    """

    def __init__(self, variables, params=()):
        variables = tuple(variables)
        params = tuple(params)
        for name in variables + params:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
        if len(set(variables + params)) != len(variables) + len(params):
            raise ValueError("variable/parameter names must be distinct")
        self.variables = variables
        self.params = params
        self.nvars = len(variables)
        # the fraction field QQ(params), or None over QQ
        self.field = None
        if params:
            self.field = sympy.QQ.frac_field(*sympy.symbols(params)).field
        self._zero_exps = (0,) * self.nvars

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.variables == other.variables
            and self.params == other.params
        )

    def __hash__(self):
        return hash((self.variables, self.params))

    def __repr__(self):
        if self.params:
            return f"Ring({', '.join(self.variables)} over QQ({', '.join(self.params)}))"
        return f"Ring({', '.join(self.variables)} over QQ)"

    def header(self):
        """The `ring ...` header line for text formats."""
        field = f"QQ({','.join(self.params)})" if self.params else "QQ"
        return f"ring {','.join(self.variables)} over {field}"

    # -- coefficient field ---------------------------------------------------
    # Only coercion, the value at the origin, printing and the sympy
    # conversion depend on the field.  Arithmetic is written with the native
    # operators (`not c`, `+`, `-`, `*`, `/`) of Fraction and FracElement,
    # whose results are already canonical.

    def coeff(self, value):
        """Canonicalize `value` into the coefficient field."""
        field = self.field
        if field is None:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(value)
            if isinstance(value, sympy.Expr) and value.is_Rational:
                return Fraction(int(value.p), int(value.q))
            raise ValueError(f"cannot coerce {value!r} into QQ")
        if isinstance(value, FracElement) and value.field == field:
            return value
        if isinstance(value, (int, Fraction)):
            return field.ground_new(sympy.QQ(value.numerator, value.denominator))
        expr = sympy.sympify(value)
        bad = expr.free_symbols - set(field.symbols)
        if bad:
            raise ValueError(f"coefficient uses non-parameter symbols {bad}")
        # from_expr can leave the signs of numerator and denominator
        # unnormalized (1/(1-s) against -1/(s-1)); new() makes them canonical
        element = field.from_expr(expr)
        return field.new(element.numer, element.denom)

    def coeff_at_origin(self, c):
        """Value of a coefficient at params = 0, as a Fraction."""
        if self.field is None:
            return c
        origin = self.field.ring.zero_monom
        d0 = c.denom.get(origin)
        if not d0:
            raise OriginPoleError(f"denominator of {c} vanishes at the origin")
        val = c.numer.get(origin, sympy.QQ.zero) / d0
        return Fraction(int(val.numerator), int(val.denominator))

    def coeff_str(self, c):
        return str(c).replace(" ", "")

    def coeff_to_sympy(self, c):
        """The coefficient as a sympy expression."""
        if self.field is None:
            return sympy.Rational(c.numerator, c.denominator)
        return c.as_expr()

    # -- constructors --------------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, value):
        c = self.coeff(value)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {self._zero_exps: c})

    def var(self, i):
        if isinstance(i, str):
            i = self.variables.index(i)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.coeff(1)})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def param(self, name):
        if name not in self.params:
            raise ValueError(f"{name!r} is not a parameter of {self!r}")
        return self.constant(self.field.gens[self.params.index(name)])

    def poly(self, text):
        return parse_poly(text, self)


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials, given by one sort key.

    kind is 'lex', 'grevlex' or 'block' (block-elimination order whose first
    block has size `block`, grevlex within each block).  `perm`, when given,
    is a permutation of range(nvars): the order compares the exponent tuple
    (exps[perm[0]], exps[perm[1]], ...), and a tuple of any other length is
    rejected.

    `desc_key(exps)` sorts the greatest monomial first: grevlex is
    (-deg, exps reversed), lex the negated exponents, block the pair of
    grevlex `desc_key`s of the two blocks.  It is the one formula for each
    kind; `key` (larger = greater) is its elementwise negation.  Sorting,
    `min` and the division heap use `desc_key` directly.
    """

    kind: str
    block: int = 0
    perm: tuple = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and self.block < 1:
            raise ValueError("block order needs a positive first-block size")
        if self.perm is not None and sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"perm {self.perm!r} is not a permutation of range(n)")

    def desc_key(self, exps):
        """Sort key of a monomial, smaller = greater in the order."""
        if self.perm is not None:
            if len(exps) != len(self.perm):
                raise ValueError(f"monomial {exps!r} does not match perm {self.perm!r}")
            exps = tuple(exps[i] for i in self.perm)
        if self.kind == "grevlex":
            return _grevlex_desc_key(exps)
        if self.kind == "lex":
            return tuple(-e for e in exps)
        return (_grevlex_desc_key(exps[: self.block]), _grevlex_desc_key(exps[self.block :]))

    def key(self, exps):
        """Sort key of a monomial, larger = greater in the order."""
        return _negated(self.desc_key(exps))

    def greater(self, a, b):
        return self.desc_key(a) < self.desc_key(b)


def _grevlex_desc_key(exps):
    return (-sum(exps), exps[::-1])


def _negated(key):
    """Elementwise negation of a nested tuple of integers."""
    return tuple(_negated(k) if isinstance(k, tuple) else -k for k in key)


def lex_order(perm=None):
    return MonomialOrder("lex", perm=perm)


def grevlex_order(perm=None):
    return MonomialOrder("grevlex", perm=perm)


def block_order(first_block_size, perm=None):
    return MonomialOrder("block", block=first_block_size, perm=perm)


GREVLEX = grevlex_order()
LEX = lex_order()


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """a | b exponentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(a):
    return sum(a)


class Polynomial:
    """Immutable sparse polynomial: map from exponent tuple to nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # owned dict; never mutated after construction

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(e == self.ring._zero_exps for e in self.terms)

    def constant_term(self):
        return self.terms.get(self.ring._zero_exps, self.ring.coeff(0))

    def constant_term_at_origin(self):
        """Constant term with parameters also set to zero."""
        return self.ring.coeff_at_origin(self.constant_term())

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient_in(self, i, k):
        """Coefficient of var_i^k, a polynomial free of var_i."""
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                key = exps[:i] + (0,) + exps[i + 1 :]
                out[key] = c
        return Polynomial(self.ring, out)

    def involves(self, i):
        return any(e[i] for e in self.terms)

    def sorted_terms(self, order=GREVLEX):
        """Terms in descending order."""
        key = order.desc_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    def leading_term(self, order=GREVLEX):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = min(self.terms, key=order.desc_key)
        return exps, self.terms[exps]

    def leading_monomial(self, order=GREVLEX):
        return self.leading_term(order)[0]

    def leading_coeff(self, order=GREVLEX):
        return self.leading_term(order)[1]

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        ring = self.ring
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                s = out[exps] + c
                if not s:
                    del out[exps]
                else:
                    out[exps] = s
            else:
                out[exps] = c
        return Polynomial(ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.constant(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        ring = self.ring
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = monomial_mul(e1, e2)
                prod = c1 * c2
                if exps in out:
                    s = out[exps] + prod
                    if not s:
                        del out[exps]
                    else:
                        out[exps] = s
                else:
                    out[exps] = prod
        return Polynomial(ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring.coeff(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})

    def term_mul(self, exps, c):
        """Multiply by the single term c * x^exps."""
        return Polynomial(
            self.ring, {monomial_mul(e, exps): v * c for e, v in self.terms.items()}
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = self.ring.constant(other)
            else:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- substitution --------------------------------------------------------

    def substitute(self, mapping):
        """Substitute var_i -> mapping[i] (a Polynomial) for each key of mapping."""
        ring = self.ring
        for q in mapping.values():
            if q.ring != ring:
                raise RingMismatchError("substitution target in wrong ring")
        powers = {}

        def power(i, e):
            if (i, e) not in powers:
                powers[(i, e)] = mapping[i] ** e
            return powers[(i, e)]

        out = ring.zero()
        for exps, c in self.terms.items():
            residual = list(exps)
            piece = None
            for i in mapping:
                if exps[i]:
                    residual[i] = 0
                    p = power(i, exps[i])
                    piece = p if piece is None else piece * p
            base = Polynomial(ring, {tuple(residual): c})
            out = out + (base if piece is None else base * piece)
        return out

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        pieces = []
        for exps, c in self.sorted_terms(GREVLEX):
            mono = "*".join(
                ring.variables[i] if e == 1 else f"{ring.variables[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            if not isinstance(c, Fraction):
                if not (c.numer.is_ground and c.denom.is_ground):
                    cs = f"({ring.coeff_str(c)})"
                    pieces.append(("+", cs if not mono else f"{cs}*{mono}"))
                    continue
                # a rational number: its value at the origin is itself
                c = ring.coeff_at_origin(c)
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if not mono:
                piece = str(mag)
            elif mag == 1:
                piece = mono
            else:
                piece = f"{mag}*{mono}"
            pieces.append((sign, piece))
        sign0, piece0 = pieces[0]
        text = ("-" if sign0 == "-" else "") + piece0
        for sign, piece in pieces[1:]:
            text += f" {sign} {piece}"
        return text

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"

    # -- sympy bridge --------------------------------------------------------

    def to_sympy(self):
        syms = sympy.symbols(self.ring.variables) if self.ring.variables else ()
        if self.ring.nvars == 1:
            syms = (syms,) if isinstance(syms, sympy.Symbol) else syms
        expr = sympy.Integer(0)
        for exps, c in self.terms.items():
            mono = sympy.Integer(1)
            for s, e in zip(syms, exps):
                if e:
                    mono *= s**e
            expr += self.ring.coeff_to_sympy(c) * mono
        return expr

    @classmethod
    def from_sympy(cls, expr, ring):
        """Read a sympy expression whose poly variables occur polynomially."""
        expr = sympy.cancel(sympy.together(expr))
        if not ring.variables:
            return ring.constant(expr)
        syms = sympy.symbols(ring.variables)
        if ring.nvars == 1:
            syms = (syms,) if isinstance(syms, sympy.Symbol) else syms
        num, den = sympy.fraction(expr)
        for s in syms:
            if den.has(s):
                raise ValueError(f"denominator involves ring variable {s}")
        if ring.params:
            p = sympy.Poly(num, *syms)
        else:
            p = sympy.Poly(num, *syms, domain="QQ")
        terms = {}
        for exps, c in p.terms():
            coeff = ring.coeff(p.domain.to_sympy(c) / den)
            if coeff:
                terms[tuple(exps)] = coeff
        return Polynomial(ring, terms)


# -- determinants and linear changes of variables ----------------------------


def _bareiss_det(rows, one, is_zero, divide):
    """Determinant of a square matrix, given as rows, by Bareiss elimination.

    Works over any integral domain: `is_zero` tests an entry and
    `divide(a, b)` returns the exact quotient a/b of a nonzero a.  The empty matrix has
    determinant `one`.  `rows` is left unchanged.
    """
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return one
    sign = 1
    prev = one
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not is_zero(a[i][k])), None)
        if piv is None:
            return a[k][k]  # a zero entry: the matrix is singular
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if is_zero(num) else divide(num, prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _mat_inv(rows):
    n = len(rows)
    aug = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        pivval = aug[k][k]
        aug[k] = [v / pivval for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return tuple(tuple(r[n:]) for r in aug)


class LinearChange:
    """Invertible rational matrix: old var_i = sum_j matrix[i][j] * new var_j."""

    def __init__(self, matrix):
        rows = tuple(tuple(Fraction(v) for v in r) for r in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if not _bareiss_det(rows, Fraction(1), lambda c: not c, lambda a, b: a / b):
            raise SingularMatrixError("linear change must be invertible")
        self.matrix = rows
        self.size = n

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def inverse(self):
        return LinearChange(_mat_inv(self.matrix))

    def compose(self, other):
        """Change sending old -> self -> other coordinates (matrix product)."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        n = self.size
        prod = tuple(
            tuple(
                sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        return LinearChange(prod)

    def is_identity(self):
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(self.size)
            for j in range(self.size)
        )

    def __eq__(self, other):
        return isinstance(other, LinearChange) and self.matrix == other.matrix

    def __repr__(self):
        return f"LinearChange({self.matrix})"


def apply_linear_change(p, change):
    """Compose p with the linear map: substitute old var_i by its expansion."""
    ring = p.ring
    if change.size != ring.nvars:
        raise ValueError("linear change size must equal the variable count")
    mapping = {}
    for i in range(ring.nvars):
        row = change.matrix[i]
        q = ring.zero()
        for j, v in enumerate(row):
            if v:
                q = q + ring.var(j).scale(v)
        mapping[i] = q
    return p.substitute(mapping)


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>\*\*|[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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


class _Parser:
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
            # a quotient of variable-free operands, such as a printed
            # coefficient (-1/(s-1)); literal fractions are read by factor()
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


def parse_poly(text, ring):
    """Parse a polynomial expression over `ring`.

    Grammar: sums of products of integer/rational literals, variables,
    parameters, powers ('^' or '**') and parenthesized subexpressions.  A
    '/' between two integer literals makes a rational literal, which binds
    tighter than '*' (`x*1/2` is half of x).  Any other '/' divides
    variable-free operands by a nonzero one, as in the coefficient
    `(-1/(s-1))` that `str` prints over QQ(params); `x/2` and `(x+1)/2` are
    errors.
    """
    return _Parser(_tokenize(text), ring).parse()


_RING_HEADER_RE = re.compile(
    r"^\s*ring\s+(?P<vars>[^\s]+)\s+over\s+QQ(\((?P<params>[^)]*)\))?\s*$"
)


def parse_ring_header(line):
    m = _RING_HEADER_RE.match(line)
    if not m:
        raise ParseError(f"bad ring header {line.strip()!r}", 1, 1)
    variables = [v.strip() for v in m.group("vars").split(",") if v.strip()]
    params = m.group("params")
    params = [p.strip() for p in params.split(",") if p.strip()] if params else []
    try:
        return Ring(variables, params)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from exc
