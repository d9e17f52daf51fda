"""Exact sparse multivariate polynomials.

Coefficients are `fractions.Fraction`s over QQ.  When the ring designates a
parameter block they are canonical elements of sympy's fraction field
QQ(params) (`FracElement`s, numerator and denominator coprime with the
denominator's leading coefficient positive), printed in sympy's
fraction-field form.  Monomials are exponent tuples of fixed length.  A
`MonomialOrder` is lex, graded-reverse-lex or block elimination on the
ring's variables in their given order, and carries one sort key function.
Sums, differences, products and substitution, and the `PolyMatrix`
products of `modules`, add terms into a dict by one loop, `_accumulate`.
No floating point anywhere.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
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
        self.message = message
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
        self._integer_rings = {}  # weier's, on first use: ZZ[others] by var, ZZ[params] at None

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
        """Canonicalize into the coefficient field an int, a Fraction, a field
        element, a sympy number or (over QQ(params)) expression in the
        parameters, or variable-free text in the grammar of `parse_poly`."""
        field = self.field
        if field is None:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
        elif isinstance(value, FracElement) and value.field == field:
            return value
        elif isinstance(value, (int, Fraction)):
            return field.ground_new(sympy.QQ(value.numerator, value.denominator))
        if isinstance(value, str):
            p = parse_poly(value, self)
            if not p.is_constant():
                raise ValueError(f"coefficient {value!r} involves a ring variable")
            return p.constant_term()
        if isinstance(value, sympy.Expr):
            if field is not None:
                # from_expr can leave the signs of numerator and denominator
                # unnormalized (1/(1-s) against -1/(s-1)); new() makes them canonical
                element = field.from_expr(value)
                return field.new(element.numer, element.denom)
            if value.is_Rational:
                return Fraction(int(value.p), int(value.q))
        raise ValueError(f"cannot coerce {value!r} into the coefficients of {self!r}")

    def coeff_at_origin(self, c):
        """Value of a coefficient at params = 0, as a Fraction."""
        if self.field is None:
            return c
        origin = self.field.ring.zero_monom
        d0 = c.denom.get(origin)
        if not d0:
            raise OriginPoleError(f"denominator of {self.coeff_str(c)} vanishes at the origin")
        val = c.numer.get(origin, sympy.QQ.zero) / d0
        return Fraction(int(val.numerator), int(val.denominator))

    def coeff_str(self, c):
        """A QQ(params) coefficient as sympy's `sstr` prints it, spaces dropped."""
        return _frac_str(c, self.params)

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


def _poly_str(p, names):
    """A sympy `PolyElement` over ZZ or QQ, in sympy's `sstr` format with the
    spaces around `+` and `-` dropped.

    Terms come in lex-descending order, as `PolyElement.terms()` gives them
    in the lex rings of fields and of `weier`'s integer domains; a power is
    `s**2`, a product `3*s*t`, a rational `-3/2`, and a coefficient 1 is
    left out of a term that is not constant.
    """
    if not p:
        return "0"
    pieces = []
    for monom, v in sorted(p.items(), reverse=True):
        n, d = v.numerator, v.denominator
        if n < 0:
            n = -n
            pieces.append("-")
        elif pieces:
            pieces.append("+")
        mono = "*".join([name if e == 1 else f"{name}**{e}"
                         for name, e in zip(names, monom) if e])
        if d != 1:
            pieces.append(f"{n}/{d}*{mono}" if mono else f"{n}/{d}")
        elif not mono:
            pieces.append(str(n))
        else:
            pieces.append(mono if n == 1 else f"{n}*{mono}")
    return "".join(pieces)


def _frac_str(c, names):
    """A sympy `FracElement` in sympy's `sstr` format (see `_poly_str`).

    A denominator 1 is left out.  Otherwise the numerator is parenthesized
    when it has more than one term, and the denominator unless it is a
    constant or a bare symbol: `3*s/2`, `-1/(s**2)`, `1/(2*s)`,
    `(-s-t)/(2*s*t+1)`, `-2/(z-1)`, `s**2/t`.
    """
    numer, denom = c.numer, c.denom
    text = _poly_str(numer, names)
    if denom == 1:
        return text
    if len(numer) > 1:
        text = f"({text})"
    under = _poly_str(denom, names)
    if len(denom) == 1:
        [(monom, v)] = denom.items()
        if sum(monom) == 0 or (sum(monom) == 1 and v == 1):
            return f"{text}/{under}"
    return f"{text}/({under})"


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials, given by one sort key.

    kind is 'lex', 'grevlex' or 'block' (block-elimination order whose first
    block has size `block`, grevlex within each block).  Orders are plain
    data: two orders of the same kind and block are equal and hash alike.

    `desc_key(exps)` sorts the greatest monomial first: grevlex is
    (-deg, exps reversed), lex the negated exponents, block the pair of
    grevlex `desc_key`s of the two blocks.  It is a plain function, chosen
    once when the order is built; sorting, `min` and the division heap call
    it directly.
    """

    kind: str
    block: int = 0
    desc_key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "grevlex":
            key = _grevlex_desc_key
        elif self.kind == "lex":
            key = _lex_desc_key
        elif self.kind == "block":
            if self.block < 1:
                raise ValueError("block order needs a positive first-block size")
            key = _block_desc_key(self.block)
        else:
            raise ValueError(f"unknown order kind {self.kind!r}")
        object.__setattr__(self, "desc_key", key)


def _grevlex_desc_key(exps):
    return (-sum(exps), exps[::-1])


def _lex_desc_key(exps):
    return tuple(map(operator.neg, exps))


def _block_desc_key(block):
    def desc_key(exps):
        return (_grevlex_desc_key(exps[:block]), _grevlex_desc_key(exps[block:]))

    return desc_key


def block_order(first_block_size):
    return MonomialOrder("block", block=first_block_size)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def monomial_mul(a, b):
    return tuple(map(operator.add, a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _accumulate(terms, row, t=None, c=None):
    """terms += c * x^t * row in place (t None: 1, c None: 1), dropping terms that cancel.

    `row` is a sequence of (exponents, coefficient).
    """
    for e, v in row:
        if t is not None:
            e = monomial_mul(e, t)
        if c is not None:
            v = v * c
        old = terms.get(e)
        if old is None:
            terms[e] = v
        else:
            s = old + v
            if s:
                terms[e] = s
            else:
                del terms[e]


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
        c = self.terms.get(self.ring._zero_exps)
        return self.ring.coeff(0) if c is None else c

    def constant_term_at_origin(self):
        """Constant term with parameters also set to zero."""
        c = self.terms.get(self.ring._zero_exps)
        return Fraction(0) if c is None else self.ring.coeff_at_origin(c)

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

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        out = dict(self.terms)
        _accumulate(out, ((e, -c) for e, c in other.terms.items()))
        return Polynomial(self.ring, out)

    def __rsub__(self, other):
        return self.ring.constant(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        out = {}
        row = other.terms.items()
        for e, c in self.terms.items():
            _accumulate(out, row, e, c)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring.coeff(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})

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
        # a polynomial equal to a number, as `__eq__` has it, hashes as that
        # number; the ring is left out, since equal polynomials share it
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and self.ring._zero_exps in terms:
            c = terms[self.ring._zero_exps]
            if isinstance(c, Fraction):
                return hash(c)
            if c.numer.is_ground and c.denom.is_ground:  # a rational, in sympy's QQ,
                return hash(c.numer.LC / c.denom.LC)  # which hashes as Fraction does
        return hash(frozenset(terms.items()))

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

        out = {}
        for exps, c in self.terms.items():
            residual = list(exps)
            piece = None
            for i in mapping:
                if exps[i]:
                    residual[i] = 0
                    p = power(i, exps[i])
                    piece = p if piece is None else piece * p
            if piece is None:
                _accumulate(out, ((exps, c),))
            else:
                _accumulate(out, piece.terms.items(), tuple(residual), c)
        return Polynomial(ring, out)

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


# -- determinants and linear changes of variables ----------------------------


def _bareiss_det(rows, one, is_zero, divide):
    """Determinant of a square matrix, given as rows, by Bareiss elimination.

    Works over any integral domain: `is_zero` tests an entry and `divide(a, b)` returns
    the exact quotient a/b of a nonzero a; the first step, whose divisor is `one`, does
    not call it.  The empty matrix has determinant `one`.  `rows` is left unchanged.
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
                a[i][j] = num if k == 0 or is_zero(num) else divide(num, prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


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

    def __eq__(self, other):
        return isinstance(other, LinearChange) and self.matrix == other.matrix

    def __repr__(self):
        return f"LinearChange({self.matrix})"


def apply_linear_change(p, change):
    """Compose p with the linear map: substitute old var_i by its expansion."""
    ring = p.ring
    if change.size != ring.nvars:
        raise ValueError("linear change size must equal the variable count")
    mapping = {i: sum((ring.var(j).scale(v) for j, v in enumerate(row) if v), ring.zero())
               for i, row in enumerate(change.matrix)}
    return p.substitute(mapping)


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>\*\*|[-+*/^()])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text):
    """The (kind, lexeme, offset) tokens of `text`, whitespace dropped, then an end token.

    Raises ParseError at the first character that starts no token.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _parse_error(f"unexpected character {m.group()!r}", text, m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _parse_error(message, text, offset):
    """The ParseError at `offset` of `text`, with its line and column counted from 1."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _monomial_coeff(ring, c, pexps):
    """c * params^pexps in the coefficient field, for a nonzero int or Fraction c.

    Over QQ(params) the element is an integer monomial over a positive
    integer, coprime: already canonical, so it is made without a gcd.
    """
    field = ring.field
    if field is None:
        return c if isinstance(c, Fraction) else Fraction(c)
    new, ground = field.ring.dtype, field.ring.domain.dtype
    numer = new({tuple(pexps): ground(c.numerator)})
    if c.denominator == 1:
        return field.raw_new(numer)
    return field.raw_new(numer, new({field.ring.zero_monom: ground(c.denominator)}))


class _Product:
    """A product read by `_Parser.term`: c * vars^exps * params^pexps * poly.

    c is an int or a Fraction, exps and pexps are exponent lists, and poly
    is None or the Polynomial product of the factors that are not monomials
    (sums, powers of sums, quotients of variable-free operands).
    """

    __slots__ = ("c", "exps", "pexps", "poly")

    def __init__(self, c, exps, pexps, poly=None):
        self.c = c
        self.exps = exps
        self.pexps = pexps
        self.poly = poly

    def mul(self, other):
        self.c *= other.c
        if any(other.exps):
            self.exps = list(map(operator.add, self.exps, other.exps))
        if any(other.pexps):
            self.pexps = list(map(operator.add, self.pexps, other.pexps))
        if other.poly is not None:
            self.poly = other.poly if self.poly is None else self.poly * other.poly

    def power(self, k):
        self.c **= k
        self.exps = [e * k for e in self.exps]
        self.pexps = [e * k for e in self.pexps]
        if self.poly is not None:
            self.poly **= k

    def is_zero(self):
        return not self.c or (self.poly is not None and not self.poly.terms)

    def is_constant(self):
        return self.is_zero() or not any(self.exps) and (
            self.poly is None or self.poly.is_constant())

    def constant(self, ring):
        """The value of a constant product, in the coefficient field."""
        if self.is_zero():
            return ring.coeff(0)
        c = _monomial_coeff(ring, self.c, self.pexps)
        return c if self.poly is None else c * self.poly.constant_term()

    def add_to(self, terms, ring):
        """terms += the product, by `_accumulate`; returns terms."""
        if not self.c:
            return terms
        exps = tuple(self.exps)
        if self.poly is None:
            _accumulate(terms, ((exps, _monomial_coeff(ring, self.c, self.pexps)),))
            return terms
        scale = None
        if self.c != 1 or any(self.pexps):
            scale = _monomial_coeff(ring, self.c, self.pexps)
        _accumulate(terms, self.poly.terms.items(), exps if any(exps) else None, scale)
        return terms


class _Parser:
    """Recursive descent over the tokens of one expression.

    A product of literals, variables, parameters, their powers and
    parenthesized products is read into one `_Product`, and the terms of a
    sum are added into one dict; sums inside parentheses, powers of them
    and quotients of variable-free operands become Polynomials.
    """

    def __init__(self, text, ring):
        self.text = text
        self.tokens = _tokenize(text)
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
        raise _parse_error(message, self.text, tok[2])

    def parse(self):
        p = self.expr()
        kind, lexeme, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected token {lexeme!r}")
        return p

    def expr(self):
        s = self.sum()
        terms = s if isinstance(s, dict) else s.add_to({}, self.ring)
        return Polynomial(self.ring, terms)

    def sum(self):
        """A signed sum of terms: its one `_Product` when it has one term,
        else the dict of its terms."""
        negative = False
        if self.peek()[1] in ("+", "-"):
            negative = self.next()[1] == "-"
        p = self.term()
        if negative:
            p.c = -p.c
        if self.peek()[1] not in ("+", "-"):
            return p
        terms = p.add_to({}, self.ring)
        while self.peek()[1] in ("+", "-"):
            negative = self.next()[1] == "-"
            q = self.term()
            if negative:
                q.c = -q.c
            q.add_to(terms, self.ring)
        return terms

    def term(self):
        p = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()
            q = self.factor()
            if op[1] == "*":
                p.mul(q)
                continue
            # a quotient of variable-free operands, such as a printed
            # coefficient (-1/(s-1)); literal fractions are read by factor()
            if not (p.is_constant() and q.is_constant()):
                self.error("'/' is only allowed between variable-free operands", op)
            if q.is_zero():
                self.error("zero denominator", op)
            quotient = self.ring.constant(p.constant(self.ring) / q.constant(self.ring))
            p = self.product(poly=quotient)
        return p

    def product(self, c=1, poly=None):
        return _Product(c, [0] * self.ring.nvars, [0] * len(self.ring.params), poly)

    def factor(self):
        kind, lexeme, offset = self.peek()
        if kind == "int":
            self.next()
            num = int(lexeme)
            if self.peek()[1] == "/" and self.tokens[self.pos + 1][0] == "int":
                self.next()
                denominator = self.next()
                if int(denominator[1]) == 0:
                    self.error("zero denominator", denominator)
                return self.product(Fraction(num, int(denominator[1])))
            return self.product(num)
        if kind == "name":
            self.next()
            p = self.product()
            if lexeme in self.ring.variables:
                p.exps[self.ring.variables.index(lexeme)] = self.exponent()
            elif lexeme in self.ring.params:
                p.pexps[self.ring.params.index(lexeme)] = self.exponent()
            else:
                raise _parse_error(f"unknown variable {lexeme!r}", self.text, offset)
            return p
        if lexeme == "(":
            self.next()
            s = self.sum()
            close = self.next()
            if close[1] != ")":
                self.error("expected ')'", close)
            k = self.exponent()
            if isinstance(s, dict):
                return self.product(poly=Polynomial(self.ring, s) ** k)
            if k != 1:
                s.power(k)
            return s
        if lexeme == "/":
            self.error("'/' is only allowed between variable-free operands")
        self.error(f"unexpected token {lexeme!r}")

    def exponent(self):
        """The exponent after '^' or '**', or 1 when there is none."""
        if self.peek()[1] in ("^", "**"):
            self.next()
            tok = self.next()
            if tok[0] != "int":
                self.error("exponent must be a nonnegative integer", tok)
            return int(tok[1])
        return 1


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
    return _Parser(text, ring).parse()


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
