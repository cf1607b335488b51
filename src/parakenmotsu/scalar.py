"""Exact scalar arithmetic for chart functions.

Everything the engine differentiates or tests for zero lives in one small
ring: finite sums of terms

    q * x1^k1 * ... * xm^km * exp(l)

where q is an exact rational, the k's are non-negative integer exponents
over the chart symbols and l is a linear form in the symbols with rational
coefficients.  The ring is closed under addition, multiplication and
partial differentiation, and every expression has a unique canonical form
(terms sorted by exponent, then monomial), so equality and zero-testing
are decidable by construction.  Inversion is supported exactly for the
terms that are units: a single term with empty monomial.

Expression text such as ``2*x^2*exp(-2*z)`` round-trips through
:func:`parse_scalar` and ``str()``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class ChartMismatch(ValueError):
    """Raised when operands belong to different charts."""


class NonInvertible(ValueError):
    """Raised when an expression has no inverse inside the ring."""


class UnknownSymbol(ValueError):
    """Raised for a symbol name that is not part of the chart."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class LinearForm:
    """Rational linear form sum(c_i * x_i); the l of exp(l).

    Coefficients are stored sparsely as (symbol index, coefficient) pairs,
    sorted by index, with zero coefficients dropped.  The empty tuple is
    the zero form.
    """

    coeffs: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def build(mapping: Mapping[int, Fraction]) -> "LinearForm":
        pairs = tuple(
            (i, _as_fraction(c)) for i, c in sorted(mapping.items()) if c != 0
        )
        return LinearForm(pairs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinearForm") -> "LinearForm":
        acc = dict(self.coeffs)
        for i, c in other.coeffs:
            acc[i] = acc.get(i, Fraction(0)) + c
        return LinearForm.build(acc)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple((i, -c) for i, c in self.coeffs))

    def coefficient(self, index: int) -> Fraction:
        for i, c in self.coeffs:
            if i == index:
                return c
        return Fraction(0)

    def dense(self, width: int) -> tuple[Fraction, ...]:
        row = [Fraction(0)] * width
        for i, c in self.coeffs:
            row[i] = c
        return tuple(row)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        return sum((c * point[i] for i, c in self.coeffs), Fraction(0))

    def render(self, symbols: Sequence[str]) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for pos, (i, c) in enumerate(self.coeffs):
            mag = abs(c)
            body = symbols[i] if mag == 1 else f"{mag}*{symbols[i]}"
            if pos == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


@dataclass(frozen=True, slots=True)
class Term:
    """One canonical summand: coeff * monomial * exp(linear form)."""

    coeff: Fraction
    monomial: tuple[tuple[int, int], ...] = ()
    exponent: LinearForm = LinearForm()

    def key(self, width: int) -> tuple:
        mono = [0] * width
        for i, k in self.monomial:
            mono[i] = k
        return (self.exponent.dense(width), tuple(mono))

    def degree(self) -> int:
        return sum(k for _, k in self.monomial)


def mul_terms(a: Sequence[Term], b: Sequence[Term]) -> Sequence[Term]:
    """Every product of a term of `a` with a term of `b`, not yet normalized."""
    if len(b) == 1 and not b[0].monomial and not b[0].exponent.coeffs:
        a, b = b, a
    if len(a) == 1 and not a[0].monomial and not a[0].exponent.coeffs:
        q = a[0].coeff  # a rational constant only rescales
        return b if q == 1 else [Term(q * t.coeff, t.monomial, t.exponent) for t in b]
    return [
        Term(
            s.coeff * t.coeff,
            _mul_monomials(s.monomial, t.monomial),
            s.exponent + t.exponent,
        )
        for s in a
        for t in b
    ]


def _mul_monomials(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    acc = dict(a)
    for i, k in b:
        acc[i] = acc.get(i, 0) + k
    return tuple(sorted((i, k) for i, k in acc.items() if k))


@dataclass(frozen=True, slots=True)
class ExactValue:
    """Exact result of a point substitution: sum of q_i * e^{r_i}."""

    parts: tuple[tuple[Fraction, Fraction], ...]  # (exponent r, coefficient q)

    def is_zero(self) -> bool:
        return not self.parts

    def as_rational(self) -> Fraction:
        """The value when no genuine exponential remains (r = 0 only)."""
        if not self.parts:
            return Fraction(0)
        if len(self.parts) == 1 and self.parts[0][0] == 0:
            return self.parts[0][1]
        raise NonInvertible("value is not rational: " + str(self))

    def approx(self) -> float:
        from math import exp

        return sum(float(q) * exp(float(r)) for r, q in self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        chunks = []
        for r, q in self.parts:
            if r == 0:
                chunks.append(str(q))
            else:
                chunks.append(f"{q}*e^({r})")
        return " + ".join(chunks)


@dataclass(frozen=True, slots=True)
class ScalarExpr:
    """Canonical element of the scalar ring over a fixed symbol tuple."""

    symbols: tuple[str, ...]
    terms: tuple[Term, ...] = ()

    # -- constructors -------------------------------------------------

    @staticmethod
    def normalize(symbols: tuple[str, ...], terms: Iterable[Term]) -> "ScalarExpr":
        acc: dict[tuple, Term] = {}
        width = len(symbols)
        for t in terms:
            k = (t.monomial, t.exponent)
            if k in acc:
                acc[k] = Term(acc[k].coeff + t.coeff, t.monomial, t.exponent)
            else:
                acc[k] = t
        kept = [t for t in acc.values() if t.coeff != 0]
        kept.sort(key=lambda t: t.key(width))
        return ScalarExpr(symbols, tuple(kept))

    @staticmethod
    def zero(symbols: tuple[str, ...]) -> "ScalarExpr":
        return ScalarExpr(symbols, ())

    @staticmethod
    def const(value, symbols: tuple[str, ...]) -> "ScalarExpr":
        q = _as_fraction(value)
        if q == 0:
            return ScalarExpr(symbols, ())
        return ScalarExpr(symbols, (Term(q),))

    @staticmethod
    def coordinate(name: str, symbols: tuple[str, ...]) -> "ScalarExpr":
        i = _symbol_index(name, symbols)
        return ScalarExpr(symbols, (Term(Fraction(1), ((i, 1),)),))

    @staticmethod
    def exponential(coeffs: Mapping[str, Fraction], symbols: tuple[str, ...]) -> "ScalarExpr":
        """exp of the linear form given by symbol-name -> coefficient."""
        form = LinearForm.build(
            {_symbol_index(n, symbols): _as_fraction(c) for n, c in coeffs.items()}
        )
        return ScalarExpr(symbols, (Term(Fraction(1), (), form),))

    # -- ring operations ----------------------------------------------

    def _check(self, other: "ScalarExpr") -> None:
        if self.symbols != other.symbols:
            raise ChartMismatch(
                f"operands use different charts: {self.symbols} vs {other.symbols}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarExpr.const(other, self.symbols)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        self._check(other)
        return ScalarExpr.normalize(self.symbols, self.terms + other.terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ScalarExpr(
            self.symbols,
            tuple(Term(-t.coeff, t.monomial, t.exponent) for t in self.terms),
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarExpr.const(other, self.symbols)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return ScalarExpr.normalize(
                self.symbols,
                (Term(t.coeff * q, t.monomial, t.exponent) for t in self.terms),
            )
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        self._check(other)
        return ScalarExpr.normalize(self.symbols, mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("powers must be non-negative integers")
        result = ScalarExpr.const(1, self.symbols)
        base = self
        while power:  # repeated squaring
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def invert(self) -> "ScalarExpr":
        """Exact inverse of a unit q*exp(l); anything else is rejected."""
        if len(self.terms) != 1:
            raise NonInvertible(f"not a single-term unit: {self}")
        t = self.terms[0]
        if t.monomial:
            raise NonInvertible(f"monomial factors have no inverse in the ring: {self}")
        return ScalarExpr(self.symbols, (Term(1 / t.coeff, (), -t.exponent),))

    def diff(self, name: str) -> "ScalarExpr":
        """Partial derivative with respect to one chart symbol."""
        i = _symbol_index(name, self.symbols)
        out: list[Term] = []
        for t in self.terms:
            for j, k in t.monomial:
                if j == i:
                    lowered = tuple(
                        (m, p - 1 if m == i else p) for m, p in t.monomial if not (m == i and p == 1)
                    )
                    lowered = tuple((m, p) for m, p in lowered if p)
                    out.append(Term(t.coeff * k, lowered, t.exponent))
            c = t.exponent.coefficient(i)
            if c != 0:
                out.append(Term(t.coeff * c, t.monomial, t.exponent))
        return ScalarExpr.normalize(self.symbols, out)

    # -- predicates and evaluation --------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1
            and not self.terms[0].monomial
            and self.terms[0].exponent.is_zero()
        )

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return self.terms[0].coeff
        raise NonInvertible(f"not a rational constant: {self}")

    def evaluate(self, point: Mapping[str, Fraction]) -> ExactValue:
        """Substitute exact rationals for every chart symbol."""
        values = []
        for name in self.symbols:
            if name not in point:
                raise UnknownSymbol(f"point does not assign symbol {name!r}")
            values.append(_as_fraction(point[name]))
        acc: dict[Fraction, Fraction] = {}
        for t in self.terms:
            q = t.coeff
            for i, k in t.monomial:
                q *= values[i] ** k
            r = t.exponent.evaluate(values)
            acc[r] = acc.get(r, Fraction(0)) + q
        parts = tuple(sorted((r, q) for r, q in acc.items() if q != 0))
        return ExactValue(parts)

    # -- rendering -------------------------------------------------------

    def _render_term(self, t: Term, lead: bool) -> str:
        factors: list[str] = []
        for i, k in t.monomial:
            factors.append(self.symbols[i] if k == 1 else f"{self.symbols[i]}^{k}")
        if not t.exponent.is_zero():
            factors.append(f"exp({t.exponent.render(self.symbols)})")
        mag = abs(t.coeff)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if lead:
            return body if t.coeff > 0 else f"-{body}"
        return f" + {body}" if t.coeff > 0 else f" - {body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "".join(self._render_term(t, i == 0) for i, t in enumerate(self.terms))

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


def _symbol_index(name: str, symbols: tuple[str, ...]) -> int:
    try:
        return symbols.index(name)
    except ValueError:
        raise UnknownSymbol(
            f"unknown symbol {name!r}; chart symbols are {', '.join(symbols)}"
        ) from None


# ---------------------------------------------------------------------------
# Expression text: tokenizer and recursive-descent parser.
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


class ExprSyntaxError(ValueError):
    """Syntax error in expression or document text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


_EXPR_SPEC = [
    ("WS", r"[ \t]+"),
    ("NUM", r"\d+"),
    ("IDENT", r"[A-Za-z_]\w*"),
    ("OP", r"[-+*^/()]"),
]

_DSL_SPEC = [
    ("WS", r"[ \t]+"),
    ("COMMENT", r"#[^\n]*"),
    ("ARROW", r"->"),
    ("DDERIV", r"d/d[A-Za-z_]\w*"),
    ("NUM", r"\d+"),
    ("IDENT", r"[A-Za-z_]\w*"),
    ("EQUALS", r"="),
    ("OP", r"[-+*^/()]"),
]


def _compile(spec) -> re.Pattern:
    return re.compile("|".join(f"(?P<{k}>{p})" for k, p in spec))


_EXPR_RE = _compile(_EXPR_SPEC)
_DSL_RE = _compile(_DSL_SPEC)


def tokenize(text: str, line: int = 1, dsl: bool = False) -> list[Token]:
    pattern = _DSL_RE if dsl else _EXPR_RE
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, pos + 1)
        kind = m.lastgroup
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, m.group(), line, m.start() + 1))
        pos = m.end()
    return tokens


_EXPR_TOKENS = {"NUM", "IDENT"}
_EXPR_OPS = set("-+*^/()")


class _Parser:
    def __init__(self, tokens: Sequence[Token], pos: int, symbols: tuple[str, ...], line: int):
        self.tokens = tokens
        self.pos = pos
        self.symbols = symbols
        self.line = line

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            if t.kind in _EXPR_TOKENS or (t.kind == "OP" and t.text in _EXPR_OPS):
                return t
        return None

    def error(self, message: str) -> ExprSyntaxError:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return ExprSyntaxError(message + f" (near {t.text!r})", t.line, t.col)
        return ExprSyntaxError(message + " (at end of input)", self.line, 0)

    def take_op(self, ops: str) -> Token | None:
        t = self.peek()
        if t is not None and t.kind == "OP" and t.text in ops:
            self.pos += 1
            return t
        return None

    def expect_op(self, op: str) -> Token:
        t = self.take_op(op)
        if t is None:
            raise self.error(f"expected {op!r}")
        return t

    def parse_expr(self) -> ScalarExpr:
        value = self.parse_product()
        while True:
            t = self.take_op("+-")
            if t is None:
                return value
            rhs = self.parse_product()
            value = value + rhs if t.text == "+" else value - rhs

    def parse_product(self) -> ScalarExpr:
        value = self.parse_factor()
        while self.take_op("*"):
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> ScalarExpr:
        if self.take_op("-"):
            return -self.parse_factor()
        atom = self.parse_atom()
        if self.take_op("^"):
            t = self.peek()
            if t is None or t.kind != "NUM":
                raise self.error("expected a non-negative integer power after '^'")
            self.pos += 1
            return atom ** int(t.text)
        return atom

    def parse_atom(self) -> ScalarExpr:
        t = self.peek()
        if t is None:
            raise self.error("expected an expression")
        if t.kind == "NUM":
            self.pos += 1
            numer = int(t.text)
            if self.take_op("/"):
                d = self.peek()
                if d is None or d.kind != "NUM":
                    raise self.error("expected an integer denominator")
                self.pos += 1
                if int(d.text) == 0:
                    raise ExprSyntaxError("zero denominator", d.line, d.col)
                return ScalarExpr.const(Fraction(numer, int(d.text)), self.symbols)
            return ScalarExpr.const(numer, self.symbols)
        if t.kind == "IDENT" and t.text == "exp":
            self.pos += 1
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            return self._to_exponential(inner, t)
        if t.kind == "IDENT":
            self.pos += 1
            if t.text not in self.symbols:
                raise ExprSyntaxError(
                    f"unknown symbol {t.text!r}; chart symbols are "
                    + ", ".join(self.symbols),
                    t.line,
                    t.col,
                )
            return ScalarExpr.coordinate(t.text, self.symbols)
        if t.kind == "OP" and t.text == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise self.error("expected an expression")

    def _to_exponential(self, inner: ScalarExpr, at: Token) -> ScalarExpr:
        coeffs: dict[int, Fraction] = {}
        for term in inner.terms:
            if not term.exponent.is_zero() or term.degree() != 1:
                raise ExprSyntaxError(
                    "exp argument must be a rational linear form in the chart symbols",
                    at.line,
                    at.col,
                )
            (i, _), = term.monomial
            coeffs[i] = coeffs.get(i, Fraction(0)) + term.coeff
        form = LinearForm.build(coeffs)
        return ScalarExpr(inner.symbols, (Term(Fraction(1), (), form),))


def parse_expr_tokens(
    tokens: Sequence[Token], pos: int, symbols: tuple[str, ...], line: int = 1
) -> tuple[ScalarExpr, int]:
    """Parse an expression from a token slice; returns (expr, next position)."""
    p = _Parser(tokens, pos, symbols, line)
    expr = p.parse_expr()
    return expr, p.pos


def parse_scalar(text: str, symbols: tuple[str, ...]) -> ScalarExpr:
    """Parse expression text over the given chart symbols."""
    tokens = tokenize(text)
    expr, end = parse_expr_tokens(tokens, 0, symbols)
    if end != len(tokens):
        t = tokens[end]
        raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return expr
